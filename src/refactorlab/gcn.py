"""Graph convolutional network with handwritten backpropagation.

Each layer computes h_v = ReLU(W . sum_{u in N(v)} g_vu h_u + b): a gated
sum over neighbors with no degree normalization.  Neighborhoods are
undirected and include a self-loop with unit gate; every other gate g_vu
is the summed derived strength of the edges between u and v.
``aggregation_matrix`` is the one definition of that operator, a sparse
CSR matrix.  There is one forward and one backward pass, over a batch of
graphs stacked block-diagonally: training and ``predict_graphs`` batch
many graphs, while ``forward``, ``backward``, ``sample_loss`` and
``suggest_split`` run a batch of one.  Two heads read the final
embeddings: a graph head (sigmoid of a linear map over the mean-pooled
embedding) classifies refactor/keep, and a node head scores every node as
a split-point candidate.

Inputs are passed through log1p and then standardized per feature (mean
and deviation fitted on the training nodes, frozen into the checkpoint)
so count-like features (lines, subtree sizes) do not swamp the sum
aggregation and small-range features stay visible to the optimizer.  A
sample's input rows are its graph's read-only ``x`` itself, not a copy.

A training step runs in float32 and everything else in float64.  Each
step casts the float64 master weights to a float32 copy, runs forward and
backward in float32 over float32 aggregation matrices, and casts the
gradients back up; Adam's moments and the weights it updates stay float64
(the master-weight scheme of Micikevicius et al., *Mixed Precision
Training*, ICLR 2018).  Inference (``forward``, ``predict_graphs``,
``suggest_split``) and the gradient checks (``backward``, ``sample_loss``,
``gradient_check``) run in float64, so checkpoints and their scores keep
full precision.  The forward and backward passes take their dtype from
the aggregation matrix, and every layer, in training and inference and in
``gcn_layer_forward``, runs the one ``_layer``.

Each pass holds only what its readers read.

- **Who caches.**  A pass that a backward pass reads (a training step,
  ``backward``, ``sample_loss`` and ``gradient_check``) caches what that
  backward pass reads and nothing more: per layer the aggregated input S,
  a bool mask of H > 0 after ReLU and dropout (exactly the
  kept-and-active units, so neither the pre-activation nor a float
  dropout mask is stored) and the dropout scale, plus the last layer's H,
  which pooling and the heads read.  The backward pass stops at layer 1's
  weights, since nothing reads the gradient of the input features.
- **Step buffers.**  Those passes write into a ``_PassBuffers``: per row,
  each layer's S and mask, one H that each layer overwrites in turn, and
  dH; plus a fixed chunk of ``DRAW_CHUNK`` float64 dropout draws, which
  the draw fills block by block in row order.  ``train`` allocates one per
  call, with rows for the sum of the ``batch_size`` largest node counts
  among its fit samples or for the validation slice, whichever is more,
  so every batch and the per-epoch validation pass is a row prefix of it.
  Each node-sized product and ufunc writes there with ``out=``, the sparse
  products through the CSR kernel that scipy's ``A @ H`` calls
  (``_aggregate``), so a step reuses the same pages instead of mapping
  fresh ones.  The backward pass consumes its cache: once it has read the
  last H and each layer's S, it writes its products into them.
- **Batched inference.**  ``forward`` and ``predict_graphs`` cache
  nothing and hold one layer's arrays at a time, and ``predict_graphs``
  runs at most ``BATCH_SIZE`` graphs per pass, so its memory does not
  grow with the number of graphs.

Graph pooling is a product with a sparse matrix of ones, which sums each
graph's rows in the same order alone or in any batch; no other operation
mixes rows, so a graph gets the same floats in any batch or chunk.

Checkpoints.  ``gcn_to_doc`` writes the config and, per weight array and
for ``feature_mu`` and ``feature_sigma``, one base64 string (RFC 4648) of
the array's raw little-endian float64 bytes in C order: the data layout
of NumPy's ``.npy`` format (NEP 1), 8 bytes a value where shortest-repr
decimal text takes about 21.  Every shape follows from the config, so the
document stores none.  ``gcn_from_doc`` checks each string's length
against its shape before it decodes anything, then that it is canonical
base64 (it re-encodes to itself) and that every value is finite, so a
checkpoint decodes to the very floats it was written from and re-encodes
to the same bytes.

Every reduction runs in a fixed order, so a fixed seed reproduces training
bit for bit for a fixed BLAS thread count: the number of BLAS threads
changes how matrix products round, and with it the trained weights.
``cli.main`` pins numpy's OpenBLAS to one thread, so the CLI's outputs do
not depend on ``OPENBLAS_NUM_THREADS``; a direct caller must pin it too.
"""

from __future__ import annotations

import base64
import math
import reprlib
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvecs
from scipy.special import expit

from .errors import (
    CheckpointError,
    DataError,
    DimensionMismatchError,
    EmptyDatasetError,
    InvariantError,
    check_fields,
    is_int,
    is_number,
)
from .graph import EDGE_STRENGTH, NODE_FEATURE_DIM, CodeGraph, edge_features
from .rng import Rng

CHECKPOINT_VERSION = "3"
_CHECKPOINT_KEYS = {"version", "kind", "config", "feature_mu", "feature_sigma", "weights"}

# Adam moment decays and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# share of the train split held out to report validation accuracy
VAL_FRACTION = 0.1
# train()'s default batch size, and the most graphs one inference pass holds
BATCH_SIZE = 128
# float64 values per block of a dropout draw (512 KiB), whatever the batch
DRAW_CHUNK = 1 << 16


@dataclass(frozen=True)
class GcnConfig:
    layers: int = 4
    units: int = 128
    dropout: float = 0.4
    input_dim: int = NODE_FEATURE_DIM

    def __post_init__(self) -> None:
        for name in ("layers", "units", "input_dim"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise DataError(f"{name} must be an integer >= 1, got {reprlib.repr(value)}")
        d = self.dropout
        if not is_number(d) or not 0.0 <= d < 1.0:
            raise DataError(f"dropout must be a number in [0, 1), got {reprlib.repr(d)}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0005
    epochs: int = 75
    batch_size: int = BATCH_SIZE
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise DataError(f"{name} must be an integer >= 1, got {reprlib.repr(value)}")
        lr = self.learning_rate
        if not is_number(lr) or not lr > 0.0:
            raise DataError(f"learning_rate must be a finite number > 0, got {reprlib.repr(lr)}")


@dataclass
class GcnModel:
    config: GcnConfig
    weights: dict[str, np.ndarray]
    # per-feature input standardization constants, fitted on the train
    # split and frozen into the checkpoint; identity until trained
    feature_mu: np.ndarray = field(default_factory=lambda: np.zeros(NODE_FEATURE_DIM))
    feature_sigma: np.ndarray = field(default_factory=lambda: np.ones(NODE_FEATURE_DIM))

    def param_names(self) -> list[str]:
        names = []
        for layer in range(1, self.config.layers + 1):
            names.extend([f"W{layer}", f"b{layer}"])
        names.extend(["wg", "bg", "wn", "bn"])
        return names


@dataclass
class ForwardResult:
    graph_prob: float
    node_scores: np.ndarray


@dataclass
class SplitSuggestion:
    node_id: int | None
    score: float
    eligible: bool
    graph_prob: float  # refactor probability, from the same forward pass


# --- initialization -----------------------------------------------------------


def _glorot(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    flat = np.array(
        [(rng.random() * 2.0 - 1.0) * limit for _ in range(fan_in * fan_out)],
        dtype=np.float64,
    )
    return flat.reshape(fan_in, fan_out)


def init_model(seed: int, config: GcnConfig | None = None) -> GcnModel:
    """Glorot-uniform weights, zero biases, from the pinned generator."""
    config = config or GcnConfig()
    rng = Rng(seed)
    weights: dict[str, np.ndarray] = {}
    d_in = config.input_dim
    for layer in range(1, config.layers + 1):
        weights[f"W{layer}"] = _glorot(rng, d_in, config.units)
        weights[f"b{layer}"] = np.zeros(config.units, dtype=np.float64)
        d_in = config.units
    weights["wg"] = _glorot(rng, config.units, 1).reshape(-1)
    weights["bg"] = np.zeros(1, dtype=np.float64)
    weights["wn"] = _glorot(rng, config.units, 1).reshape(-1)
    weights["bn"] = np.zeros(1, dtype=np.float64)
    return GcnModel(
        config=config,
        weights=weights,
        feature_mu=np.zeros(config.input_dim, dtype=np.float64),
        feature_sigma=np.ones(config.input_dim, dtype=np.float64),
    )


# --- tensors ------------------------------------------------------------------------


def aggregation_matrix(graph: CodeGraph) -> sparse.csr_matrix:
    """Sparse gate matrix A: A[v, u] is the summed strength (the column of
    ``edge_features``) of the edges between u and v, in either orientation,
    and each diagonal entry adds a unit self-loop.  Every edge enters both
    orientations, so A is symmetric.

    Each entry is summed in edge order with the self-loop last, a fixed
    float reduction order that keeps training reproducible bit for bit:
    ``np.bincount`` adds its weights in input order, starting from 0.0.
    The matrix is canonical CSR (sorted indices, no duplicates), so a
    product with it sums each row's terms in column order.
    """
    n = len(graph)
    strength = np.array([row[EDGE_STRENGTH] for row in edge_features(graph)], dtype=np.float64)
    diag = np.arange(n, dtype=np.int64)
    # per edge the (dst, src) entry, then the (src, dst) one; self-loops last
    rows = np.concatenate([np.column_stack([graph.dst, graph.src]).reshape(-1), diag])
    cols = np.concatenate([np.column_stack([graph.src, graph.dst]).reshape(-1), diag])
    weights = np.concatenate([np.repeat(strength, 2), np.ones(n)])
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    data = np.bincount(slot, weights)
    # int32 index arrays, the dtype scipy would pick, spare its constructor a scan
    indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n)).astype(np.int32)
    return sparse.csr_matrix((data, (keys % n).astype(np.int32), indptr), shape=(n, n))


def _node_matrix(graph: CodeGraph, input_dim: int) -> np.ndarray:
    """The graph's own read-only feature matrix, once its width is checked."""
    X = graph.x
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise DimensionMismatchError(
            f"node features must be {input_dim}-dim, got shape {X.shape}"
        )
    return X


# --- layer and forward ------------------------------------------------------------


def _aggregate(A: sparse.csr_matrix, H: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ H, written into ``out`` or a fresh array.

    This calls the CSR kernel that scipy's own ``A @ H`` runs, into zeros,
    on the same arrays, so the floats are the same bit for bit.  The kernel
    casts operands of mixed dtypes to a common one and would then write
    into a copy, so the dtypes must agree and ``out`` must be contiguous;
    and it zeroes ``out`` before it reads ``H``, so the two must not overlap.
    """
    M, N = A.shape
    out = np.empty((M, H.shape[1]), dtype=A.dtype) if out is None else out
    if not (
        A.dtype == H.dtype == out.dtype
        and H.shape[0] == N
        and out.shape == (M, H.shape[1])
        and H.flags.c_contiguous
        and out.flags.c_contiguous
        and not np.shares_memory(H, out)
    ):
        raise ValueError(
            f"cannot aggregate {A.dtype} A{A.shape} over {H.dtype} H{H.shape}"
            f" into {out.dtype} out{out.shape}"
        )
    out.fill(0.0)
    csr_matvecs(M, N, H.shape[1], A.indptr, A.indices, A.data, H.ravel(), out.ravel())
    return out


def _layer(S: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ReLU(S @ W + b) for an aggregated input ``S``, in the dtype of its
    operands, written into ``out`` or a fresh array: the one layer that
    training, inference and ``gcn_layer_forward`` run."""
    H = np.matmul(S, W, out=out)
    H += b
    np.maximum(H, 0.0, out=H)
    return H


def gcn_layer_forward(
    H: np.ndarray, neighbors: np.ndarray, W: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """One layer: row v = ReLU(sum of gated neighbor rows, mapped by W, + b).

    ``neighbors`` is the aggregation matrix (self-loops included), sparse
    or dense.
    """
    H = np.asarray(H, dtype=np.float64)
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if H.shape[1] != W.shape[0] or W.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"layer shapes H{H.shape} W{W.shape} b{b.shape} do not chain"
        )
    if not sparse.issparse(neighbors):
        neighbors = np.asarray(neighbors, dtype=np.float64)
        if neighbors.shape != (H.shape[0], H.shape[0]):
            raise DimensionMismatchError(
                f"adjacency {neighbors.shape} does not match {H.shape[0]} nodes"
            )
    return _layer(neighbors @ H, W, b)


class _PassBuffers:
    """The arrays of a cached forward pass and its backward pass, for up to
    ``rows`` stacked nodes: per layer the aggregated input S and the bool
    mask of H > 0, one output H that each layer overwrites, and the
    gradient dH.  A pass over n nodes writes the first n rows of each, a
    C-contiguous prefix, so a batch of any size up to ``rows`` reuses them.
    The dropout draw's float64 chunk has ``DRAW_CHUNK`` values at any
    ``rows``.
    """

    def __init__(self, config: GcnConfig, rows: int, dtype: np.dtype | type) -> None:
        wide = (rows, config.units)
        self.S = [np.empty((rows, config.input_dim), dtype)]
        self.S += [np.empty(wide, dtype) for _ in range(config.layers - 1)]
        self.mask = [np.empty(wide, bool) for _ in range(config.layers)]
        self.H = np.empty(wide, dtype)
        self.dH = np.empty(wide, dtype)
        self.draw = np.empty(DRAW_CHUNK, np.float64)  # Generator.random fills float64 only


def _draw_keep(nprng: np.random.Generator, p: float, keep: np.ndarray, draw: np.ndarray) -> None:
    """Write ``nprng.random(keep.shape) >= p`` into the contiguous bool
    array ``keep``, drawing ``draw.size`` values at a time into ``draw``.
    The generator yields one double per draw, in order, so the blocks hold
    the very values of one full draw and leave it in the same state."""
    flat = keep.reshape(-1)
    for lo in range(0, flat.size, draw.size):
        block = draw[: flat.size - lo]
        np.greater_equal(nprng.random(out=block), p, out=flat[lo : lo + block.size])


def _forward_full(
    model: GcnModel,
    X: np.ndarray,
    A: sparse.csr_matrix,
    counts: np.ndarray,
    nprng: np.random.Generator | None = None,
    buffers: _PassBuffers | None = None,
) -> dict:
    """Forward pass over a batch; with ``buffers``, cache what the backward
    pass reads.

    ``X`` and ``A`` stack the batch's graphs block-diagonally and
    ``counts`` gives each graph's node count.  Dropout is drawn from
    ``nprng`` when one is given (training, which needs ``buffers``) and
    skipped otherwise.  The pass runs in the dtype of ``A``: the input is
    standardized in float64 and then cast to it, and the model's weights
    and the buffers are expected in it too.

    Without ``buffers`` each layer's arrays are fresh and dropped once the
    next layer has read them, and the dict holds only the pooled and head
    outputs.  With ``buffers`` each layer writes its rows of them, and the
    dict also caches, per layer, the aggregated input ``S``, the ``mask``
    of H > 0 after ReLU and dropout and the dropout scale (None where no
    dropout ran), plus the last layer's output ``H_last`` and the buffers
    for the backward pass to write into.  ``H > 0`` holds exactly where a
    unit was kept and its pre-activation was positive, so neither the
    pre-activation nor a float mask is kept.  The dropout draw gives the
    bits of ``nprng.random(shape) >= dropout`` (``_draw_keep``).

    Pooling is a product with a sparse B x n matrix of ones, one row per
    graph.  It adds each graph's rows left to right from 0.0, whatever
    else the batch holds, so a graph pools to the same floats alone as
    in any batch.
    """
    cfg = model.config
    w = model.weights
    dtype = A.dtype
    n = X.shape[0]
    H = ((np.log1p(X) - model.feature_mu) / model.feature_sigma).astype(dtype, copy=False)
    cache: dict = {} if buffers is None else {"A": A, "S": [], "mask": [], "scale": [], "buffers": buffers}
    for layer in range(1, cfg.layers + 1):
        W, b = w[f"W{layer}"], w[f"b{layer}"]
        if buffers is None:
            S = _aggregate(A, H)
            H = _layer(S, W, b)
        else:
            S = _aggregate(A, H, buffers.S[layer - 1][:n])
            H = _layer(S, W, b, buffers.H[:n])
        scale = None
        if nprng is not None and cfg.dropout > 0.0 and layer < cfg.layers:
            keep = buffers.mask[layer - 1][:n]
            _draw_keep(nprng, cfg.dropout, keep, buffers.draw)
            # keep is 0 or 1, so (H * keep) * scale is the float H * (keep * scale)
            H *= keep
            scale = 1.0 / (1.0 - cfg.dropout)
            H *= scale
        if buffers is not None:
            cache["S"].append(S)
            cache["mask"].append(np.greater(H, 0.0, out=buffers.mask[layer - 1][:n]))
            cache["scale"].append(scale)
    ends = np.cumsum(counts)
    indptr = np.concatenate([[0], ends]).astype(np.int32)
    pool = sparse.csr_matrix(
        (np.ones(n, dtype=dtype), np.arange(n, dtype=np.int32), indptr), shape=(len(counts), n)
    )
    means = (pool @ H) / counts[:, None].astype(dtype)
    zg = means @ w["wg"] + w["bg"][0]
    zn = H @ w["wn"] + w["bn"][0]
    if buffers is not None:
        cache["H_last"] = H
    cache.update(
        {
            "counts": counts,
            "starts": ends - counts,
            "means": means,
            "zg": zg,
            "zn": zn,
            "graph_probs": expit(zg),
            "node_scores": expit(zn),
        }
    )
    return cache


def _batch_of_one(model: GcnModel, graph: CodeGraph, label: float = 0.0, split: int | None = None):
    return _assemble_batch([_sample_tensors(graph, model.config, label, split)])


def forward(model: GcnModel, graph: CodeGraph) -> ForwardResult:
    """Inference-mode refactor probability and per-node split scores of one
    graph, from the same batched pass that ``predict_graphs`` runs."""
    X, A, counts, _, _ = _batch_of_one(model, graph)
    cache = _forward_full(model, X, A, counts)
    return ForwardResult(
        graph_prob=float(cache["graph_probs"][0]),
        node_scores=cache["node_scores"].copy(),
    )


# --- loss and backward ---------------------------------------------------------------

def _bce_logits(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """BCE of sigmoid(z) against t, computed as softplus(z) - t*z.

    The logit form never subtracts a probability from 1, so it stays
    exact for saturated scores where -log(1 - sigmoid(z)) would lose all
    precision to cancellation; its derivative is exactly sigmoid(z) - t.
    """
    return np.logaddexp(0.0, z) - t * z


def _loss_from_cache(cache: dict, labels: np.ndarray, split_labels: list[int | None]) -> float:
    """Mean over graphs of BCE(graph) + mean-over-nodes BCE(node one-hot)."""
    starts = cache["starts"]
    counts = cache["counts"]
    total = float(_bce_logits(cache["zg"], labels).sum())
    for g, split in enumerate(split_labels):
        if split is None:
            continue
        lo = int(starts[g])
        n = int(counts[g])
        zn = cache["zn"][lo : lo + n]
        target = np.zeros(n)
        target[split] = 1.0
        total += float(_bce_logits(zn, target).mean())
    return total / len(labels)


def _backward_from_cache(
    model: GcnModel,
    cache: dict,
    labels: np.ndarray,
    split_labels: list[int | None],
) -> dict[str, np.ndarray]:
    """Gradients of the batch loss for every parameter, from a cached pass.

    The node-sized arrays are rows of the pass's buffers, each written with
    ``out=``: dH, and as scratch the last H once the node head's gradient
    has read it and each layer's S once its weight gradient has.  So the
    pass consumes its cache, and a second call on it raises
    ``InvariantError``.  Only the gradients themselves, of parameter size,
    are fresh arrays.
    """
    S = cache.pop("S", None)
    if S is None:
        raise InvariantError("a cached pass feeds one backward pass, which overwrites its S")
    cfg = model.config
    w = model.weights
    counts = cache["counts"]
    starts = cache["starts"]
    B = len(labels)
    H_last = cache["H_last"]
    # every array made here takes the activations' dtype: one float64
    # operand would silently upcast each product after it
    dtype = H_last.dtype
    n_total = H_last.shape[0]
    dH = cache["buffers"].dH[:n_total]

    dzg = (cache["graph_probs"] - labels.astype(dtype)) / B
    dmeans = np.outer(dzg, w["wg"])
    grads: dict[str, np.ndarray] = {
        "wg": cache["means"].T @ dzg,
        "bg": np.array([dzg.sum()]),
    }
    # each graph's rows repeat its row of the pooled gradient; mode "clip"
    # writes straight into dH, where "raise" would go through a copy
    graph_of_row = np.repeat(np.arange(B), counts)
    np.take(dmeans / counts[:, None].astype(dtype), graph_of_row, axis=0, out=dH, mode="clip")

    dzn = np.zeros(n_total, dtype=dtype)
    for g, split in enumerate(split_labels):
        if split is None:
            continue
        lo = int(starts[g])
        n = int(counts[g])
        target = np.zeros(n, dtype=dtype)
        target[split] = 1.0
        dzn[lo : lo + n] = (cache["node_scores"][lo : lo + n] - target) / (n * B)
    grads["wn"] = H_last.T @ dzn
    grads["bn"] = np.array([dzn.sum()])
    dH += np.multiply(dzn[:, None], w["wn"], out=H_last)  # np.outer(dzn, wn)

    for layer in range(cfg.layers, 0, -1):
        scale = cache["scale"][layer - 1]
        # dH becomes dZ in place.  H > 0 is the kept-and-active mask: the
        # same bits as multiplying by the dropout mask and then by Z > 0,
        # down to the signs of zeros
        if scale is not None:
            dH *= scale
        dH *= cache["mask"][layer - 1]
        grads[f"W{layer}"] = S[layer - 1].T @ dH
        grads[f"b{layer}"] = dH.sum(axis=0)
        if layer > 1:  # nothing reads the gradient of the input features
            # A is symmetric, so A.T @ (dZ @ W.T) is A @ (dZ @ W.T); this
            # layer's S, read for the last time above, holds dZ @ W.T
            _aggregate(cache["A"], np.matmul(dH, w[f"W{layer}"].T, out=S[layer - 1]), dH)
    return grads


def _one_sample(model: GcnModel, graph: CodeGraph, label: int, split_label: int | None):
    """A batch of one sample, and a function that runs its cached
    inference-mode pass into buffers made once for it."""
    X, A, counts, labels, splits = _batch_of_one(model, graph, float(label), split_label)
    buffers = _PassBuffers(model.config, X.shape[0], A.dtype)
    return (lambda: _forward_full(model, X, A, counts, buffers=buffers)), labels, splits


def backward(
    model: GcnModel, graph: CodeGraph, label: int, split_label: int | None = None
) -> dict[str, np.ndarray]:
    """Inference-mode gradients of one sample's loss for every parameter,
    from the same batched pass that training runs."""
    run, labels, splits = _one_sample(model, graph, label, split_label)
    return _backward_from_cache(model, run(), labels, splits)


def sample_loss(
    model: GcnModel, graph: CodeGraph, label: int, split_label: int | None = None
) -> float:
    """Inference-mode loss of one sample."""
    run, labels, splits = _one_sample(model, graph, label, split_label)
    return _loss_from_cache(run(), labels, splits)


def gradient_check(
    model: GcnModel,
    graph: CodeGraph,
    label: int,
    split_label: int | None = None,
    step: float = 1e-6,
) -> float:
    """Max relative error between analytic and central-difference gradients
    of one sample's inference-mode loss (``backward`` and ``sample_loss``,
    with the sample's tensors built once)."""
    run, labels, splits = _one_sample(model, graph, label, split_label)

    def loss() -> float:
        return _loss_from_cache(run(), labels, splits)

    analytic = _backward_from_cache(model, run(), labels, splits)
    worst = 0.0
    for name in model.param_names():
        param = model.weights[name]
        flat = param.reshape(-1)
        grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss()
            flat[i] = keep - step
            down = loss()
            flat[i] = keep
            fd = (up - down) / (2.0 * step)
            denom = max(abs(fd), abs(grad[i]), 1e-6)
            worst = max(worst, abs(fd - grad[i]) / denom)
    return worst


# --- training --------------------------------------------------------------------------


@dataclass
class _SampleTensors:
    X: np.ndarray
    A: sparse.csr_matrix
    label: float
    split: int | None


def _sample_tensors(graph: CodeGraph, config: GcnConfig, label: float, split: int | None) -> _SampleTensors:
    return _SampleTensors(
        X=_node_matrix(graph, config.input_dim),
        A=aggregation_matrix(graph),
        label=label,
        split=split,
    )


def _assemble_batch(tensors: list[_SampleTensors]):
    counts = np.array([t.X.shape[0] for t in tensors], dtype=np.int64)
    labels = np.array([t.label for t in tensors], dtype=np.float64)
    splits = [t.split for t in tensors]
    if len(tensors) == 1:  # a batch of one is its sample, as it is
        return tensors[0].X, tensors[0].A, counts, labels, splits
    nnz = np.array([t.A.nnz for t in tensors], dtype=np.int64)
    # the block-diagonal stack of the CSR matrices, joined array by array:
    # sparse.block_diag converts every block and takes ten times as long
    indptr = np.concatenate([[0]] + [t.A.indptr[1:] + o for t, o in zip(tensors, np.cumsum(nnz) - nnz)])
    indices = np.concatenate([t.A.indices + o for t, o in zip(tensors, np.cumsum(counts) - counts)])
    n = int(counts.sum())
    A = sparse.csr_matrix((np.concatenate([t.A.data for t in tensors]), indices, indptr), shape=(n, n))
    X = np.vstack([t.X for t in tensors])
    return X, A, counts, labels, splits


@dataclass
class TrainHistory:
    epochs: list[dict] = field(default_factory=list)


def _accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    preds = (probs > 0.5).astype(np.float64)
    return float((preds == labels).mean())


def train(model: GcnModel, dataset, config: TrainConfig) -> tuple[GcnModel, TrainHistory]:
    """Mini-batch Adam over the dataset's train split.

    ``dataset`` needs ``samples`` (each with graph, label, split_node) and
    a ``split`` mapping with a "train" index list; a validation slice is
    carved off the train split, and the test split is never touched.
    """
    samples = getattr(dataset, "samples", None)
    split = getattr(dataset, "split", None)
    if not samples or not split or not split.get("train"):
        raise EmptyDatasetError("training requires a dataset with a train split")
    rng = Rng(config.seed)
    train_idx = list(split["train"])
    rng.shuffle(train_idx)
    n_val = int(len(train_idx) * VAL_FRACTION)
    if len(train_idx) >= 2 and n_val == 0:
        n_val = 1
    val_idx = train_idx[:n_val]
    fit_idx = train_idx[n_val:]
    if not fit_idx:
        fit_idx, val_idx = val_idx, []

    cfg = model.config
    # fit input standardization on the training nodes (log1p space);
    # constant columns keep sigma 1 so they pass through centered
    all_train = np.vstack(
        [np.log1p(_node_matrix(samples[i].graph, cfg.input_dim)) for i in fit_idx]
    )
    mu = all_train.mean(axis=0)
    sigma = all_train.std(axis=0)
    sigma = np.where(sigma < 1e-8, 1.0, sigma)
    model.feature_mu = mu
    model.feature_sigma = sigma

    # the step's one dtype: its products take about half the float64
    # time, while Adam's moments and the master weights stay float64
    step_dtype = np.float32
    tensors = {
        i: _sample_tensors(
            samples[i].graph, cfg, float(samples[i].label), samples[i].split_node
        )
        for i in set(fit_idx) | set(val_idx)
    }
    for t in tensors.values():
        t.A = t.A.astype(step_dtype)

    def step_model() -> GcnModel:
        return replace(model, weights={k: v.astype(step_dtype) for k, v in model.weights.items()})

    nprng = np.random.default_rng(rng.next_u64())
    val_batch = _assemble_batch([tensors[i] for i in val_idx]) if val_idx else None
    # every batch and the validation pass are row prefixes of buffers that
    # fit the largest batch possible and the validation slice
    sizes = sorted((tensors[i].X.shape[0] for i in fit_idx), reverse=True)
    rows = sum(sizes[: config.batch_size])
    if val_batch is not None:
        rows = max(rows, val_batch[0].shape[0])
    buffers = _PassBuffers(cfg, rows, step_dtype)

    adam_m = {k: np.zeros_like(v) for k, v in model.weights.items()}
    adam_v = {k: np.zeros_like(v) for k, v in model.weights.items()}
    t_step = 0
    history = TrainHistory()

    for _epoch in range(config.epochs):
        order = list(fit_idx)
        rng.shuffle(order)
        losses: list[float] = []
        correct = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [tensors[i] for i in order[lo : lo + config.batch_size]]
            X, A, counts, labels, splits = _assemble_batch(batch)
            step = step_model()
            cache = _forward_full(step, X, A, counts, nprng, buffers)
            losses.append(_loss_from_cache(cache, labels, splits))
            correct += int(((cache["graph_probs"] > 0.5) == (labels > 0.5)).sum())
            grads = _backward_from_cache(step, cache, labels, splits)
            t_step += 1
            lr_t = config.learning_rate * math.sqrt(
                1.0 - ADAM_BETA2**t_step
            ) / (1.0 - ADAM_BETA1**t_step)
            for name in model.param_names():
                g = grads[name].astype(np.float64)
                adam_m[name] = ADAM_BETA1 * adam_m[name] + (1 - ADAM_BETA1) * g
                adam_v[name] = ADAM_BETA2 * adam_v[name] + (1 - ADAM_BETA2) * g * g
                model.weights[name] -= lr_t * adam_m[name] / (
                    np.sqrt(adam_v[name]) + ADAM_EPS
                )
        val_acc: float | None = None
        if val_batch is not None:
            X, A, counts, labels, _ = val_batch
            cache = _forward_full(step_model(), X, A, counts, buffers=buffers)
            val_acc = _accuracy(cache["graph_probs"], labels)
        history.epochs.append(
            {
                "train_loss": float(np.mean(losses)) if losses else 0.0,
                "train_acc": correct / len(order) if order else 0.0,
                "val_acc": val_acc,
            }
        )
    return model, history


def predict_graphs(model: GcnModel, graphs: Sequence[CodeGraph]) -> np.ndarray:
    """Inference-mode refactor probabilities for a sequence of graphs.

    The graphs run ``BATCH_SIZE`` at a time, each chunk's tensors built
    just before its pass, so memory does not grow with their number.  A
    graph scores the same floats in any chunk (see ``_forward_full``).
    """
    probs = [np.zeros(0, dtype=np.float64)]
    for lo in range(0, len(graphs), BATCH_SIZE):
        tensors = [_sample_tensors(g, model.config, 0.0, None) for g in graphs[lo : lo + BATCH_SIZE]]
        X, A, counts, _, _ = _assemble_batch(tensors)
        probs.append(_forward_full(model, X, A, counts)["graph_probs"])
    return np.concatenate(probs)


# --- split suggestion --------------------------------------------------------------------


def suggest_split(
    model: GcnModel, graph: CodeGraph, candidates: Sequence[int]
) -> SplitSuggestion:
    """Highest-scoring node among ``candidates``; ties go to the earliest.

    The caller passes the legal split points of the graph's source tree
    (``minipy.split.split_points``), in ascending id order.  One forward
    pass gives both the node scores and the graph's refactor probability.
    """
    result = forward(model, graph)
    if not candidates:
        return SplitSuggestion(
            node_id=None, score=0.0, eligible=False, graph_prob=result.graph_prob
        )
    scores = result.node_scores
    best = candidates[0]
    for c in candidates[1:]:
        if scores[c] > scores[best]:
            best = c
    return SplitSuggestion(
        node_id=best, score=float(scores[best]), eligible=True, graph_prob=result.graph_prob
    )


# --- checkpoints ------------------------------------------------------------------------


def _encode_array(array: np.ndarray) -> str:
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode("ascii")


def _decode_array(key: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """The writeable float64 array of ``shape`` that ``value`` encodes.

    The length is checked in Python ints before anything is decoded, so a
    config that implies a huge array costs nothing.  A string that
    decodes but does not re-encode to itself (stray bits in its last
    character) is not canonical and is refused.
    """
    if not isinstance(value, str):
        raise CheckpointError(f"checkpoint {key} must be a base64 string")
    size = 8 * math.prod(shape)
    if len(value) != 4 * -(-size // 3):
        raise CheckpointError(
            f"checkpoint {key} has wrong shape: {len(value)} base64 characters"
            f" do not hold the float64 values of {shape}"
        )
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise CheckpointError(f"checkpoint {key} is not base64: {exc}") from exc
    if len(raw) != size or base64.b64encode(raw).decode("ascii") != value:
        raise CheckpointError(f"checkpoint {key} is not canonical base64")
    array = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(array).all():
        raise CheckpointError(f"checkpoint {key} holds a value that is not finite")
    return array


def gcn_to_doc(model: GcnModel) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "kind": "gcn",
        "config": model.config.to_dict(),
        "feature_mu": _encode_array(model.feature_mu),
        "feature_sigma": _encode_array(model.feature_sigma),
        "weights": {k: _encode_array(v) for k, v in model.weights.items()},
    }


def gcn_from_doc(doc: dict) -> GcnModel:
    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError("bad GCN checkpoint version")
    if doc.get("kind") != "gcn":
        raise CheckpointError("checkpoint is not a GCN")
    check_fields(doc, _CHECKPOINT_KEYS, "GCN checkpoint", CheckpointError)
    raw_config, raw_weights = doc.get("config"), doc.get("weights")
    if not isinstance(raw_config, dict) or not isinstance(raw_weights, dict):
        raise CheckpointError("GCN checkpoint needs config and weights objects")
    try:
        config = GcnConfig(**raw_config)
    except (TypeError, DataError) as exc:
        raise CheckpointError(f"malformed GCN checkpoint: {exc}") from exc
    # counted before any per-layer work, which a huge layer count would make huge
    if len(raw_weights) != 2 * config.layers + 4:
        raise CheckpointError(f"checkpoint needs {2 * config.layers + 4} weight arrays")
    model = GcnModel(config=config, weights={})
    if set(raw_weights) != set(model.param_names()):
        raise CheckpointError(f"checkpoint weights must be exactly {model.param_names()}")
    d_in, units = config.input_dim, (config.units,)
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(1, config.layers + 1):
        shapes[f"W{layer}"], shapes[f"b{layer}"] = (d_in, config.units), units
        d_in = config.units
    shapes.update(wg=units, bg=(1,), wn=units, bn=(1,))
    for key, shape in shapes.items():
        model.weights[key] = _decode_array(key, raw_weights[key], shape)
    # W1's length has bounded input_dim by the document's own size; absent
    # standardization is the identity
    dim = (config.input_dim,)
    mu, sigma = (
        _decode_array(key, doc[key], dim) if key in doc else fill(dim)
        for key, fill in (("feature_mu", np.zeros), ("feature_sigma", np.ones))
    )
    if not np.all(sigma > 0):
        raise CheckpointError("checkpoint feature_sigma holds a value that is not positive")
    model.feature_mu, model.feature_sigma = mu, sigma
    return model
