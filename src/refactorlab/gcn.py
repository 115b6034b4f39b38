"""Graph convolutional network with handwritten backpropagation.

Each layer computes h_v = ReLU(W . sum_{u in N(v)} g_vu h_u + b): a gated
sum over neighbors with no degree normalization.  Neighborhoods are
undirected and include a self-loop with unit gate; every other gate g_vu
is the summed strength feature of the edges between u and v.
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
aggregation and small-range features stay visible to the optimizer.

A training step keeps only what its backward pass reads.  Per layer the
forward cache holds the aggregated input S and the output H after ReLU and
dropout, written in place, plus the dropout scale: H > 0 is exactly the
kept-and-active mask, so the pre-activation and a float dropout mask are
never stored, and the backward pass stops at layer 1's weights, since
nothing reads the gradient of the input features.  Graph pooling keeps
``np.add.reduceat`` because a faster pooling matrix product rounds
differently (see ``_forward_full``).

Everything is float64 numpy with a fixed reduction order, so a fixed seed
reproduces training bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.special import expit

from .errors import (
    CheckpointError,
    DataError,
    DimensionMismatchError,
    EmptyDatasetError,
)
from .graph import EDGE_STRENGTH, CodeGraph
from .rng import Rng

CHECKPOINT_VERSION = "2"

# Adam moment decays and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# share of the train split held out to report validation accuracy
VAL_FRACTION = 0.1


@dataclass(frozen=True)
class GcnConfig:
    layers: int = 4
    units: int = 128
    dropout: float = 0.4
    input_dim: int = 12

    def __post_init__(self) -> None:
        for name in ("layers", "units", "input_dim"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise DataError(f"{name} must be an integer >= 1, got {value!r}")
        d = self.dropout
        if isinstance(d, bool) or not isinstance(d, (int, float)) or not 0.0 <= d < 1.0:
            raise DataError(f"dropout must be a number in [0, 1), got {d!r}")

    def to_dict(self) -> dict:
        return {
            "layers": self.layers,
            "units": self.units,
            "dropout": self.dropout,
            "input_dim": self.input_dim,
        }


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.0005
    epochs: int = 75
    batch_size: int = 128
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise DataError(f"{name} must be an integer >= 1, got {value!r}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0.0 < lr < math.inf:
            raise DataError(f"learning_rate must be a finite number > 0, got {lr!r}")


@dataclass
class GcnModel:
    config: GcnConfig
    weights: dict[str, np.ndarray]
    # per-feature input standardization constants, fitted on the train
    # split and frozen into the checkpoint; identity until trained
    feature_mu: np.ndarray = field(default_factory=lambda: np.zeros(12, dtype=np.float64))
    feature_sigma: np.ndarray = field(default_factory=lambda: np.ones(12, dtype=np.float64))

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
    """Sparse gate matrix A: A[v, u] is the summed strength of the edges
    between u and v, in either orientation, and each diagonal entry adds a
    unit self-loop.  Every edge enters both orientations, so A is symmetric.

    Each entry is summed in edge order with the self-loop last, a fixed
    float reduction order that keeps training reproducible bit for bit:
    ``np.bincount`` adds its weights in input order, starting from 0.0.
    The matrix is canonical CSR (sorted indices, no duplicates), so a
    product with it sums each row's terms in column order.
    """
    n = len(graph.nodes)
    m = len(graph.edges)
    ends = np.fromiter(
        (v for e in graph.edges for v in (e.dst, e.src)), dtype=np.int64, count=2 * m
    ).reshape(m, 2)
    strength = np.fromiter(
        (e.features[EDGE_STRENGTH] for e in graph.edges), dtype=np.float64, count=m
    )
    diag = np.arange(n, dtype=np.int64)
    # per edge the (dst, src) entry, then the (src, dst) one; self-loops last
    rows = np.concatenate([ends.reshape(-1), diag])
    cols = np.concatenate([ends[:, ::-1].reshape(-1), diag])
    weights = np.concatenate([np.repeat(strength, 2), np.ones(n)])
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    data = np.bincount(slot, weights)
    # int32 index arrays, the dtype scipy would pick, spare its constructor a scan
    indptr = np.searchsorted(keys, np.arange(0, n * n + 1, n)).astype(np.int32)
    return sparse.csr_matrix((data, (keys % n).astype(np.int32), indptr), shape=(n, n))


def _node_matrix(graph: CodeGraph, input_dim: int) -> np.ndarray:
    X = np.array([n.features for n in graph.nodes], dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != input_dim:
        raise DimensionMismatchError(
            f"node features must be {input_dim}-dim, got shape {X.shape}"
        )
    return X


# --- layer and forward ------------------------------------------------------------


def gcn_layer_forward(
    H: np.ndarray, neighbors: np.ndarray, W: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """One layer: row v = ReLU(sum of gated neighbor rows, mapped by W, + b).

    ``neighbors`` is the aggregation matrix (self-loops included).
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
    return np.maximum(neighbors @ H @ W + b, 0.0)


def _forward_full(
    model: GcnModel,
    X: np.ndarray,
    A: sparse.csr_matrix,
    counts: np.ndarray,
    nprng: np.random.Generator | None = None,
) -> dict:
    """Forward pass over a batch, caching what the backward pass reads.

    ``X`` and ``A`` stack the batch's graphs block-diagonally and
    ``counts`` gives each graph's node count.  Dropout is drawn from
    ``nprng`` when one is given (training) and skipped otherwise.

    Per layer the cache holds the aggregated input ``S``, the output ``H``
    after ReLU and dropout, and the dropout scale (None where no dropout
    ran).  That is all the backward pass needs: ``H > 0`` holds exactly
    where a unit was kept and its pre-activation was positive, so neither
    the pre-activation nor a float mask is kept.

    Pooling sums each graph's rows with ``np.add.reduceat``.  Its
    summation order is numpy's own (not a plain left-to-right sum), and a
    pooling matrix product, though many times faster, adds in yet another
    order: it rounds differently and would change the trained weights.
    """
    cfg = model.config
    w = model.weights
    H = (np.log1p(X) - model.feature_mu) / model.feature_sigma
    cache: dict = {"A": A, "S": [], "H": [], "scale": []}
    for layer in range(1, cfg.layers + 1):
        S = A @ H
        H = S @ w[f"W{layer}"]
        H += w[f"b{layer}"]
        np.maximum(H, 0.0, out=H)
        scale = None
        if nprng is not None and cfg.dropout > 0.0 and layer < cfg.layers:
            # keep is 0 or 1, so (H * keep) * scale is the float H * (keep * scale)
            H *= nprng.random(H.shape) >= cfg.dropout
            scale = 1.0 / (1.0 - cfg.dropout)
            H *= scale
        cache["S"].append(S)
        cache["H"].append(H)
        cache["scale"].append(scale)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    sums = np.add.reduceat(H, starts, axis=0)
    means = sums / counts[:, None]
    zg = means @ w["wg"] + w["bg"][0]
    zn = H @ w["wn"] + w["bn"][0]
    cache.update(
        {
            "counts": counts,
            "starts": starts,
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


def _forward_one(model: GcnModel, graph: CodeGraph) -> dict:
    """Inference-mode forward cache of one graph: a batch of one."""
    X, A, counts, _, _ = _batch_of_one(model, graph)
    return _forward_full(model, X, A, counts)


def forward(model: GcnModel, graph: CodeGraph) -> ForwardResult:
    """Inference-mode refactor probability and per-node split scores of one
    graph, from the same batched pass that ``predict_graphs`` runs."""
    cache = _forward_one(model, graph)
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
    cfg = model.config
    w = model.weights
    counts = cache["counts"]
    starts = cache["starts"]
    B = len(labels)
    H_final = cache["H"][-1]
    n_total = H_final.shape[0]

    dzg = (cache["graph_probs"] - labels) / B
    dmeans = np.outer(dzg, w["wg"])
    grads: dict[str, np.ndarray] = {
        "wg": cache["means"].T @ dzg,
        "bg": np.array([dzg.sum()]),
    }
    dH = np.repeat(dmeans / counts[:, None], counts, axis=0)

    dzn = np.zeros(n_total, dtype=np.float64)
    for g, split in enumerate(split_labels):
        if split is None:
            continue
        lo = int(starts[g])
        n = int(counts[g])
        target = np.zeros(n)
        target[split] = 1.0
        dzn[lo : lo + n] = (cache["node_scores"][lo : lo + n] - target) / (n * B)
    grads["wn"] = H_final.T @ dzn
    grads["bn"] = np.array([dzn.sum()])
    dH += np.outer(dzn, w["wn"])

    for layer in range(cfg.layers, 0, -1):
        scale = cache["scale"][layer - 1]
        # H > 0 is the kept-and-active mask: the same bits as multiplying
        # by the dropout mask and then by Z > 0, down to the signs of zeros
        dZ = dH if scale is None else dH * scale
        dZ *= cache["H"][layer - 1] > 0.0
        grads[f"W{layer}"] = cache["S"][layer - 1].T @ dZ
        grads[f"b{layer}"] = dZ.sum(axis=0)
        if layer > 1:  # nothing reads the gradient of the input features
            dH = cache["A"] @ (dZ @ w[f"W{layer}"].T)  # A is symmetric
    return grads


def backward(
    model: GcnModel, graph: CodeGraph, label: int, split_label: int | None = None
) -> dict[str, np.ndarray]:
    """Inference-mode gradients of one sample's loss for every parameter,
    from the same batched pass that training runs."""
    labels = np.array([float(label)])
    return _backward_from_cache(model, _forward_one(model, graph), labels, [split_label])


def sample_loss(
    model: GcnModel, graph: CodeGraph, label: int, split_label: int | None = None
) -> float:
    """Inference-mode loss of one sample."""
    labels = np.array([float(label)])
    return _loss_from_cache(_forward_one(model, graph), labels, [split_label])


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
    X, A, counts, labels, splits = _batch_of_one(model, graph, float(label), split_label)

    def loss() -> float:
        return _loss_from_cache(_forward_full(model, X, A, counts), labels, splits)

    analytic = _backward_from_cache(model, _forward_full(model, X, A, counts), labels, splits)
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

    tensors = {
        i: _sample_tensors(
            samples[i].graph, cfg, float(samples[i].label), samples[i].split_node
        )
        for i in set(fit_idx) | set(val_idx)
    }
    nprng = np.random.default_rng(rng.next_u64())

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
            cache = _forward_full(model, X, A, counts, nprng)
            losses.append(_loss_from_cache(cache, labels, splits))
            correct += int(((cache["graph_probs"] > 0.5) == (labels > 0.5)).sum())
            grads = _backward_from_cache(model, cache, labels, splits)
            t_step += 1
            lr_t = config.learning_rate * math.sqrt(
                1.0 - ADAM_BETA2**t_step
            ) / (1.0 - ADAM_BETA1**t_step)
            for name in model.param_names():
                g = grads[name]
                adam_m[name] = ADAM_BETA1 * adam_m[name] + (1 - ADAM_BETA1) * g
                adam_v[name] = ADAM_BETA2 * adam_v[name] + (1 - ADAM_BETA2) * g * g
                model.weights[name] -= lr_t * adam_m[name] / (
                    np.sqrt(adam_v[name]) + ADAM_EPS
                )
        val_acc: float | None = None
        if val_idx:
            vt = [tensors[i] for i in val_idx]
            X, A, counts, labels, _ = _assemble_batch(vt)
            cache = _forward_full(model, X, A, counts)
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
    """Inference-mode refactor probabilities for a batch of graphs."""
    if not graphs:
        return np.zeros(0, dtype=np.float64)
    tensors = [
        _sample_tensors(g, model.config, 0.0, None) for g in graphs
    ]
    X, A, counts, _, _ = _assemble_batch(tensors)
    cache = _forward_full(model, X, A, counts)
    return cache["graph_probs"].copy()


# --- split suggestion --------------------------------------------------------------------


def suggest_split(
    model: GcnModel, graph: CodeGraph, candidates: Sequence[int]
) -> SplitSuggestion:
    """Highest-scoring node among ``candidates``; ties go to the earliest.

    The caller passes the legal split points of the graph's source tree
    (``minipy.split.split_points``), in ascending id order.
    """
    if not candidates:
        return SplitSuggestion(node_id=None, score=0.0, eligible=False)
    scores = forward(model, graph).node_scores
    best = candidates[0]
    for c in candidates[1:]:
        if scores[c] > scores[best]:
            best = c
    return SplitSuggestion(node_id=best, score=float(scores[best]), eligible=True)


# --- checkpoints ------------------------------------------------------------------------


def gcn_to_doc(model: GcnModel) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "kind": "gcn",
        "config": model.config.to_dict(),
        "feature_mu": model.feature_mu.tolist(),
        "feature_sigma": model.feature_sigma.tolist(),
        "weights": {k: v.tolist() for k, v in model.weights.items()},
    }


def gcn_from_doc(doc: dict) -> GcnModel:
    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError("bad GCN checkpoint version")
    if doc.get("kind") != "gcn":
        raise CheckpointError("checkpoint is not a GCN")
    raw_config, raw_weights = doc.get("config"), doc.get("weights")
    if not isinstance(raw_config, dict) or not isinstance(raw_weights, dict):
        raise CheckpointError("GCN checkpoint needs config and weights objects")
    try:
        config = GcnConfig(**raw_config)
        weights = {k: np.array(v, dtype=np.float64) for k, v in raw_weights.items()}
        mu = np.array(doc.get("feature_mu", np.zeros(config.input_dim)), dtype=np.float64)
        sigma = np.array(doc.get("feature_sigma", np.ones(config.input_dim)), dtype=np.float64)
    except (TypeError, ValueError, DataError) as exc:
        raise CheckpointError(f"malformed GCN checkpoint: {exc}") from exc
    if mu.shape != (config.input_dim,) or sigma.shape != (config.input_dim,):
        raise CheckpointError("feature standardization has wrong shape")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma)) and np.all(sigma > 0)):
        raise CheckpointError("feature standardization is not finite and positive")
    model = GcnModel(config=config, weights=weights, feature_mu=mu, feature_sigma=sigma)
    if set(weights) != set(model.param_names()):
        raise CheckpointError(f"checkpoint weights must be exactly {model.param_names()}")
    d_in = config.input_dim
    for layer in range(1, config.layers + 1):
        W, b = weights[f"W{layer}"], weights[f"b{layer}"]
        if W.shape != (d_in, config.units) or b.shape != (config.units,):
            raise CheckpointError(f"layer {layer} weights have wrong shape")
        d_in = config.units
    for head in ("wg", "wn"):
        if weights[head].shape != (config.units,):
            raise CheckpointError(f"head {head} has wrong shape")
    for bias in ("bg", "bn"):
        if weights[bias].shape != (1,):
            raise CheckpointError(f"bias {bias} has wrong shape")
    if any(not np.all(np.isfinite(v)) for v in weights.values()):
        raise CheckpointError("checkpoint weights are not finite")
    return model
