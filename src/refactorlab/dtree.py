"""Binary decision tree on flat features, grown with Gini impurity.

Candidate thresholds are midpoints between consecutive distinct sorted
feature values; the best positive Gini gain wins, with ties broken by
lowest feature index then lowest threshold, so training is fully
deterministic.  Descent sends x[f] <= t to the left child.
"""

from __future__ import annotations

import reprlib
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import CheckpointError, DataError, EmptyInputError, check_fields, is_int, is_number

DEFAULT_MAX_DEPTH = 20
DEFAULT_MIN_SAMPLES_SPLIT = 5

CHECKPOINT_VERSION = "1"

_CHECKPOINT_KEYS = {"version", "kind", "params", "n_features", "nodes"}
_LEAF_KEYS = {"prob_refactor"}
_INTERNAL_KEYS = {"feature_index", "threshold", "left", "right"}


def gini(labels: Sequence[int]) -> float:
    """Gini impurity 1 - p0^2 - p1^2 of binary labels."""
    n = len(labels)
    if n == 0:
        raise EmptyInputError("gini of empty labels")
    ones = sum(1 for v in labels if v == 1)
    p1 = ones / n
    p0 = 1.0 - p1
    return 1.0 - p0 * p0 - p1 * p1


@dataclass
class DTreeParams:
    max_depth: int = DEFAULT_MAX_DEPTH
    min_samples_split: int = DEFAULT_MIN_SAMPLES_SPLIT

    def __post_init__(self) -> None:
        for name in ("max_depth", "min_samples_split"):
            value = getattr(self, name)
            if not is_int(value) or value < 0:
                raise DataError(f"{name} must be an integer >= 0, got {reprlib.repr(value)}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class DTreeModel:
    """Nodes in preorder: internal {feature_index, threshold, left, right} or
    leaf {prob_refactor}."""

    nodes: list[dict]
    params: DTreeParams
    n_features: int

    def depth(self) -> int:
        # one pass in node order, as children lie past their parent: a
        # recursive walk would overflow the stack on a loaded deep chain
        depths = [0] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            if "prob_refactor" not in node:
                depths[node["left"]] = depths[node["right"]] = depths[i] + 1
        return max(depths)


def _best_split(X: np.ndarray, y: np.ndarray) -> tuple[float, int, float] | None:
    """(gain, feature, threshold) of the best candidate, None if no gain > 0."""
    n = len(y)
    parent = gini(list(y))
    best: tuple[float, int, float] | None = None
    for f in range(X.shape[1]):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        vs = col[order]
        ys = y[order]
        ones_left = np.cumsum(ys)
        total_ones = ones_left[-1]
        for i in range(n - 1):
            if vs[i] == vs[i + 1]:
                continue
            t = (vs[i] + vs[i + 1]) / 2.0
            nl = i + 1
            nr = n - nl
            ol = int(ones_left[i])
            pl = ol / nl
            pr = (total_ones - ol) / nr
            gl = 1.0 - pl * pl - (1 - pl) * (1 - pl)
            gr = 1.0 - pr * pr - (1 - pr) * (1 - pr)
            gain = parent - (nl / n) * gl - (nr / n) * gr
            if gain > 0.0 and (best is None or gain > best[0]):
                best = (gain, f, t)
    return best


def train_dtree(
    X: Sequence[Sequence[float]],
    y: Sequence[int],
    params: DTreeParams | None = None,
) -> DTreeModel:
    """Grow a tree greedily; deterministic for given inputs."""
    params = params or DTreeParams()
    Xa = np.asarray(X, dtype=np.float64)
    ya = np.asarray(y, dtype=np.int64)
    if Xa.ndim != 2 or len(ya) != Xa.shape[0]:
        raise DataError("X must be n x d with one label per row")
    if Xa.shape[0] == 0:
        raise EmptyInputError("training on empty data")
    if not np.all(np.isfinite(Xa)):
        raise DataError("features must be finite")
    nodes: list[dict] = []

    def build(rows: np.ndarray, depth: int) -> int:
        idx = len(nodes)
        nodes.append({})
        ones = int(ya[rows].sum())
        n = len(rows)
        prob = ones / n
        stop = ones == 0 or ones == n or n < params.min_samples_split or depth >= params.max_depth
        split = None if stop else _best_split(Xa[rows], ya[rows])
        if split is None:
            nodes[idx] = {"prob_refactor": prob}
            return idx
        _, f, t = split
        mask = Xa[rows, f] <= t
        left = build(rows[mask], depth + 1)
        right = build(rows[~mask], depth + 1)
        nodes[idx] = {"feature_index": int(f), "threshold": float(t), "left": left, "right": right}
        return idx

    build(np.arange(len(ya)), 0)
    return DTreeModel(nodes=nodes, params=params, n_features=Xa.shape[1])


def predict_dtree(model: DTreeModel, x: Sequence[float]) -> float:
    """Leaf probability reached by threshold descent (x[f] <= t goes left)."""
    if len(x) != model.n_features:
        raise DataError(f"expected {model.n_features} features, got {len(x)}")
    node = model.nodes[0]
    while "prob_refactor" not in node:
        node = model.nodes[node["left"] if x[node["feature_index"]] <= node["threshold"] else node["right"]]
    return float(node["prob_refactor"])


def predict_batch(model: DTreeModel, X: Sequence[Sequence[float]]) -> np.ndarray:
    return np.array([predict_dtree(model, row) for row in X], dtype=np.float64)


# --- checkpoints ------------------------------------------------------------------


def dtree_to_doc(model: DTreeModel) -> dict:
    return {
        "version": CHECKPOINT_VERSION,
        "kind": "dtree",
        "params": model.params.to_dict(),
        "n_features": model.n_features,
        "nodes": model.nodes,
    }


def dtree_from_doc(doc: dict) -> DTreeModel:
    if not isinstance(doc, dict) or doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError("bad decision-tree checkpoint version")
    if doc.get("kind") != "dtree":
        raise CheckpointError("checkpoint is not a decision tree")
    check_fields(doc, _CHECKPOINT_KEYS, "decision-tree checkpoint", CheckpointError)
    raw_params, nodes, n_features = doc.get("params"), doc.get("nodes"), doc.get("n_features")
    if not isinstance(raw_params, dict) or not isinstance(nodes, list):
        raise CheckpointError("decision-tree checkpoint needs a params object and a nodes array")
    params_keys = set(DTreeParams().to_dict())
    check_fields(raw_params, params_keys, "decision-tree checkpoint params", CheckpointError)
    try:
        params = DTreeParams(
            max_depth=raw_params.get("max_depth"),
            min_samples_split=raw_params.get("min_samples_split"),
        )
    except DataError as exc:
        raise CheckpointError(f"malformed decision-tree checkpoint: {exc}") from exc
    if not is_int(n_features) or n_features < 1:
        raise CheckpointError(f"n_features must be an integer >= 1, got {reprlib.repr(n_features)}")
    if not nodes:
        raise CheckpointError("checkpoint has no nodes")
    count = len(nodes)
    parents = [0] * count
    for i, node in enumerate(nodes):
        is_leaf = isinstance(node, dict) and "prob_refactor" in node
        check_fields(node, _LEAF_KEYS if is_leaf else _INTERNAL_KEYS, f"node {i}", CheckpointError)
        if is_leaf:
            p = node["prob_refactor"]
            if not is_number(p) or not 0.0 <= p <= 1.0:
                raise CheckpointError(f"node {i} leaf probability {reprlib.repr(p)} outside [0,1]")
        elif set(node) == _INTERNAL_KEYS:
            f = node["feature_index"]
            if not is_int(f) or not 0 <= f < n_features:
                raise CheckpointError(f"node {i} feature index {reprlib.repr(f)} out of range")
            if not is_number(node["threshold"]):
                raise CheckpointError(f"node {i} threshold is not a finite number")
            for side in ("left", "right"):
                child = node[side]
                if not is_int(child) or not i < child < count:
                    raise CheckpointError(f"node {i} {side} child {reprlib.repr(child)} invalid")
                parents[child] += 1
        else:
            raise CheckpointError(f"node {i} is neither a leaf nor a complete internal node")
    # with children past their parents, one parent each makes a tree rooted at node 0
    for i in range(1, count):
        if parents[i] != 1:
            raise CheckpointError(f"node {i} is the child of {parents[i]} nodes, not of one")
    return DTreeModel(nodes=list(nodes), params=params, n_features=n_features)
