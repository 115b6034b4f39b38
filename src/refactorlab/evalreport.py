"""Scoring and the three-way model comparison report.

Confusion counts, accuracy/precision/recall/F1 (undefined values are
reported as None, never silently zeroed), precision-recall curves with
trapezoidal AUC, percentage metric drops, and the comparison of the rule
engine, decision tree, and graph network on one shared test split —
including the complexity/coupling reduction each model's suggested
refactorings would achieve.
"""

from __future__ import annotations

import functools
import io
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import Dataset
from .dtree import DTreeModel, predict_batch
from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonPositiveBaseError,
    NoPositivesError,
)
from .gcn import GcnModel, predict_graphs, suggest_split
from .metrics import coupling, cyclomatic
from .minipy.split import extract_split, split_points
from .rules import classify_rules_graph

REPORT_VERSION = "1"


# --- confusion and rates -----------------------------------------------------


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def confusion(preds: Sequence[int], labels: Sequence[int]) -> Confusion:
    """Standard counts; predictions and labels must align."""
    if len(preds) != len(labels):
        raise DimensionMismatchError(
            f"{len(preds)} predictions vs {len(labels)} labels"
        )
    tp = fp = tn = fn = 0
    for p, y in zip(preds, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == 0:
            fp += 1
        elif p == 0 and y == 0:
            tn += 1
        else:
            fn += 1
    return Confusion(tp=tp, fp=fp, tn=tn, fn=fn)


def prf1(c: Confusion) -> dict[str, float | None]:
    """Accuracy, precision, recall, F1; undefined ratios come back None."""
    total = c.total
    accuracy = (c.tp + c.tn) / total if total > 0 else None
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    f1: float | None = None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"accuracy": accuracy, "precision": precision, "recall": recall, "f1": f1}


# --- precision-recall curve ----------------------------------------------------


@dataclass(frozen=True)
class PrPoint:
    threshold: float
    precision: float
    recall: float

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "precision": self.precision,
            "recall": self.recall,
        }


@dataclass(frozen=True)
class PrCurve:
    points: tuple[PrPoint, ...]
    auc: float


def pr_curve(scores: Sequence[float], labels: Sequence[int]) -> PrCurve:
    """Precision-recall sweep over every distinct score, descending.

    Tied scores collapse into a single threshold.  AUC is the trapezoid
    over recall, anchored at (recall 0, precision of the first point).
    """
    if len(scores) != len(labels):
        raise DimensionMismatchError(f"{len(scores)} scores vs {len(labels)} labels")
    if len(scores) == 0:
        raise EmptyInputError("pr_curve needs at least one sample")
    n_pos = sum(1 for y in labels if y == 1)
    if n_pos == 0:
        raise NoPositivesError("pr_curve needs at least one positive label")

    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    points: list[PrPoint] = []
    tp = fp = 0
    i = 0
    while i < len(order):
        t = scores[order[i]]
        while i < len(order) and scores[order[i]] == t:
            if labels[order[i]] == 1:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append(
            PrPoint(threshold=t, precision=tp / (tp + fp), recall=tp / n_pos)
        )
    auc = 0.0
    prev_r, prev_p = 0.0, points[0].precision
    for pt in points:
        auc += (pt.recall - prev_r) * (pt.precision + prev_p) / 2.0
        prev_r, prev_p = pt.recall, pt.precision
    return PrCurve(points=tuple(points), auc=auc)


def metric_drop(pre: float, post: float) -> float:
    """Percentage reduction from pre to post; pre must be positive."""
    if pre <= 0:
        raise NonPositiveBaseError(f"drop from non-positive base {pre}")
    return 100.0 * (pre - post) / pre


# --- model comparison -----------------------------------------------------------


@dataclass
class ModelEval:
    name: str
    confusion: Confusion
    rates: dict[str, float | None]
    pr: PrCurve
    complexity_drop_pct: float | None
    coupling_drop_pct: float | None
    n_split_applied: int

    def to_dict(self) -> dict:
        return {
            "confusion": self.confusion.to_dict(),
            "accuracy": self.rates["accuracy"],
            "precision": self.rates["precision"],
            "recall": self.rates["recall"],
            "f1": self.rates["f1"],
            "pr_auc": self.pr.auc,
            "complexity_drop_pct": self.complexity_drop_pct,
            "coupling_drop_pct": self.coupling_drop_pct,
            "n_split_applied": self.n_split_applied,
            "pr_points": [p.to_dict() for p in self.pr.points],
        }


@dataclass
class ComparisonReport:
    seed: int
    corpus: dict
    models: dict[str, ModelEval]

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "seed": self.seed,
            "corpus": self.corpus,
            "models": {name: ev.to_dict() for name, ev in self.models.items()},
        }


def _drop_stats(
    measured: Callable[[int, int | None], tuple[float, float]],
    points: dict[int, list[int]],
    preds: np.ndarray,
    split_for: dict[int, int | None],
) -> tuple[float | None, float | None, int]:
    """Mean complexity/coupling drops over predicted-refactor samples.

    ``points`` holds the legal split points of each test sample that has
    source text, by position, and ``measured(pos, node_id)`` gives that
    sample's (max function cyclomatic, coupling) after the split at
    ``node_id``, or before any split when ``node_id`` is None.
    ``split_for`` maps sample position to the node id to split at (the
    model's suggestion, or the labeled oracle split).  Samples without
    source text, without a legal split, or with a zero pre-metric are
    skipped; None means no sample could be processed at all.
    """
    pre_cc: list[float] = []
    post_cc: list[float] = []
    pre_cp: list[float] = []
    post_cp: list[float] = []
    applied = 0
    for pos, legal in points.items():
        node_id = split_for.get(pos)
        if preds[pos] != 1 or node_id not in legal:
            continue
        cc, cp = measured(pos, None)
        pre_cc.append(cc)
        pre_cp.append(cp)
        cc, cp = measured(pos, node_id)
        post_cc.append(cc)
        post_cp.append(cp)
        applied += 1
    cc_drop: float | None = None
    cp_drop: float | None = None
    if pre_cc and float(np.mean(pre_cc)) > 0:
        cc_drop = metric_drop(float(np.mean(pre_cc)), float(np.mean(post_cc)))
    if pre_cp and float(np.mean(pre_cp)) > 0:
        cp_drop = metric_drop(float(np.mean(pre_cp)), float(np.mean(post_cp)))
    return cc_drop, cp_drop, applied


def compare(dataset: Dataset, dtree: DTreeModel, gcn: GcnModel) -> ComparisonReport:
    """Evaluate rules, tree, and network on the dataset's test split."""
    test_idx = list(dataset.split["test"])
    samples = [dataset.samples[i] for i in test_idx]
    labels = [s.label for s in samples]

    rules_preds = np.array(
        [classify_rules_graph(s.graph, s.flat) for s in samples], dtype=np.int64
    )
    rules_scores = rules_preds.astype(np.float64)

    X = np.array([s.flat.values for s in samples], dtype=np.float64)
    dtree_scores = predict_batch(dtree, X)
    dtree_preds = (dtree_scores >= 0.5).astype(np.int64)

    gcn_scores = predict_graphs(gcn, [s.graph for s in samples])
    gcn_preds = (gcn_scores >= 0.5).astype(np.int64)

    # splits are replayed on the trees parsed when the samples were read;
    # oversampled copies carry none
    trees = {pos: s.tree for pos, s in enumerate(samples) if s.tree is not None}
    points = {pos: split_points(tree) for pos, tree in trees.items()}

    # each sample's metrics, and each distinct split of it, are computed
    # once and shared by the three models
    @functools.cache
    def measured(pos: int, node_id: int | None) -> tuple[float, float]:
        tree = trees[pos] if node_id is None else extract_split(trees[pos], node_id)
        cc = max((cyclomatic(f) for f in tree.functions()), default=0)
        return float(cc), float(coupling(tree))

    # labeled splits serve as the oracle for models that cannot localize
    oracle_split = {pos: s.split_node for pos, s in enumerate(samples)}
    gcn_split = {
        pos: suggest_split(gcn, samples[pos].graph, points[pos]).node_id
        for pos in trees
        if gcn_preds[pos] == 1
    }

    models: dict[str, ModelEval] = {}
    for name, preds, scores, split_for in (
        ("rules", rules_preds, rules_scores, oracle_split),
        ("dtree", dtree_preds, dtree_scores, oracle_split),
        ("gnn", gcn_preds, gcn_scores, gcn_split),
    ):
        conf = confusion(list(preds), labels)
        curve = pr_curve(list(float(v) for v in scores), labels)
        cc_drop, cp_drop, applied = _drop_stats(measured, points, preds, split_for)
        models[name] = ModelEval(
            name=name,
            confusion=conf,
            rates=prf1(conf),
            pr=curve,
            complexity_drop_pct=cc_drop,
            coupling_drop_pct=cp_drop,
            n_split_applied=applied,
        )

    corpus = {
        "n_samples": len(dataset.samples),
        "n_train": len(dataset.split["train"]),
        "n_test": len(test_idx),
        "provenance": dataset.provenance.to_doc(),
    }
    return ComparisonReport(seed=dataset.seed, corpus=corpus, models=models)


# --- serialization ---------------------------------------------------------------


def report_to_json(report: ComparisonReport) -> str:
    """Canonical JSON: fixed key order, trailing newline, byte-stable."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def _fmt(value: float | None, decimals: int) -> str:
    if value is None:
        return ""
    return f"{value:.{decimals}f}"


def report_to_csv(report: ComparisonReport) -> str:
    """Summary table: one row per model, drops at one decimal."""
    out = io.StringIO()
    out.write("model,accuracy,precision,recall,f1,complexity_drop,coupling_drop\n")
    for name in ("rules", "dtree", "gnn"):
        ev = report.models[name]
        out.write(
            ",".join(
                [
                    name,
                    _fmt(ev.rates["accuracy"], 4),
                    _fmt(ev.rates["precision"], 4),
                    _fmt(ev.rates["recall"], 4),
                    _fmt(ev.rates["f1"], 4),
                    _fmt(ev.complexity_drop_pct, 1),
                    _fmt(ev.coupling_drop_pct, 1),
                ]
            )
            + "\n"
        )
    return out.getvalue()


def pr_points_to_csv(report: ComparisonReport, model: str) -> str:
    """Curve points for one model as threshold,precision,recall rows."""
    ev = report.models[model]
    out = io.StringIO()
    out.write("threshold,precision,recall\n")
    for pt in ev.pr.points:
        out.write(f"{pt.threshold:.6f},{pt.precision:.6f},{pt.recall:.6f}\n")
    return out.getvalue()
