"""Scoring primitives and the three-model comparison report."""

from __future__ import annotations

import json

import numpy as np
import pytest

from refactorlab.dtree import DTreeParams, train_dtree
from refactorlab.errors import (
    DimensionMismatchError,
    EmptyInputError,
    NonPositiveBaseError,
    NoPositivesError,
)
from refactorlab.evalreport import (
    Confusion,
    compare,
    confusion,
    metric_drop,
    pr_curve,
    pr_points_to_csv,
    prf1,
    report_to_csv,
    report_to_json,
)
from refactorlab.gcn import GcnConfig, TrainConfig, init_model, train


# --- confusion and rates -----------------------------------------------------------


def test_confusion_counts_all_four_cells():
    c = confusion([1, 1, 0, 0], [1, 0, 0, 1])
    assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)
    assert c.total == 4


def test_confusion_rejects_length_mismatch():
    with pytest.raises(DimensionMismatchError):
        confusion([1, 0], [1])


def test_prf1_balanced_case():
    rates = prf1(confusion([1, 1, 0, 0], [1, 0, 0, 1]))
    assert rates == {"accuracy": 0.5, "precision": 0.5, "recall": 0.5, "f1": 0.5}


def test_prf1_undefined_rates_are_none():
    # never predicts positive: precision undefined, recall zero, f1 undefined
    rates = prf1(confusion([0, 0, 0], [1, 0, 1]))
    assert rates["precision"] is None
    assert rates["recall"] == 0.0
    assert rates["f1"] is None
    # empty input: everything undefined
    empty = prf1(Confusion(tp=0, fp=0, tn=0, fn=0))
    assert all(v is None for v in empty.values())


def test_prf1_perfect_predictions():
    rates = prf1(confusion([1, 0, 1], [1, 0, 1]))
    assert rates == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0}


# --- precision-recall curve -----------------------------------------------------------


def test_pr_curve_three_point_hand_example():
    curve = pr_curve([0.9, 0.8, 0.3], [1, 0, 1])
    got = [(p.threshold, p.precision, p.recall) for p in curve.points]
    assert got[0] == (0.9, 1.0, 0.5)
    assert got[1] == (0.8, 0.5, 0.5)
    assert got[2][0] == 0.3
    assert got[2][1] == pytest.approx(2 / 3, abs=1e-15)
    assert got[2][2] == 1.0
    # trapezoid anchored at (0, first precision): 1/2 + 7/24
    assert abs(curve.auc - 19 / 24) <= 1e-12


def test_pr_curve_perfect_separation_has_unit_auc():
    curve = pr_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert abs(curve.auc - 1.0) <= 1e-12


def test_pr_curve_groups_tied_scores():
    curve = pr_curve([0.5, 0.5, 0.2], [1, 0, 1])
    assert len(curve.points) == 2
    assert curve.points[0].precision == 0.5
    assert curve.points[0].recall == 0.5


def test_pr_curve_input_validation():
    with pytest.raises(EmptyInputError):
        pr_curve([], [])
    with pytest.raises(NoPositivesError):
        pr_curve([0.4, 0.6], [0, 0])
    with pytest.raises(DimensionMismatchError):
        pr_curve([0.4], [1, 0])


def test_pr_curve_constant_scores_single_point():
    curve = pr_curve([0.7, 0.7, 0.7, 0.7], [1, 0, 1, 0])
    assert len(curve.points) == 1
    assert curve.points[0].recall == 1.0
    assert curve.points[0].precision == 0.5
    assert curve.auc == pytest.approx(0.5)


# --- metric drop ------------------------------------------------------------------------


def test_metric_drop_by_hand():
    assert metric_drop(12.0, 8.0) == pytest.approx(100.0 / 3.0)
    assert metric_drop(10.0, 10.0) == 0.0
    assert metric_drop(5.0, 0.0) == 100.0
    assert metric_drop(4.0, 5.0) == -25.0  # regressions come out negative


def test_metric_drop_rejects_non_positive_base():
    with pytest.raises(NonPositiveBaseError):
        metric_drop(0.0, 1.0)
    with pytest.raises(NonPositiveBaseError):
        metric_drop(-3.0, 1.0)


# --- comparison report --------------------------------------------------------------------


@pytest.fixture(scope="module")
def report(small_dataset):
    train_idx = small_dataset.split["train"]
    X = [small_dataset.samples[i].flat.values for i in train_idx]
    y = [small_dataset.samples[i].label for i in train_idx]
    dtree = train_dtree(X, y, DTreeParams(max_depth=6, min_samples_split=2))
    model = init_model(8, GcnConfig(layers=4, units=16, dropout=0.0))
    gcn, _ = train(model, small_dataset, TrainConfig(epochs=4, seed=8))
    return compare(small_dataset, dtree, gcn)


def test_compare_covers_all_three_models(report, small_dataset):
    assert sorted(report.models) == ["dtree", "gnn", "rules"]
    n_test = len(small_dataset.split["test"])
    for ev in report.models.values():
        assert ev.confusion.total == n_test
        assert 0.0 <= ev.pr.auc <= 1.0
        assert ev.n_split_applied >= 0
        if ev.n_split_applied == 0:
            assert ev.complexity_drop_pct is None
    assert report.corpus["n_test"] == n_test
    assert report.corpus["provenance"] == small_dataset.provenance.to_doc()
    assert report.seed == small_dataset.seed


def test_report_json_is_canonical(report):
    text = report_to_json(report)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["version"] == "1"
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == text
    for name in ("rules", "dtree", "gnn"):
        model = doc["models"][name]
        assert set(model) >= {"confusion", "f1", "pr_auc", "pr_points"}


def test_report_csv_layout(report):
    text = report_to_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "model,accuracy,precision,recall,f1,complexity_drop,coupling_drop"
    assert [row.split(",")[0] for row in lines[1:]] == ["rules", "dtree", "gnn"]
    assert len(lines) == 4


def test_pr_points_csv_matches_curve(report):
    text = pr_points_to_csv(report, "gnn")
    lines = text.strip().split("\n")
    assert lines[0] == "threshold,precision,recall"
    assert len(lines) == 1 + len(report.models["gnn"].pr.points)
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(report.models["gnn"].pr.points[0].precision, abs=1e-6)


def test_compare_is_deterministic(report, small_dataset):
    train_idx = small_dataset.split["train"]
    X = [small_dataset.samples[i].flat.values for i in train_idx]
    y = [small_dataset.samples[i].label for i in train_idx]
    dtree = train_dtree(X, y, DTreeParams(max_depth=6, min_samples_split=2))
    model = init_model(8, GcnConfig(layers=4, units=16, dropout=0.0))
    gcn, _ = train(model, small_dataset, TrainConfig(epochs=4, seed=8))
    assert report_to_json(compare(small_dataset, dtree, gcn)) == report_to_json(report)


def test_compare_replays_splits_on_the_kept_trees(monkeypatch, small_dataset):
    # the samples' trees were parsed when the dataset was read; compare's
    # only parses are the ones each applied split makes of its result
    import refactorlab.evalreport as evalreport
    import refactorlab.minipy.parser as parser

    calls = {"parse": 0, "extract_split": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(parser, "parse", counted("parse", parser.parse))
    monkeypatch.setattr(evalreport, "extract_split", counted("extract_split", evalreport.extract_split))
    train_idx = small_dataset.split["train"]
    dtree = train_dtree(
        [small_dataset.samples[i].flat.values for i in train_idx],
        [small_dataset.samples[i].label for i in train_idx],
        DTreeParams(max_depth=6, min_samples_split=2),
    )
    compare(small_dataset, dtree, init_model(8, GcnConfig(layers=4, units=16, dropout=0.0)))
    assert calls["extract_split"] > 0
    assert calls["parse"] == calls["extract_split"]


def test_rules_scores_are_binary(report):
    thresholds = {p.threshold for p in report.models["rules"].pr.points}
    assert thresholds <= {0.0, 1.0}
