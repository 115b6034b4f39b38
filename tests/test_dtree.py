"""Gini decision tree: impurity, splits, stopping rules, and checkpoints."""

from __future__ import annotations

import numpy as np
import pytest

from refactorlab.dtree import (
    DTreeModel,
    DTreeParams,
    dtree_from_doc,
    dtree_to_doc,
    gini,
    predict_batch,
    predict_dtree,
    train_dtree,
)
from refactorlab.errors import DataError, EmptyInputError, SchemaError
from refactorlab.rng import Rng

# An exactly separable two-feature problem: label is 1 iff x0 > 2.
SEP_X = [[1.0, 5.0], [2.0, 1.0], [3.0, 4.0], [4.0, 2.0]]
SEP_Y = [0, 0, 1, 1]


# --- gini impurity -----------------------------------------------------------


@pytest.mark.parametrize(
    "labels,expected",
    [
        ([0, 0, 0, 0], 0.0),
        ([1, 1], 0.0),
        ([0, 1], 0.5),
        ([0, 0, 1, 1], 0.5),
        ([1, 1, 1, 0], 0.375),  # 1 - (3/4)^2 - (1/4)^2
        ([0, 0, 0, 0, 1], pytest.approx(0.32)),  # 1 - 0.8^2 - 0.2^2
    ],
)
def test_gini_by_hand(labels, expected):
    assert gini(labels) == expected


def test_gini_rejects_empty():
    with pytest.raises(EmptyInputError):
        gini([])


# --- training ----------------------------------------------------------------


def test_separable_data_learns_exact_rule():
    model = train_dtree(SEP_X, SEP_Y, DTreeParams(min_samples_split=2))
    root = model.nodes[0]
    assert root["feature_index"] == 0
    assert root["threshold"] == 2.5  # midpoint between the closest opposite rows
    assert [predict_dtree(model, row) for row in SEP_X] == [0.0, 0.0, 1.0, 1.0]


def test_pure_node_stops_immediately():
    model = train_dtree([[1.0], [2.0]], [1, 1])
    assert model.nodes == [{"prob_refactor": 1.0}]
    assert model.depth() == 0


def test_max_depth_stops_growth():
    rng = Rng(5)
    X = [[float(rng.randint(0, 50)), float(rng.randint(0, 50))] for _ in range(200)]
    y = [1 if row[0] + row[1] > 50 else 0 for row in X]
    shallow = train_dtree(X, y, DTreeParams(max_depth=2))
    deep = train_dtree(X, y, DTreeParams(max_depth=8))
    assert shallow.depth() <= 2
    assert deep.depth() <= 8
    assert deep.depth() > shallow.depth()


def test_min_samples_split_stops_growth():
    X = [[float(i)] for i in range(10)]
    y = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
    blocked = train_dtree(X, y, DTreeParams(min_samples_split=11))
    assert blocked.nodes == [{"prob_refactor": 0.5}]
    allowed = train_dtree(X, y, DTreeParams(min_samples_split=2))
    assert allowed.depth() >= 1


def test_no_gain_makes_a_leaf():
    # identical feature rows with mixed labels cannot be split
    model = train_dtree([[3.0], [3.0], [3.0]], [0, 1, 1])
    assert model.nodes == [{"prob_refactor": pytest.approx(2 / 3)}]


def test_training_deterministic():
    rng = Rng(12)
    X = [[float(rng.randint(0, 9)) for _ in range(4)] for _ in range(120)]
    y = [1 if sum(row) > 18 else 0 for row in X]
    a = train_dtree(X, y, DTreeParams(max_depth=6))
    b = train_dtree(X, y, DTreeParams(max_depth=6))
    assert a.nodes == b.nodes


def test_training_validates_input():
    with pytest.raises(DataError):
        train_dtree([], [])
    with pytest.raises(DataError):
        train_dtree([[1.0], [2.0]], [0])
    with pytest.raises(DataError):
        train_dtree([[float("inf")]], [1])


def test_default_min_split_blocks_tiny_data():
    # the tuned default refuses to split four rows, even separable ones
    model = train_dtree(SEP_X, SEP_Y)
    assert model.nodes == [{"prob_refactor": 0.5}]


# --- prediction --------------------------------------------------------------


def test_predict_batch_matches_single():
    model = train_dtree(SEP_X, SEP_Y)
    batch = predict_batch(model, SEP_X)
    assert batch.tolist() == [predict_dtree(model, row) for row in SEP_X]
    assert batch.dtype == np.float64


def test_predict_rejects_wrong_width():
    model = train_dtree(SEP_X, SEP_Y)
    with pytest.raises(DataError):
        predict_dtree(model, [1.0])


def test_leaf_probability_is_class_fraction():
    X = [[1.0], [1.0], [1.0], [9.0]]
    y = [1, 1, 0, 0]
    model = train_dtree(X, y, DTreeParams(max_depth=1, min_samples_split=2))
    assert predict_dtree(model, [1.0]) == pytest.approx(2 / 3)
    assert predict_dtree(model, [9.0]) == 0.0


# --- checkpoints ----------------------------------------------------------------


def test_checkpoint_round_trip():
    model = train_dtree(SEP_X, SEP_Y, DTreeParams(max_depth=7, min_samples_split=3))
    doc = dtree_to_doc(model)
    back = dtree_from_doc(doc)
    assert back.nodes == model.nodes
    assert back.params == model.params
    assert back.n_features == model.n_features
    assert predict_batch(back, SEP_X).tolist() == predict_batch(model, SEP_X).tolist()


def test_checkpoint_rejects_corruption():
    doc = dtree_to_doc(train_dtree(SEP_X, SEP_Y, DTreeParams(min_samples_split=2)))

    def corrupt(mutate):
        import copy as _copy

        bad = _copy.deepcopy(doc)
        mutate(bad)
        with pytest.raises((SchemaError, DataError)):
            dtree_from_doc(bad)

    corrupt(lambda d: d.update(version="9"))
    corrupt(lambda d: d.pop("nodes"))
    corrupt(lambda d: d["nodes"][0].update(left=99))
    corrupt(lambda d: d.update(n_features=-1))
    corrupt(lambda d: d.update(n_features="2"))
    corrupt(lambda d: d["nodes"][0].update(threshold="2.5"))
    corrupt(lambda d: d["nodes"][1].update(prob_refactor="0.5"))
    corrupt(lambda d: d["nodes"].__setitem__(1, [0.5]))
    corrupt(lambda d: d["nodes"][0].update(feature_index=True))
    corrupt(lambda d: d["nodes"][0].update(left=True))
    corrupt(lambda d: d["params"].update(max_depth="20"))
    corrupt(lambda d: d["params"].update(max_depth=None))
    corrupt(lambda d: d["params"].update(min_samples_split=True))
    corrupt(lambda d: d.update(params=[]))
    # keys nobody reads are refused, and a leaf cannot also be a split
    corrupt(lambda d: d.update(trained_on="corpus"))
    corrupt(lambda d: d["params"].update(criterion="gini"))
    corrupt(lambda d: d["nodes"][0].update(prob_refactor=0.5))
    corrupt(lambda d: _first_leaf(d).update(feature_index=0, threshold=0.5, left=1, right=2))
    corrupt(lambda d: _first_leaf(d).update(samples=4))
    corrupt(lambda d: d["nodes"][0].update(samples=4))
    # children past their parents are not enough: a shared child, an unreachable node
    split, leaf = {"feature_index": 0, "threshold": 2.5}, {"prob_refactor": 0.5}
    shared = [{**split, "left": 1, "right": 2}] + 2 * [{**split, "left": 3, "right": 4}] + 2 * [leaf]
    corrupt(lambda d: d.update(nodes=shared))
    corrupt(lambda d: d["nodes"].append(leaf))


def test_depth_of_a_loaded_5000_node_chain():
    # internal nodes 0, 2, 4, ... each hold a leaf on the left and the next one on the right
    nodes = []
    for i in range(0, 4998, 2):
        nodes.append({"feature_index": 0, "threshold": 0.5, "left": i + 1, "right": i + 2})
        nodes.append({"prob_refactor": 0.0})
    nodes.append({"prob_refactor": 1.0})
    model = DTreeModel(nodes=nodes, params=DTreeParams(), n_features=1)
    assert dtree_from_doc(dtree_to_doc(model)).depth() == 2499


def _first_leaf(doc: dict) -> dict:
    return next(node for node in doc["nodes"] if "prob_refactor" in node)
