"""Graph network: aggregation, layer math, gradients, training, checkpoints."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import sparse

from refactorlab.errors import CheckpointError, DataError, DimensionMismatchError
from refactorlab.gcn import (
    GcnConfig,
    TrainConfig,
    _assemble_batch,
    _backward_from_cache,
    _bce_logits,
    _forward_full,
    _loss_from_cache,
    _sample_tensors,
    aggregation_matrix,
    backward,
    forward,
    gcn_from_doc,
    gcn_layer_forward,
    gcn_to_doc,
    gradient_check,
    init_model,
    predict_graphs,
    sample_loss,
    suggest_split,
    train,
)
from refactorlab.graph import EDGE_STRENGTH, CodeGraph, EdgeRecord, NodeRecord, build_graph
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.split import split_points
from refactorlab.rng import Rng

from conftest import SPLITTABLE_SRC

TINY_SRC = "def f(a):\n    x = a + 1\n    return x\n"

SMALL_CFG = GcnConfig(layers=4, units=6, dropout=0.0)


def tiny_graph() -> CodeGraph:
    return build_graph(parse_source(TINY_SRC))


def permuted(graph: CodeGraph, perm: list[int]) -> CodeGraph:
    """Relabel node ids by ``perm`` and re-sort records to the new order."""
    nodes = sorted(
        (NodeRecord(id=perm[n.id], kind=n.kind, features=list(n.features)) for n in graph.nodes),
        key=lambda n: n.id,
    )
    edges = [
        EdgeRecord(src=perm[e.src], dst=perm[e.dst], kind=e.kind, features=list(e.features))
        for e in graph.edges
    ]
    return CodeGraph(nodes=nodes, edges=edges, source_digest=graph.source_digest)


# --- aggregation matrix -----------------------------------------------------------


def test_aggregation_matrix_by_hand():
    # tiny graph: Parent 0-1, 1-2, 1-3 (strength 1/2 each, one tree hop),
    # NextSibling 2-3 and DataFlow 2-3 (strength 1/3 each, two hops)
    A = aggregation_matrix(tiny_graph())
    assert (A != A.T).nnz == 0  # symmetric: backward multiplies by A itself
    want = np.eye(4)
    want[0, 1] = want[1, 0] = 0.5
    want[1, 2] = want[2, 1] = 0.5
    want[1, 3] = want[3, 1] = 0.5
    want[2, 3] = want[3, 2] = 2 / 3  # two parallel edges add their strengths
    assert np.allclose(A.toarray(), want, atol=1e-15)
    assert A.shape == (4, 4)


def reference_aggregation(graph: CodeGraph) -> sparse.csr_matrix:
    """The gate matrix summed in a dict, one edge at a time, then handed to
    scipy's COO constructor, which sorts the entries into canonical CSR."""
    n = len(graph.nodes)
    gates: dict[tuple[int, int], float] = {}
    for e in graph.edges:
        s = e.features[EDGE_STRENGTH]
        gates[e.dst, e.src] = gates.get((e.dst, e.src), 0.0) + s
        gates[e.src, e.dst] = gates.get((e.src, e.dst), 0.0) + s
    for v in range(n):
        gates[v, v] = gates.get((v, v), 0.0) + 1.0
    at = np.array(list(gates), dtype=np.int64).reshape(-1, 2)
    vals = np.array(list(gates.values()), dtype=np.float64)
    return sparse.csr_matrix((vals, (at[:, 0], at[:, 1])), shape=(n, n))


def random_graph(rng: Rng) -> CodeGraph:
    """Random ids, strengths and edges: parallel, reversed and self-edges
    included, so several terms fall on one entry in a scrambled order."""
    n = 1 + rng.randrange(40)
    nodes = [NodeRecord(id=i, kind="Name", features=[0.0] * 12) for i in range(n)]
    edges = []
    for _ in range(rng.randrange(3 * n + 1)):
        feats = [0.0] * 6
        feats[EDGE_STRENGTH] = rng.random() * 2.0 - 0.5
        edges.append(EdgeRecord(src=rng.randrange(n), dst=rng.randrange(n), kind="DataFlow", features=feats))
    return CodeGraph(nodes=nodes, edges=edges, source_digest="")


def test_aggregation_matrix_matches_reference_build_bit_for_bit():
    rng = Rng(2504)
    for case in range(150):
        graph = random_graph(rng)
        got, want = aggregation_matrix(graph), reference_aggregation(graph)
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr), case
        assert np.array_equal(got.indices, want.indices), case
        # compare the bits, so a sum taken in another order shows
        assert got.data.tobytes() == want.data.tobytes(), case


# --- layer forward vs straight-line oracle --------------------------------------------


def layer_oracle(H, A, W, b):
    """Sum aggregation, affine map, ReLU — written as plain loops."""
    n, d_in = H.shape
    d_out = W.shape[1]
    agg = [[0.0] * d_in for _ in range(n)]
    for v in range(n):
        for u in range(n):
            for j in range(d_in):
                agg[v][j] += A[v][u] * H[u][j]
    out = [[0.0] * d_out for _ in range(n)]
    for v in range(n):
        for k in range(d_out):
            z = b[k]
            for j in range(d_in):
                z += agg[v][j] * W[j][k]
            out[v][k] = max(z, 0.0)
    return np.array(out)


def test_layer_forward_matches_oracle_on_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(3):
        n, d_in, d_out = 5, 4, 3
        H = rng.normal(size=(n, d_in))
        A = rng.normal(size=(n, n))
        W = rng.normal(size=(d_in, d_out))
        b = rng.normal(size=d_out)
        got = gcn_layer_forward(H, A, W, b)
        assert np.max(np.abs(got - layer_oracle(H, A, W, b))) <= 1e-12


def test_layer_forward_includes_self_loop_via_aggregation():
    # with identity weights and the real aggregation matrix, an isolated
    # feature propagates to itself exactly once
    graph = tiny_graph()
    A = aggregation_matrix(graph).toarray()
    H = np.eye(4)
    out = gcn_layer_forward(H, A, np.eye(4), np.zeros(4))
    assert out[0, 0] == 1.0  # the self-loop term
    assert out[0, 1] == 0.5  # plus the gated neighbor


def test_layer_forward_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatchError):
        gcn_layer_forward(np.zeros((3, 4)), np.zeros((3, 3)), np.zeros((5, 2)), np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        gcn_layer_forward(np.zeros((3, 4)), np.zeros((2, 2)), np.zeros((4, 2)), np.zeros(2))


# --- loss ------------------------------------------------------------------------


def test_bce_by_hand():
    # logit 0 is probability 0.5; logit log(9) is probability 0.9
    z = np.array([0.0, 0.0, math.log(9.0), math.log(9.0)])
    t = np.array([1.0, 0.0, 1.0, 0.0])
    expected = [math.log(2.0), math.log(2.0), -math.log(0.9), -math.log(0.1)]
    assert _bce_logits(z, t).tolist() == pytest.approx(expected)


def test_bce_clamps_extremes():
    # saturated logits: confidently wrong costs |z|, confidently right costs 0
    loss = _bce_logits(np.array([-1000.0, 1000.0, 1000.0]), np.array([1.0, 0.0, 1.0]))
    assert np.all(np.isfinite(loss))
    assert loss.tolist() == pytest.approx([1000.0, 1000.0, 0.0], abs=1e-9)


# --- gradients ---------------------------------------------------------------------


def test_gradient_check_on_small_graphs():
    sources = [TINY_SRC, "x = 1\ny = x + 2\nprint(y)\n"]
    for i, src in enumerate(sources):
        model = init_model(100 + i, SMALL_CFG)
        graph = build_graph(parse_source(src))
        split = len(graph.nodes) - 1
        worst = gradient_check(model, graph, label=i % 2, split_label=split)
        assert worst <= 1e-4, f"gradient mismatch {worst} on case {i}"


def test_training_mode_gradient_check_with_fixed_dropout():
    # two graphs stacked, as training batches them, and a fixed dropout
    # draw: every loss evaluation re-seeds the generator, so the finite
    # differences see the very masks the analytic pass used
    model = init_model(21, GcnConfig(layers=4, units=6, dropout=0.4))
    graphs = [tiny_graph(), build_graph(parse_source(SPLITTABLE_SRC))]
    tensors = [
        _sample_tensors(g, model.config, float(i % 2), len(g.nodes) - 1 - i)
        for i, g in enumerate(graphs)
    ]
    X, A, counts, labels, splits = _assemble_batch(tensors)

    def cache():
        return _forward_full(model, X, A, counts, np.random.default_rng(77))

    analytic = _backward_from_cache(model, cache(), labels, splits)
    dropped = sum(int(np.count_nonzero(H == 0.0)) for H in cache()["H"][:-1])
    assert dropped > 0  # the draw masked units out
    step, worst = 1e-6, 0.0
    for name in model.param_names():
        flat = model.weights[name].reshape(-1)
        grad = analytic[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = _loss_from_cache(cache(), labels, splits)
            flat[i] = keep - step
            down = _loss_from_cache(cache(), labels, splits)
            flat[i] = keep
            fd = (up - down) / (2.0 * step)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6))
    assert worst <= 1e-4, f"gradient mismatch {worst}"


def test_backward_covers_every_parameter():
    model = init_model(3, SMALL_CFG)
    grads = backward(model, tiny_graph(), label=1, split_label=2)
    assert sorted(grads) == sorted(model.param_names())
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert any(np.any(g != 0.0) for g in grads.values())


def test_sample_loss_is_deterministic():
    model = init_model(4, SMALL_CFG)
    graph = tiny_graph()
    assert sample_loss(model, graph, 1, 2) == sample_loss(model, graph, 1, 2)


# --- permutation equivariance ---------------------------------------------------------


def test_forward_is_permutation_invariant():
    model = init_model(9, SMALL_CFG)
    graph = build_graph(parse_source(SPLITTABLE_SRC))
    rng = Rng(55)
    base = forward(model, graph)
    for _ in range(5):
        perm = list(range(len(graph.nodes)))
        rng.shuffle(perm)
        out = forward(model, permuted(graph, perm))
        assert abs(out.graph_prob - base.graph_prob) <= 1e-12
        for old_id in range(len(graph.nodes)):
            assert abs(out.node_scores[perm[old_id]] - base.node_scores[old_id]) <= 1e-12


# --- split suggestion ------------------------------------------------------------------


def test_suggest_split_picks_highest_scoring_candidate():
    model = init_model(11, SMALL_CFG)
    tree = parse_source(SPLITTABLE_SRC)
    graph = build_graph(tree)
    candidates = split_points(tree)
    suggestion = suggest_split(model, graph, candidates)
    assert suggestion.eligible
    assert suggestion.node_id in candidates
    scores = forward(model, graph).node_scores
    assert suggestion.score == pytest.approx(float(max(scores[c] for c in candidates)))


def test_suggest_split_handles_no_candidates():
    model = init_model(11, SMALL_CFG)
    tree = parse_source("x = 1\n")
    suggestion = suggest_split(model, build_graph(tree), split_points(tree))
    assert suggestion.node_id is None
    assert not suggestion.eligible


# --- training ---------------------------------------------------------------------------


def test_train_runs_and_records_history(small_dataset):
    model = init_model(42, SMALL_CFG)
    fitted, history = train(model, small_dataset, TrainConfig(epochs=3, seed=42))
    assert len(history.epochs) == 3
    for row in history.epochs:
        assert math.isfinite(row["train_loss"])
        assert 0.0 <= row["train_acc"] <= 1.0
        assert row["val_acc"] is None or 0.0 <= row["val_acc"] <= 1.0
    # standardization was fitted: sigma strictly positive, mu finite
    assert np.all(fitted.feature_sigma > 0)
    assert np.all(np.isfinite(fitted.feature_mu))


def test_train_is_deterministic(small_dataset):
    runs = []
    for _ in range(2):
        model = init_model(42, SMALL_CFG)
        fitted, history = train(model, small_dataset, TrainConfig(epochs=2, seed=42))
        runs.append((gcn_to_doc(fitted), history.epochs))
    assert runs[0] == runs[1]


def test_train_loss_decreases(small_dataset):
    model = init_model(42, GcnConfig(layers=4, units=16, dropout=0.0))
    _, history = train(
        model, small_dataset, TrainConfig(epochs=10, seed=42, learning_rate=0.005)
    )
    assert history.epochs[-1]["train_loss"] < history.epochs[0]["train_loss"]


def test_train_config_rejects_bad_values():
    for bad in (
        {"epochs": 0},
        {"epochs": True},
        {"epochs": 2.0},
        {"batch_size": 0},
        {"batch_size": -5},
        {"batch_size": True},
        {"learning_rate": 0.0},
        {"learning_rate": -0.1},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": True},
    ):
        with pytest.raises(DataError):
            TrainConfig(**bad)
    TrainConfig(epochs=1, batch_size=1, learning_rate=1)


def test_train_rejects_empty_dataset():
    class Hollow:
        samples: list = []
        split: dict = {}

    with pytest.raises(DataError):
        train(init_model(1, SMALL_CFG), Hollow(), TrainConfig(epochs=1))


def test_predict_graphs_matches_forward(small_dataset):
    model = init_model(42, SMALL_CFG)
    graphs = [small_dataset.samples[i].graph for i in small_dataset.split["test"][:6]]
    batch = predict_graphs(model, graphs)
    single = [forward(model, g).graph_prob for g in graphs]
    assert np.allclose(batch, single, atol=1e-12)
    # a batch of one runs the very same arithmetic as forward
    assert all(predict_graphs(model, [g])[0] == p for g, p in zip(graphs, single))


# --- checkpoints ------------------------------------------------------------------------


def test_checkpoint_round_trip(small_dataset):
    model = init_model(42, SMALL_CFG)
    fitted, _ = train(model, small_dataset, TrainConfig(epochs=1, seed=42))
    doc = gcn_to_doc(fitted)
    back = gcn_from_doc(doc)
    assert gcn_to_doc(back) == doc
    graphs = [small_dataset.samples[i].graph for i in small_dataset.split["test"][:4]]
    assert predict_graphs(back, graphs).tolist() == predict_graphs(fitted, graphs).tolist()


def test_checkpoint_defaults_identity_standardization():
    doc = gcn_to_doc(init_model(1, SMALL_CFG))
    doc.pop("feature_mu")
    doc.pop("feature_sigma")
    model = gcn_from_doc(doc)
    assert np.all(model.feature_mu == 0.0)
    assert np.all(model.feature_sigma == 1.0)


def test_checkpoint_rejects_corruption():
    base = gcn_to_doc(init_model(2, SMALL_CFG))

    def corrupt(mutate):
        import copy

        doc = copy.deepcopy(base)
        mutate(doc)
        with pytest.raises(CheckpointError):
            gcn_from_doc(doc)

    corrupt(lambda d: d.update(version="0"))
    corrupt(lambda d: d.update(kind="dtree"))
    corrupt(lambda d: d["weights"].pop("W1"))
    corrupt(lambda d: d["weights"].update(W2=[[1.0]]))
    corrupt(lambda d: d["weights"]["wg"].append(0.0))
    corrupt(lambda d: d["weights"]["b1"].__setitem__(0, float("nan")))
    corrupt(lambda d: d["feature_sigma"].__setitem__(0, 0.0))
    corrupt(lambda d: d["feature_mu"].pop())
    corrupt(lambda d: d["config"].update(layers=0))
    corrupt(lambda d: d["config"].update(layers=-1))
    corrupt(lambda d: d["config"].update(layers=True))
    corrupt(lambda d: d["config"].update(dropout=2.0))
    corrupt(lambda d: d["weights"]["W1"][0].__setitem__(0, "x"))
    corrupt(lambda d: d["feature_mu"].__setitem__(0, "x"))
    corrupt(lambda d: d["feature_sigma"].__setitem__(0, "x"))
    corrupt(lambda d: d.update(weights=[1]))
    corrupt(lambda d: d["weights"].update(W9=[[1.0]]))
    # a version-1 checkpoint still carrying the dropped normalization flag
    corrupt(lambda d: d.update(version="1", config={**d["config"], "symmetric_norm": False}))


def test_init_model_shapes_follow_config():
    model = init_model(7, GcnConfig(layers=2, units=5, input_dim=12))
    assert model.weights["W1"].shape == (12, 5)
    assert model.weights["W2"].shape == (5, 5)
    assert model.weights["wg"].shape == (5,)
    assert model.feature_mu.shape == (12,)
    # same seed, same init
    again = init_model(7, GcnConfig(layers=2, units=5, input_dim=12))
    assert all(np.array_equal(model.weights[k], again.weights[k]) for k in model.weights)
