"""Graph network: aggregation, layer math, gradients, training, checkpoints."""

from __future__ import annotations

import base64
import copy
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from scipy import sparse

from refactorlab import gcn
from refactorlab.errors import CheckpointError, DataError, DimensionMismatchError, InvariantError
from refactorlab.gcn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    DRAW_CHUNK,
    GcnConfig,
    TrainConfig,
    _aggregate,
    _assemble_batch,
    _backward_from_cache,
    _bce_logits,
    _draw_keep,
    _forward_full,
    _loss_from_cache,
    _PassBuffers,
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
from refactorlab.graph import (
    EDGE_KINDS,
    EDGE_STRENGTH,
    NODE_FEATURE_DIM,
    CodeGraph,
    build_graph,
    edge_features,
)
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.split import split_points
from refactorlab.rng import Rng

from conftest import SPLITTABLE_SRC, edge_triples, graph_of, permuted

TINY_SRC = "def f(a):\n    x = a + 1\n    return x\n"

SMALL_CFG = GcnConfig(layers=4, units=6, dropout=0.0)


def tiny_graph() -> CodeGraph:
    return build_graph(parse_source(TINY_SRC))


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
    for (src, dst, _), row in zip(edge_triples(graph), edge_features(graph)):
        s = row[EDGE_STRENGTH]
        gates[dst, src] = gates.get((dst, src), 0.0) + s
        gates[src, dst] = gates.get((src, dst), 0.0) + s
    for v in range(n):
        gates[v, v] = gates.get((v, v), 0.0) + 1.0
    at = np.array(list(gates), dtype=np.int64).reshape(-1, 2)
    vals = np.array(list(gates.values()), dtype=np.float64)
    return sparse.csr_matrix((vals, (at[:, 0], at[:, 1])), shape=(n, n))


def random_graph(rng: Rng) -> CodeGraph:
    """A random Parent tree plus random edges of the other kinds: parallel,
    reversed and self-edges included, shuffled in with the tree, so several
    terms of several strengths fall on one entry in a scrambled order."""
    n = 1 + rng.randrange(40)
    parent = [None] + [rng.randrange(v) for v in range(1, n)]
    edges = [(p, v, "Parent") for v, p in enumerate(parent) if p is not None]
    for _ in range(rng.randrange(3 * n + 1)):
        kind = EDGE_KINDS[1 + rng.randrange(len(EDGE_KINDS) - 1)]
        edges.append((rng.randrange(n), rng.randrange(n), kind))
    rng.shuffle(edges)
    return graph_of(["Name"] * n, np.zeros((n, NODE_FEATURE_DIM)), edges, parent)


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


def test_aggregate_kernel_equals_the_sparse_product_bit_for_bit():
    # the helper calls the kernel behind scipy's A @ H; it must zero the
    # rows it writes, whatever they held, and give the very same floats
    rng = Rng(1804)
    nprng = np.random.default_rng(1804)
    for case in range(150):
        graph = random_graph(rng)
        width = 1 + rng.randrange(9)
        for dtype in (np.float32, np.float64):
            A = aggregation_matrix(graph).astype(dtype)
            H = nprng.normal(size=(A.shape[0], width)).astype(dtype)
            want = (A @ H).tobytes()
            out = np.full((A.shape[0] + 3, width), np.nan, dtype=dtype)
            assert _aggregate(A, H, out[: A.shape[0]]).tobytes() == want, (case, dtype)
            assert _aggregate(A, H).tobytes() == want, (case, dtype)
    with pytest.raises(ValueError):  # the kernel would upcast into a copy
        _aggregate(A.astype(np.float32), H.astype(np.float64), np.zeros(H.shape))


def test_aggregate_rejects_an_out_that_overlaps_its_input():
    # the kernel zeroes out before it reads H, so an overlap would zero the input
    A = aggregation_matrix(tiny_graph())
    rows = np.arange(16.0).reshape(8, 2)
    for H, out in ((rows[:4], rows[:4]), (rows[:4], rows[3:7])):
        before = H.copy()
        with pytest.raises(ValueError):
            _aggregate(A, H, out)
        assert np.array_equal(H, before)
    # rows of one buffer that do not overlap are fine
    assert _aggregate(A, rows[:4], rows[4:]).tobytes() == (A @ rows[:4]).tobytes()


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
    buffers = _PassBuffers(model.config, X.shape[0], A.dtype)

    def cache():
        return _forward_full(model, X, A, counts, np.random.default_rng(77), buffers)

    analytic = _backward_from_cache(model, cache(), labels, splits)
    # each mask is H > 0 after ReLU and dropout, so its unset bits count H == 0
    dropped = sum(int(np.count_nonzero(~mask)) for mask in cache()["mask"][:-1])
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


def test_float32_gradients_match_float64():
    # the training step's precision: the same two-graph batch and dropout
    # draw as above, with the matrix and weights cast to float32
    model = init_model(21, GcnConfig(layers=4, units=6, dropout=0.4))
    graphs = [tiny_graph(), build_graph(parse_source(SPLITTABLE_SRC))]
    tensors = [
        _sample_tensors(g, model.config, float(i % 2), len(g.nodes) - 1 - i)
        for i, g in enumerate(graphs)
    ]
    X, A, counts, labels, splits = _assemble_batch(tensors)
    single = replace(model, weights={k: v.astype(np.float32) for k, v in model.weights.items()})
    grads = {}
    for m, a in ((model, A), (single, A.astype(np.float32))):
        buffers = _PassBuffers(model.config, X.shape[0], a.dtype)
        cache = _forward_full(m, X, a, counts, np.random.default_rng(77), buffers)
        grads[a.dtype] = _backward_from_cache(m, cache, labels, splits)
    wide, narrow = grads[np.dtype(np.float64)], grads[np.dtype(np.float32)]
    for name in model.param_names():
        assert wide[name].dtype == np.float64 and narrow[name].dtype == np.float32, name
        err = np.linalg.norm(narrow[name] - wide[name]) / np.linalg.norm(wide[name])
        assert err <= 1e-3, f"{name}: relative error {err}"


def featured_graph(rng: Rng) -> CodeGraph:
    """``random_graph`` with random non-negative node features."""
    graph = random_graph(rng)
    x = [[rng.random() * 8.0 for _ in range(NODE_FEATURE_DIM)] for _ in graph.nodes]
    return replace(graph, x=np.array(x))


def test_a_step_in_reused_buffers_matches_one_in_fresh_buffers():
    # a small batch after a large one writes a shorter prefix of the same
    # buffers: a stale or unzeroed row would change its loss or gradients
    cfg = GcnConfig(layers=3, units=8, dropout=0.4)
    model = init_model(31, cfg)
    step = replace(model, weights={k: v.astype(np.float32) for k, v in model.weights.items()})
    rng = Rng(31)
    graphs = [featured_graph(rng) for _ in range(15)]

    def batch(chunk):
        tensors = [_sample_tensors(g, cfg, float(i % 2), i % len(g.nodes)) for i, g in enumerate(chunk)]
        X, A, counts, labels, splits = _assemble_batch(tensors)
        return X, A.astype(np.float32), counts, labels, splits

    def run(buffers, X, A, counts, labels, splits):
        cache = _forward_full(step, X, A, counts, np.random.default_rng(5), buffers)
        loss = _loss_from_cache(cache, labels, splits)
        grads = _backward_from_cache(step, cache, labels, splits)
        return [loss.hex()] + [float(x).hex() for k in sorted(grads) for x in grads[k].ravel()]

    big, small = batch(graphs[:12]), batch(graphs[12:])
    assert small[0].shape[0] < big[0].shape[0]
    reused = _PassBuffers(cfg, big[0].shape[0], np.float32)
    run(reused, *big)
    fresh = run(_PassBuffers(cfg, small[0].shape[0], np.float32), *small)
    assert run(reused, *small) == fresh


@pytest.mark.parametrize("units", [1, 3])
def test_chunked_dropout_draw_matches_one_full_draw(units):
    # the same mask bits as one draw of the full shape, and the generator
    # left in the same state, for row counts on and around the chunk size
    draw = np.empty(DRAW_CHUNK)
    for rows in (1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1, 3 * DRAW_CHUNK + 5):
        whole, chunked = np.random.default_rng(rows), np.random.default_rng(rows)
        want = whole.random((rows, units)) >= 0.4
        keep = np.empty((rows + 2, units), bool)[:rows]
        _draw_keep(chunked, 0.4, keep, draw)
        assert np.array_equal(keep, want), rows
        assert chunked.bit_generator.state == whole.bit_generator.state, rows


def test_pass_buffers_hold_only_what_backward_reads():
    # per row, float32 and the default config: S (12 + 3 * 128 floats), one
    # bool mask per layer (4 * 128), one H and dH (128 floats each)
    def nbytes(buffers: _PassBuffers) -> int:
        arrays = [a for v in vars(buffers).values() for a in (v if isinstance(v, list) else [v])]
        return sum(a.nbytes for a in arrays)

    cfg = GcnConfig()
    small, large = (_PassBuffers(cfg, rows, np.float32) for rows in (10, 1000))
    assert (nbytes(large) - nbytes(small)) / 990 == 3120
    assert small.draw.nbytes == large.draw.nbytes == 8 * DRAW_CHUNK


def test_backward_consumes_its_cache():
    # the backward pass writes its products into S: a second one on the
    # same cache would read them as activations
    model = init_model(5, SMALL_CFG)
    X, A, counts, labels, splits = gcn._batch_of_one(model, tiny_graph(), 1.0, 2)
    cache = _forward_full(model, X, A, counts, buffers=_PassBuffers(SMALL_CFG, X.shape[0], A.dtype))
    _backward_from_cache(model, cache, labels, splits)
    with pytest.raises(InvariantError):
        _backward_from_cache(model, cache, labels, splits)


def test_validation_pass_in_dirtied_step_buffers_matches_the_cache_free_pass():
    cfg = GcnConfig(layers=3, units=8, dropout=0.4)
    model = init_model(32, cfg)
    step = replace(model, weights={k: v.astype(np.float32) for k, v in model.weights.items()})
    rng = Rng(32)
    graphs = [featured_graph(rng) for _ in range(16)]

    def batch(chunk):
        tensors = [_sample_tensors(g, cfg, float(i % 2), i % len(g.nodes)) for i, g in enumerate(chunk)]
        X, A, counts, labels, splits = _assemble_batch(tensors)
        return X, A.astype(np.float32), counts, labels, splits

    (X, A, counts, labels, splits), val = batch(graphs[:12]), batch(graphs[12:])
    assert val[0].shape[0] < X.shape[0]
    buffers = _PassBuffers(cfg, X.shape[0], np.float32)
    cache = _forward_full(step, X, A, counts, np.random.default_rng(6), buffers)
    _backward_from_cache(step, cache, labels, splits)
    want = _forward_full(step, *val[:3])["graph_probs"]
    got = _forward_full(step, *val[:3], buffers=buffers)["graph_probs"]
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


def test_pooling_sums_each_graph_left_to_right():
    model = init_model(8, SMALL_CFG)
    graphs = [tiny_graph(), build_graph(parse_source(SPLITTABLE_SRC)), tiny_graph()]
    X, A, counts, _, _ = _assemble_batch([_sample_tensors(g, SMALL_CFG, 0.0, None) for g in graphs])
    cache = _forward_full(model, X, A, counts, buffers=_PassBuffers(SMALL_CFG, X.shape[0], A.dtype))
    H = cache["H_last"]
    for g, (lo, n) in enumerate(zip(cache["starts"], counts)):
        rows = H[lo : lo + n]
        assert np.array_equal(cache["means"][g], reduce(np.add, rows, np.zeros(H.shape[1])) / n)
        assert np.allclose(cache["means"][g], rows.mean(axis=0), rtol=1e-12, atol=0.0)


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


def test_suggest_split_carries_the_graph_probability():
    model = init_model(11, SMALL_CFG)
    for src in (SPLITTABLE_SRC, "x = 1\n"):
        tree = parse_source(src)
        graph = build_graph(tree)
        suggestion = suggest_split(model, graph, split_points(tree))
        assert suggestion.graph_prob == predict_graphs(model, [graph])[0]


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


def test_train_validates_a_slice_larger_than_any_batch(small_dataset, monkeypatch):
    # with one graph per batch the validation pass needs more rows than any
    # step, and must get them; it scores what the cache-free pass scores
    passes = []
    real_forward = gcn._forward_full

    def spy_forward(step, X, A, counts, nprng=None, buffers=None):
        cache = real_forward(step, X, A, counts, nprng, buffers)
        free = None if nprng else real_forward(step, X, A, counts)["graph_probs"].tobytes()
        passes.append((X.shape[0], nprng is None, free, cache["graph_probs"].tobytes()))
        return cache

    monkeypatch.setattr(gcn, "_forward_full", spy_forward)
    _, history = train(init_model(42, SMALL_CFG), small_dataset, TrainConfig(epochs=2, batch_size=1, seed=42))
    steps = [rows for rows, validation, _, _ in passes if not validation]
    validations = [(rows, free, got) for rows, validation, free, got in passes if validation]
    assert len(validations) == 2 and all(row["val_acc"] is not None for row in history.epochs)
    assert all(rows > max(steps) and free == got for rows, free, got in validations)


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


def test_train_steps_in_float32_over_float64_master_weights(small_dataset, monkeypatch):
    model = init_model(42, SMALL_CFG)
    start = {k: v.copy() for k, v in model.weights.items()}
    forward_calls, step_grads = [], []
    real_forward, real_backward = gcn._forward_full, gcn._backward_from_cache

    def spy_forward(step, X, A, counts, nprng=None, buffers=None):
        cache = real_forward(step, X, A, counts, nprng, buffers)
        # the step and the validation pass both run in the step buffers
        arrays = [*cache["S"], cache["H_last"], cache["means"], cache["graph_probs"], cache["node_scores"]]
        forward_calls.append(
            (
                {a.dtype for a in arrays} | {w.dtype for w in step.weights.values()},
                {w.dtype for w in model.weights.values()},
            )
        )
        return cache

    def spy_backward(step, cache, labels, splits):
        grads = real_backward(step, cache, labels, splits)
        step_grads.append(grads)
        return grads

    monkeypatch.setattr(gcn, "_forward_full", spy_forward)
    monkeypatch.setattr(gcn, "_backward_from_cache", spy_backward)
    config = TrainConfig(epochs=1, batch_size=10**6, seed=42)
    fitted, _ = train(model, small_dataset, config)
    assert len(forward_calls) == 2  # one step and the validation pass
    for step_dtypes, master_dtypes in forward_calls:
        assert step_dtypes == {np.dtype(np.float32)}
        assert master_dtypes == {np.dtype(np.float64)}
    # the one Adam step, in float64 from zero moments: any float32 in the
    # moments or the gradients' upcast would round these differently
    (grads,) = step_grads
    lr_t = config.learning_rate * math.sqrt(1.0 - ADAM_BETA2) / (1.0 - ADAM_BETA1)
    for name in model.param_names():
        g = grads[name].astype(np.float64)
        m, v = (1 - ADAM_BETA1) * g, (1 - ADAM_BETA2) * g * g
        expected = start[name] - lr_t * m / (np.sqrt(v) + ADAM_EPS)
        assert fitted.weights[name].dtype == np.float64
        assert np.array_equal(fitted.weights[name], expected), name


def test_inference_runs_in_float64(small_dataset):
    model, _ = train(init_model(42, SMALL_CFG), small_dataset, TrainConfig(epochs=1, seed=42))
    graph = small_dataset.samples[small_dataset.split["test"][0]].graph
    assert forward(model, graph).node_scores.dtype == np.float64
    assert predict_graphs(model, [graph, graph]).dtype == np.float64
    grads = backward(model, graph, label=1, split_label=0)
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}


def test_predict_graphs_matches_forward(small_dataset):
    model = init_model(42, SMALL_CFG)
    graphs = [small_dataset.samples[i].graph for i in small_dataset.split["test"][:6]]
    batch = predict_graphs(model, graphs)
    single = [forward(model, g).graph_prob for g in graphs]
    assert np.allclose(batch, single, atol=1e-12)
    # a batch of one runs the very same arithmetic as forward
    assert all(predict_graphs(model, [g])[0] == p for g, p in zip(graphs, single))


def test_predict_graphs_gives_the_same_floats_in_any_chunking():
    # 300 graphs run in chunks of 128 from 0, 100 and 228 from 100
    model = init_model(43, GcnConfig(units=16))
    rng = Rng(43)
    graphs = [featured_graph(rng) for _ in range(300)]
    whole = predict_graphs(model, graphs)
    parts = np.concatenate([predict_graphs(model, graphs[:100]), predict_graphs(model, graphs[100:])])
    assert whole.tobytes() == parts.tobytes()
    assert predict_graphs(model, []).shape == (0,)


def test_predict_graphs_memory_does_not_grow_with_the_graph_count():
    model = init_model(44, GcnConfig(units=32))
    rng = Rng(44)
    graphs = [featured_graph(rng) for _ in range(600)]

    def peak(chunk) -> int:
        tracemalloc.start()
        try:
            predict_graphs(model, chunk)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(graphs) <= 1.5 * peak(graphs[:128])


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


def _values(text: str) -> np.ndarray:
    """The float64 values a checkpoint string holds, decoded here on its own."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def _b64(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _with_value(text: str, index: int, value: float) -> str:
    values = _values(text)
    values[index] = value
    return _b64(values)


def _with_extra_byte(text: str) -> str:
    return base64.b64encode(base64.b64decode(text) + b"\0").decode("ascii")


def _with_char(text: str, index: int, char: str) -> str:
    return text[:index] + char + text[index + 1 :]


def test_checkpoint_rejects_corruption():
    base = gcn_to_doc(init_model(2, SMALL_CFG))
    assert len(base["weights"]["bg"]) == 12 and base["weights"]["bg"].endswith("=")

    def corrupt(mutate, match: str | None = None):
        doc = copy.deepcopy(base)
        mutate(doc)
        with pytest.raises(CheckpointError, match=match):
            gcn_from_doc(doc)

    def w(doc: dict) -> dict:
        return doc["weights"]

    corrupt(lambda d: d.update(version="0"))
    corrupt(lambda d: d.update(kind="dtree"))
    corrupt(lambda d: w(d).pop("W1"))
    corrupt(lambda d: w(d).update(W2=_b64([1.0])), "wrong shape")
    corrupt(lambda d: w(d).update(wg=_with_extra_byte(w(d)["wg"])), "wrong shape")
    corrupt(lambda d: w(d).update(b1=_with_value(w(d)["b1"], 0, float("nan"))), "not finite")
    corrupt(lambda d: d.update(feature_sigma=_with_value(d["feature_sigma"], 0, 0.0)), "not positive")
    corrupt(lambda d: d.update(feature_mu=_b64(_values(d["feature_mu"])[:-1])), "wrong shape")
    corrupt(lambda d: d["config"].update(layers=0))
    corrupt(lambda d: d["config"].update(layers=-1))
    corrupt(lambda d: d["config"].update(layers=True))
    corrupt(lambda d: d["config"].update(dropout=2.0))
    corrupt(lambda d: w(d).update(W1="x"))
    corrupt(lambda d: d.update(feature_mu="x"))
    corrupt(lambda d: d.update(feature_sigma="x"))
    corrupt(lambda d: d.update(weights=[1]))
    corrupt(lambda d: w(d).update(W9=_b64([1.0])))
    # a version-1 checkpoint still carrying the dropped normalization flag
    corrupt(lambda d: d.update(version="1", config={**d["config"], "symmetric_norm": False}))
    # a bool or a number's text where an array's string goes; keys nobody reads are refused
    corrupt(lambda d: w(d).update(W1=True), "must be a base64 string")
    corrupt(lambda d: w(d).update(bg=False), "must be a base64 string")
    corrupt(lambda d: w(d).update(W2="0.5"))
    corrupt(lambda d: d.update(feature_mu=False), "must be a base64 string")
    corrupt(lambda d: d.update(feature_sigma=True), "must be a base64 string")
    corrupt(lambda d: d.update(trained_on="corpus"))
    # the encoding's own faults, each at the right length so the decoder meets it
    corrupt(lambda d: w(d).update(W1=_with_char(w(d)["W1"], 4, "*")), "not base64")
    corrupt(lambda d: w(d).update(W1=_with_char(w(d)["W1"], 4, "=")), "not base64")
    corrupt(lambda d: w(d).update(bg=w(d)["bg"][:-2] + "=="), "not canonical")
    corrupt(lambda d: w(d).update(bg=w(d)["bg"][:-1] + "A"), "not canonical")
    corrupt(lambda d: w(d).update(W1=_with_char(w(d)["W1"], 4, "\n")), "not base64")
    corrupt(lambda d: w(d).update(W1=w(d)["W1"][:4] + "\n" + w(d)["W1"][4:]), "wrong shape")
    # 0.0 is "AAAAAAAAAAA="; "B" sets bits that the 8 bytes do not hold
    corrupt(lambda d: w(d).update(bg=_with_char(w(d)["bg"], 10, "B")), "not canonical")
    corrupt(lambda d: w(d).update(wg=_with_value(w(d)["wg"], 1, math.inf)), "not finite")
    corrupt(lambda d: d.update(feature_mu=_with_value(d["feature_mu"], 2, -math.inf)), "not finite")
    # the version-2 form: a nested list of numbers where the string goes
    corrupt(lambda d: w(d).update(W1=_values(w(d)["W1"]).reshape(-1, 6).tolist()), "must be a base64 string")
    corrupt(lambda d: w(d).update(W1=_with_char(w(d)["W1"], 4, "\ud800")), "not base64")
    corrupt(lambda d: w(d).update(W1=_with_char(w(d)["W1"], 4, "\u00e9")), "not base64")
    corrupt(lambda d: d.update(version="2"), "bad GCN checkpoint version")


def test_checkpoint_keeps_every_float_bit_for_bit():
    model = init_model(4, SMALL_CFG)
    tiny = 5e-324
    special = [-0.0, 0.0, tiny, 2.5e-310, -sys.float_info.min, sys.float_info.max, -sys.float_info.max]
    model.weights["b1"] = np.array(special[:6])
    model.weights["bg"] = np.array(special[6:])
    model.weights["W2"][3, :] = np.nextafter(1.0, 2.0)
    model.feature_mu = np.linspace(-1e300, 1e300, SMALL_CFG.input_dim)
    back = gcn_from_doc(json.loads(json.dumps(gcn_to_doc(model))))
    for key, value in model.weights.items():
        assert back.weights[key].view(np.uint64).tolist() == value.view(np.uint64).tolist(), key
        assert back.weights[key].dtype == np.float64 and back.weights[key].flags.writeable
    assert back.feature_mu.view(np.uint64).tolist() == model.feature_mu.view(np.uint64).tolist()
    assert np.signbit(back.weights["b1"][0])


def test_checkpoint_holds_eight_bytes_a_value():
    model = init_model(0)
    values = sum(v.size for v in model.weights.values()) + 2 * model.config.input_dim
    text = json.dumps(gcn_to_doc(model), sort_keys=True, separators=(",", ":"))
    # base64 takes 32 characters per 24 bytes (10.67 a value) plus the
    # config, the keys and the padding; decimal text takes about 21 a value
    assert len(text) <= 11 * values + 500, (len(text), values)


def test_checkpoint_refuses_a_huge_layer_before_allocating_it():
    doc = gcn_to_doc(init_model(5, GcnConfig(layers=2, units=4)))
    doc["config"]["units"] = 10**9
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="W1 has wrong shape"):
            gcn_from_doc(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_init_model_shapes_follow_config():
    model = init_model(7, GcnConfig(layers=2, units=5, input_dim=12))
    assert model.weights["W1"].shape == (12, 5)
    assert model.weights["W2"].shape == (5, 5)
    assert model.weights["wg"].shape == (5,)
    assert model.feature_mu.shape == (12,)
    # same seed, same init
    again = init_model(7, GcnConfig(layers=2, units=5, input_dim=12))
    assert all(np.array_equal(model.weights[k], again.weights[k]) for k in model.weights)
