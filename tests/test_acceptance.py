"""Acceptance gate: eleven end-to-end criteria with one verdict line each.

Each test prints a single ``[acceptance] criterion NN: PASS/FAIL`` line on
the real stdout (past pytest's capture) and then asserts, so a normal
``pytest -v`` run shows every verdict alongside the test results.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
import pytest

from refactorlab.corpus import dataset_from_doc, ingest_dir, build_dataset, structural_label
from refactorlab.evalreport import metric_drop, pr_curve
from refactorlab.gcn import (
    GcnConfig,
    aggregation_matrix,
    gcn_from_doc,
    gcn_layer_forward,
    gradient_check,
    forward,
    init_model,
    predict_graphs,
    suggest_split,
)
from refactorlab.graph import build_graph
from refactorlab.metrics import cyclomatic, cyclomatic_cfg_oracle
from refactorlab.minipy.interp import behavior_fingerprint
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.split import extract_split, split_points
from refactorlab.rng import Rng
from refactorlab.rules import analyze_rules
from refactorlab.synth import generate_program, generate_units

from conftest import permuted, run_cli


def verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d}: {status} — {detail}", file=sys.__stdout__, flush=True)


# --- headline pipeline (shared by criteria 5, 6, and 8) ---------------------------


def run_headline_pipeline() -> dict[str, str]:
    code, bundle, err = run_cli(["synth", "--n", "2000", "--seed", "42"])
    assert code == 0, err
    code, manifest, err = run_cli(["corpus", "build"], stdin_text=bundle)
    assert code == 0, err
    code, ws, err = run_cli(["train", "--model", "gnn"], stdin_text=manifest)
    assert code == 0, err
    code, ws, err = run_cli(["train", "--model", "dtree"], stdin_text=ws)
    assert code == 0, err
    code, report, err = run_cli(["eval", "--format", "json"], stdin_text=ws)
    assert code == 0, err
    return {"bundle": bundle, "manifest": manifest, "workspace": ws, "report": report}


@pytest.fixture(scope="module")
def headline():
    start = time.perf_counter()
    arts = run_headline_pipeline()
    arts["elapsed"] = time.perf_counter() - start
    return arts


# --- criterion 1: cyclomatic complexity vs control-flow-graph oracle ----------------


def test_criterion_01_cyclomatic_matches_cfg_oracle_on_1000_functions():
    start = time.perf_counter()
    fns = []
    for u in generate_units(1000, seed=20260825):
        fns.extend(parse_source(u.body).functions())
    assert len(fns) >= 1000, f"only {len(fns)} functions generated"
    fns = fns[:1000]
    mismatches = sum(1 for fn in fns if cyclomatic(fn) != cyclomatic_cfg_oracle(fn))
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    verdict(1, ok, f"1000 functions, {mismatches} mismatches, {elapsed:.2f}s (< 5s)")
    assert mismatches == 0
    assert elapsed < 5.0


# --- criterion 2: analytic gradients vs finite differences ---------------------------

SMALL_SOURCES = (
    "x = 1\n",
    "def f(a):\n    x = a + 1\n    return x\n",
    "def f(a):\n    if a > 1:\n        return 1\n    return 0\n",
    "def f(a):\n    for i in range(a):\n        x = i\n    return a\n",
    "x = 1\nprint(x)\n",
    "def f(a):\n    while a > 0:\n        a = a - 1\n    return a\n",
    "import os\nx = os.load(1)\n",
)


def test_criterion_02_gradient_check_on_20_small_graphs():
    start = time.perf_counter()
    cfg = GcnConfig(layers=4, units=8)
    worst_overall = 0.0
    for i in range(20):
        graph = build_graph(parse_source(SMALL_SOURCES[i % len(SMALL_SOURCES)]))
        assert len(graph.nodes) <= 8
        model = init_model(300 + i, cfg)
        split = (len(graph.nodes) - 1) if i % 3 else None
        worst = gradient_check(model, graph, label=i % 2, split_label=split)
        worst_overall = max(worst_overall, worst)
    elapsed = time.perf_counter() - start
    ok = worst_overall <= 1e-4 and elapsed < 30.0
    verdict(2, ok, f"20 graphs, max rel err {worst_overall:.2e} (<= 1e-4), {elapsed:.1f}s (< 30s)")
    assert worst_overall <= 1e-4
    assert elapsed < 30.0


# --- criterion 3: layer forward vs straight-line oracle ------------------------------


def _layer_oracle(H, A, W, b):
    n, d_in = len(H), len(H[0])
    d_out = len(W[0])
    out = []
    for v in range(n):
        row = []
        for kk in range(d_out):
            z = b[kk]
            for u in range(n):
                for j in range(d_in):
                    z += A[v][u] * H[u][j] * W[j][kk]
            row.append(z if z > 0.0 else 0.0)
        out.append(row)
    return np.array(out)


def test_criterion_03_layer_forward_matches_oracle():
    rng = np.random.default_rng(20240311)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(3, 9))
        d_in = int(rng.integers(3, 13))
        d_out = int(rng.integers(2, 9))
        H = rng.normal(size=(n, d_in))
        A = rng.normal(size=(n, n))
        W = rng.normal(size=(d_in, d_out))
        b = rng.normal(size=d_out)
        got = gcn_layer_forward(H, A, W, b)
        worst = max(worst, float(np.max(np.abs(got - _layer_oracle(H, A, W, b)))))
    ok = worst <= 1e-12
    verdict(3, ok, f"10 random layer cases, max abs err {worst:.2e} (<= 1e-12)")
    assert worst <= 1e-12


# --- criterion 4: permutation equivariance --------------------------------------------


def test_criterion_04_forward_is_permutation_equivariant_on_50_graphs():
    model = init_model(99, GcnConfig(layers=4, units=16))
    units = generate_units(55, seed=505)
    graphs = [build_graph(parse_source(u.body)) for u in units][:50]
    assert len(graphs) == 50
    rng = Rng(606)
    worst = 0.0
    for graph in graphs:
        base = forward(model, graph)
        perm = list(range(len(graph.nodes)))
        rng.shuffle(perm)
        out = forward(model, permuted(graph, perm))
        worst = max(worst, abs(out.graph_prob - base.graph_prob))
        for old_id in range(len(graph.nodes)):
            worst = max(worst, abs(out.node_scores[perm[old_id]] - base.node_scores[old_id]))
    ok = worst <= 1e-12
    verdict(4, ok, f"50 graphs relabeled, max deviation {worst:.2e} (<= 1e-12)")
    assert worst <= 1e-12


# --- criterion 5: headline model ordering ---------------------------------------------


def test_criterion_05_headline_f1_ordering(headline):
    doc = json.loads(headline["report"])
    f1 = {name: doc["models"][name]["f1"] for name in ("rules", "dtree", "gnn")}
    elapsed = headline["elapsed"]
    ok = (
        f1["gnn"] >= 0.85
        and f1["rules"] <= 0.80
        and f1["gnn"] > f1["dtree"] > f1["rules"]
        and elapsed < 600.0
    )
    verdict(
        5,
        ok,
        f"f1 gnn={f1['gnn']:.3f} (>= 0.85) > dtree={f1['dtree']:.3f} > "
        f"rules={f1['rules']:.3f} (<= 0.80), pipeline {elapsed:.0f}s (< 600s)",
    )
    assert f1["gnn"] >= 0.85
    assert f1["rules"] <= 0.80
    assert f1["gnn"] > f1["dtree"] > f1["rules"]
    assert elapsed < 600.0


# --- criterion 6: complexity reduction on flagged hotspots ------------------------------


def test_criterion_06_suggested_splits_cut_complexity(headline):
    assert metric_drop(12.0, 8.0) == pytest.approx(100.0 / 3.0, abs=0.05)
    dataset = dataset_from_doc(json.loads(headline["manifest"]))
    ws = json.loads(headline["workspace"])
    model = gcn_from_doc(ws["checkpoints"]["gnn"])
    drops: list[float] = []
    for i in dataset.split["test"]:
        sample = dataset.samples[i]
        if sample.label != 1 or sample.source is None:
            continue
        if float(predict_graphs(model, [sample.graph])[0]) < 0.5:
            continue
        tree = parse_source(sample.source)
        pre = max((cyclomatic(f) for f in tree.functions()), default=0)
        if pre < 12:
            continue
        suggestion = suggest_split(model, build_graph(tree), split_points(tree))
        if suggestion.node_id is None:
            continue
        after = extract_split(tree, suggestion.node_id)
        post = max((cyclomatic(f) for f in after.functions()), default=0)
        drops.append(metric_drop(float(pre), float(post)))
    mean_drop = float(np.mean(drops)) if drops else 0.0
    ok = len(drops) > 0 and mean_drop >= 25.0
    verdict(6, ok, f"{len(drops)} hot true positives, mean complexity drop {mean_drop:.1f}% (>= 25%)")
    assert drops, "no qualifying samples"
    assert mean_drop >= 25.0


# --- criterion 7: split transform preserves behavior ------------------------------------


def test_criterion_07_200_splits_with_100_random_bindings_each():
    rng = Rng(4242)
    divergences = 0
    checked = 0
    for case in range(200):
        family = "pos_large" if case % 2 else "pos_small"
        src = generate_program(Rng(9000 + case), family)
        tree = parse_source(src)
        label, split_node = structural_label(tree)
        assert label == 1
        assert split_node in split_points(tree)
        after = extract_split(tree, split_node)
        fn = tree.nodes[tree.enclosing_function(split_node)]
        fn_name = fn.name
        arity = len(fn.params)
        for _ in range(100):
            args = [rng.randint(0, 6) for _ in range(arity)]
            if behavior_fingerprint(tree, fn_name, args) != behavior_fingerprint(
                after, fn_name, args
            ):
                divergences += 1
            checked += 1
    ok = divergences == 0 and checked == 20000
    verdict(7, ok, f"{checked} paired runs across 200 transforms, {divergences} divergences")
    assert checked == 20000
    assert divergences == 0


# --- criterion 8: byte-identical reruns ---------------------------------------------------


def test_criterion_08_pipeline_is_byte_deterministic(headline):
    again = run_headline_pipeline()
    same_manifest = again["manifest"] == headline["manifest"]
    same_workspace = again["workspace"] == headline["workspace"]
    same_report = again["report"] == headline["report"]
    ok = same_manifest and same_workspace and same_report
    verdict(
        8,
        ok,
        "rerun byte-identical: "
        f"manifest={same_manifest} workspace+checkpoints={same_workspace} report={same_report}",
    )
    assert same_manifest
    assert same_workspace
    assert same_report


# --- criterion 9: exact rule thresholds ----------------------------------------------------


def _fn_with_cc(cc: int) -> str:
    body = "".join(f"    if a > {i}:\n        a = a + 1\n" for i in range(cc - 1))
    return f"def dense(a):\n{body}    return a\n"


def _fn_with_lines(lines: int) -> str:
    body = "".join(f"    v{i} = {i}\n" for i in range(lines - 2))
    return f"def long(a):\n{body}    return a\n"


def _module_with_coupling(deps: int) -> str:
    imports = "".join(f"import mod{i}\n" for i in range(deps))
    calls = "".join(f"x{i} = mod{i}.pull({i})\n" for i in range(deps))
    return imports + calls + "y = 1\n"


def test_criterion_09_rule_boundaries_are_exact():
    def rules_for(src: str) -> set[str]:
        return {f.rule for f in analyze_rules(parse_source(src))}

    checks = [
        ("HighComplexity" not in rules_for(_fn_with_cc(10)), "cc=10 silent"),
        ("HighComplexity" in rules_for(_fn_with_cc(11)), "cc=11 flagged"),
        ("LongMethod" not in rules_for(_fn_with_lines(20)), "lines=20 silent"),
        ("LongMethod" in rules_for(_fn_with_lines(21)), "lines=21 flagged"),
        ("HighCoupling" not in rules_for(_module_with_coupling(5)), "deps=5 silent"),
        ("HighCoupling" in rules_for(_module_with_coupling(6)), "deps=6 flagged"),
    ]
    failed = [label for passed, label in checks if not passed]
    ok = not failed
    verdict(9, ok, "boundaries exact at cc 10, lines 20, coupling 5" if ok else f"failed: {failed}")
    assert not failed


# --- criterion 10: precision-recall area oracle -------------------------------------------


def test_criterion_10_pr_auc_hand_values():
    curve = pr_curve([0.9, 0.8, 0.3], [1, 0, 1])
    err_mixed = abs(curve.auc - 19 / 24)
    perfect = pr_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    err_perfect = abs(perfect.auc - 1.0)
    ok = err_mixed <= 1e-12 and err_perfect <= 1e-12
    verdict(
        10,
        ok,
        f"3-point AUC err {err_mixed:.2e}, separable AUC err {err_perfect:.2e} (<= 1e-12)",
    )
    assert err_mixed <= 1e-12
    assert err_perfect <= 1e-12


# --- criterion 11: ingest provenance accounting --------------------------------------------

POSITIVE_TEMPLATE = (
    "def work(a):\n"
    "    acc = a + {i}\n"
    "    for j in range(a):\n"
    "        if acc > 3:\n"
    "            acc = acc + 1\n"
    "            if a > 5:\n"
    "                acc = acc + 2\n"
    "    out = acc * 2\n"
    "    return out\n"
)

NEGATIVE_TEMPLATE = "def calc(x):\n    y = x * {i}\n    return y\n"


def test_criterion_11_provenance_counts_are_exact(tmp_path):
    for i in range(10):
        (tmp_path / f"pos_{i:02d}.mpy").write_text(POSITIVE_TEMPLATE.format(i=i))
    for i in range(20):
        (tmp_path / f"neg_{i:02d}.mpy").write_text(NEGATIVE_TEMPLATE.format(i=i))
    # 6 of 40 files (15%) duplicate the first negative body
    for i in range(6):
        (tmp_path / f"dup_{i}.mpy").write_text(NEGATIVE_TEMPLATE.format(i=0))
    for i in range(4):
        (tmp_path / f"broken_{i}.mpy").write_text(f"def nope{i}(:\n")

    units, prov = ingest_dir(tmp_path)
    ds = build_dataset(units, seed=11, provenance=prov)
    got = ds.provenance.to_doc()
    want = {
        "ingested": 40,
        "parse_failed": 4,
        "deduped": 6,
        "trivial_dropped": 0,
        "oversampled": 4,  # 10 of 30 -> 14 of 34 reaches the 40% floor
    }
    ok = got == want and len(ds.samples) == 34
    verdict(11, ok, f"provenance {got}, {len(ds.samples)} samples (want {want}, 34)")
    assert got == want
    assert len(ds.samples) == 34
