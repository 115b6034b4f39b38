"""Maintainability metrics: complexity, coupling, flat vectors, capping."""

from __future__ import annotations

import pytest

from refactorlab.errors import DataError, EmptyInputError, InvariantError
from refactorlab.graph import build_graph
from refactorlab.metrics import (
    FLAT_COUPLING,
    FLAT_DIM,
    FLAT_FEATURE_NAMES,
    FLAT_LINES,
    FLAT_NODES,
    FLAT_TOTAL_CC,
    FlatFeatures,
    cap_outliers,
    coupling,
    cyclomatic,
    cyclomatic_cfg_oracle,
    flat_features,
    metrics_report,
    percentile_nearest_rank,
)
from refactorlab.minipy.parser import parse_source
from refactorlab.rng import Rng
from refactorlab.synth import generate_units

from conftest import COUPLED_SRC, IMPORT_HEAVY_SRC, PLAIN_SRC, SPLITTABLE_SRC


def first_fn(src: str):
    return parse_source(src).functions()[0]


# --- cyclomatic complexity --------------------------------------------------------


def test_straight_line_function_is_one():
    assert cyclomatic(first_fn("def f(a):\n    x = a + 1\n    return x\n")) == 1


def test_each_decision_adds_one():
    src = (
        "def f(a):\n"
        "    if a > 1:\n"
        "        a = a - 1\n"
        "    if a > 2:\n"
        "        a = a - 2\n"
        "    for i in range(a):\n"
        "        a = a + i\n"
        "    while a > 50:\n"
        "        a = a - 5\n"
        "    return a\n"
    )
    assert cyclomatic(first_fn(src)) == 5


def test_elif_counts_as_decision():
    src = (
        "def f(a):\n"
        "    if a > 4:\n"
        "        return 2\n"
        "    elif a > 2:\n"
        "        return 1\n"
        "    else:\n"
        "        return 0\n"
    )
    assert cyclomatic(first_fn(src)) == 3  # if + desugared elif


def test_nested_function_is_opaque():
    src = (
        "def outer(a):\n"
        "    def inner(b):\n"
        "        if b > 1:\n"
        "            return 1\n"
        "        return 0\n"
        "    if a > 2:\n"
        "        return inner(a)\n"
        "    return 0\n"
    )
    tree = parse_source(src)
    outer, inner = tree.functions()
    assert cyclomatic(outer) == 2  # only its own if
    assert cyclomatic(inner) == 2


def test_cyclomatic_requires_function_node():
    with pytest.raises(InvariantError):
        cyclomatic(parse_source("x = 1\n").root)


@pytest.mark.parametrize(
    "src,expected",
    [
        ("def f(a):\n    return a\n", 1),
        ("def f(a):\n    if a > 1:\n        return 1\n    return 0\n", 2),
        (SPLITTABLE_SRC, 4),
    ],
)
def test_decision_count_agrees_with_cfg_oracle(src, expected):
    fn = first_fn(src)
    assert cyclomatic(fn) == expected
    assert cyclomatic_cfg_oracle(fn) == expected


def test_cfg_oracle_agrees_on_random_functions():
    # quick structural cross-check; the acceptance suite runs the full sweep
    for unit in generate_units(60, seed=13):
        for fn in parse_source(unit.body).functions():
            assert cyclomatic(fn) == cyclomatic_cfg_oracle(fn), unit.path


# --- coupling ---------------------------------------------------------------------


def test_coupling_counts_used_imports_only():
    src = "import used\nimport unused\n\ndef f(x):\n    return used.pull(x)\n"
    assert coupling(parse_source(src)) == 1
    # plain calls, local or not, reach no imported module
    src = "def local(x):\n    return x\n\ny = local(1)\nz = faraway(2)\n"
    assert coupling(parse_source(src)) == 0


def test_coupling_distinct_modules_not_calls():
    src = "import m\nx = m.a(1)\ny = m.b(2)\nz = m.a(3)\n"
    assert coupling(parse_source(src)) == 1


def test_coupling_over_a_subtree():
    tree = parse_source(COUPLED_SRC)
    relay, mix = tree.functions()
    # an import anywhere in the tree counts for every subtree that calls into it
    assert coupling(tree) == coupling(tree, 0) == 6
    assert coupling(tree, relay.id) == 5  # alpha, zeta, and mix's beta, gamma, delta
    assert coupling(tree, mix.id) == 3
    statement = tree.root.children[-2]  # y = epsilon.push(x)
    assert coupling(tree, statement.id) == 1


def test_coupling_six_imports():
    assert coupling(parse_source(IMPORT_HEAVY_SRC)) == 6


# --- report -----------------------------------------------------------------------


def test_metrics_report_fixture_values():
    report = metrics_report(parse_source(SPLITTABLE_SRC))
    assert report.per_function == {"tally": {"cyclomatic": 4, "lines": 11}}
    assert report.module["functions"] == 1
    assert report.module["loops"] == 1
    assert report.module["coupling"] == 0
    assert report.module["total_cyclomatic"] == 4
    assert report.module["max_scope_depth"] == 1


def test_metrics_report_duplicate_names_keyed_by_line():
    src = "def f(a):\n    return a\n\ndef f(b):\n    return b + 1\n"
    report = metrics_report(parse_source(src))
    assert len(report.per_function) == 2
    assert any("@L" in k for k in report.per_function)


# --- flat features -----------------------------------------------------------------


def test_flat_vector_shape_and_names():
    assert FLAT_DIM == 35
    assert len(FLAT_FEATURE_NAMES) == 35
    tree = parse_source(SPLITTABLE_SRC)
    flat = flat_features(tree)
    assert len(flat.values) == 35
    assert list(flat.named()) == list(FLAT_FEATURE_NAMES)


def test_flat_selected_entries_fixture():
    tree = parse_source(SPLITTABLE_SRC)
    graph = build_graph(tree)
    named = flat_features(tree).named()
    assert named["lines"] == 13.0
    assert named["nodes"] == float(len(graph.nodes))
    assert named["edges"] == float(len(graph.src))
    assert named["loops"] == 1.0
    assert named["functions"] == 1.0
    assert named["total_CC"] == 4.0
    assert named["max_fn_CC"] == 4.0
    assert named["coupling"] == 0.0
    assert named["count_If"] == 2.0
    assert named["count_For"] == 1.0
    assert named["return_count"] == 1.0


def test_flat_empty_module_is_zero_vector():
    tree = parse_source("\n")
    assert flat_features(tree).values == [0.0] * FLAT_DIM


def test_flat_features_reject_wrong_dim():
    with pytest.raises(DataError):
        FlatFeatures([0.0] * 34)


def test_plain_module_has_no_decisions():
    tree = parse_source(PLAIN_SRC)
    named = flat_features(tree).named()
    assert named["total_CC"] == 1.0
    assert named["count_If"] == 0.0


# --- percentile and capping ----------------------------------------------------------


def test_percentile_nearest_rank_by_hand():
    data = [float(v) for v in range(1, 11)]  # 1..10
    assert percentile_nearest_rank(data, 50.0) == 5.0
    assert percentile_nearest_rank(data, 90.0) == 9.0
    assert percentile_nearest_rank(data, 100.0) == 10.0
    assert percentile_nearest_rank(data, 1.0) == 1.0
    with pytest.raises(EmptyInputError):
        percentile_nearest_rank([], 50.0)


def make_flat(lines: float, nodes: float, cc: float) -> FlatFeatures:
    values = [0.0] * FLAT_DIM
    values[FLAT_LINES] = lines
    values[FLAT_NODES] = nodes
    values[FLAT_TOTAL_CC] = cc
    return FlatFeatures(values)


def test_cap_outliers_clamps_to_percentile():
    flats = [make_flat(float(10 * i), 5.0, 2.0) for i in range(1, 11)]
    capped = cap_outliers(flats, percentile=90.0)
    lines = [f.values[FLAT_LINES] for f in capped]
    assert max(lines) == 90.0  # the 100-line outlier clamps to the 90th rank
    assert lines[:9] == [float(10 * i) for i in range(1, 10)]


def test_cap_outliers_fallback_wins_when_smaller():
    flats = [make_flat(500.0, 5.0, 2.0) for _ in range(4)]
    capped = cap_outliers(flats, percentile=100.0)
    assert all(f.values[FLAT_LINES] == 200.0 for f in capped)  # fallback cap


def test_cap_outliers_idempotent():
    rng = Rng(3)
    flats = [
        make_flat(float(rng.randint(1, 400)), float(rng.randint(1, 90)), float(rng.randint(1, 40)))
        for _ in range(50)
    ]
    once = cap_outliers(flats, percentile=95.0)
    twice = cap_outliers(once, percentile=95.0)
    assert [f.values for f in twice] == [f.values for f in once]


def test_cap_outliers_leaves_other_columns_alone():
    flats = [make_flat(300.0, 80.0, 30.0)]
    flats[0].values[FLAT_COUPLING] = 9.0
    capped = cap_outliers(flats)
    assert capped[0].values[FLAT_COUPLING] == 9.0


def test_cap_outliers_validates_input():
    with pytest.raises(EmptyInputError):
        cap_outliers([])
    with pytest.raises(DataError):
        cap_outliers([make_flat(1, 1, 1)], percentile=0.0)
