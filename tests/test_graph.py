"""Attributed code graphs: edges, feature vectors, and interchange documents."""

from __future__ import annotations

import pytest

from refactorlab.errors import SchemaError
from refactorlab.graph import (
    EDGE_FEATURE_DIM,
    EDGE_FEATURE_NAMES,
    EDGE_KINDS,
    NODE_FEATURE_DIM,
    NODE_FEATURE_NAMES,
    build_graph,
    emit_graph_doc,
    ingest_graph_doc,
)
from refactorlab.minipy.parser import parse_source

from conftest import IMPORT_HEAVY_SRC, SPLITTABLE_SRC

TINY_SRC = "def f(a):\n    x = a + 1\n    return x\n"


def edge_set(graph, kind: str) -> set[tuple[int, int]]:
    return {(e.src, e.dst) for e in graph.edges if e.kind == kind}


# --- layout constants ---------------------------------------------------------


def test_feature_layout_is_fixed():
    assert NODE_FEATURE_DIM == 12
    assert EDGE_FEATURE_DIM == 6
    assert len(NODE_FEATURE_NAMES) == 12
    assert len(EDGE_FEATURE_NAMES) == 6
    assert EDGE_KINDS == ("Parent", "NextSibling", "Calls", "ControlFlow", "DataFlow")


# --- edges -------------------------------------------------------------------


def test_tiny_graph_exact_edges():
    # Module(0) -> FunctionDef(1) -> [Assign(2) "x", Return(3) reading x]
    graph = build_graph(parse_source(TINY_SRC))
    assert [(n.id, n.kind) for n in graph.nodes] == [
        (0, "Module"),
        (1, "FunctionDef"),
        (2, "Assign"),
        (3, "Return"),
    ]
    assert edge_set(graph, "Parent") == {(0, 1), (1, 2), (1, 3)}
    assert edge_set(graph, "NextSibling") == {(2, 3)}
    assert edge_set(graph, "DataFlow") == {(2, 3)}
    assert edge_set(graph, "Calls") == set()
    assert edge_set(graph, "ControlFlow") == set()


def test_loop_back_edge():
    graph = build_graph(parse_source("for i in range(3):\n    x = i\n    y = x\n"))
    loop = next(n for n in graph.nodes if n.kind == "For")
    backs = edge_set(graph, "ControlFlow")
    assert len(backs) == 1
    src, dst = next(iter(backs))
    assert dst == loop.id  # last body statement points back at the header
    assert src > loop.id


def test_calls_edge_to_same_tree_function():
    src = "def helper(x):\n    return x\n\ndef go(y):\n    z = helper(y)\n    return z\n"
    graph = build_graph(parse_source(src))
    tree = parse_source(src)
    helper_id = next(f.id for f in tree.functions() if f.name == "helper")
    calls = edge_set(graph, "Calls")
    assert len(calls) == 1
    assert next(iter(calls))[1] == helper_id


def test_no_calls_edge_for_external_and_builtin():
    graph = build_graph(parse_source("import m\nx = m.f(1)\ny = range(2)\n"))
    assert edge_set(graph, "Calls") == set()


def test_dataflow_respects_function_scope():
    # the module 'x' and the function-local 'x' are different variables
    src = "x = 1\ndef f(a):\n    x = a\n    return x\n\ny = x + 1\n"
    graph = build_graph(parse_source(src))
    tree = parse_source(src)
    module_assign = next(
        n.id for n in tree.nodes if n.kind == "Assign" and n.name == "x" and tree.parent[n.id] == 0
    )
    local_assign = next(
        n.id for n in tree.nodes if n.kind == "Assign" and n.name == "x" and tree.parent[n.id] != 0
    )
    flows = edge_set(graph, "DataFlow")
    # local x feeds the local return; module x feeds the trailing y assign
    assert any(s == local_assign for s, _ in flows)
    assert any(s == module_assign for s, _ in flows)
    assert not any(
        s == module_assign and d == local_assign + 1 for s, d in flows
    )  # no cross-scope edge into the function body


def test_edge_blocks_in_canonical_order():
    graph = build_graph(parse_source(SPLITTABLE_SRC))
    kinds = [e.kind for e in graph.edges]
    order = {k: i for i, k in enumerate(EDGE_KINDS)}
    assert kinds == sorted(kinds, key=lambda k: order[k])


# --- node features ---------------------------------------------------------------


def test_tiny_graph_assign_features_by_hand():
    # Assign node "x = a + 1": one line, depth 2, kind index 5, one
    # enclosing function, defines one variable, receives one Parent edge,
    # emits NextSibling + DataFlow, no loops or imports below it,
    # complexity 1, no children, subtree of one node.
    assert build_graph(parse_source(TINY_SRC)).nodes[2].features == [
        1.0,
        2.0,
        0.5,
        1.0,
        1.0,
        1.0,
        2.0,
        0.0,
        0.0,
        1.0,
        0.0,
        1.0,
    ]


def test_function_node_rolls_up_subtree():
    tree = parse_source(SPLITTABLE_SRC)
    fn = tree.functions()[0]
    feats = build_graph(tree).nodes[fn.id].features
    names = dict(zip(NODE_FEATURE_NAMES, feats))
    assert names["lines_in_subtree"] == 11.0
    assert names["scope_depth"] == 0.0
    assert names["loop_count_in_subtree"] == 1.0
    assert names["subtree_cyclomatic"] == 4.0  # loop + if + nested if
    assert names["variables_in_subtree"] == 4.0  # acc, i, scaled, extra


def test_import_counts():
    tree = parse_source(IMPORT_HEAVY_SRC)
    feats = build_graph(tree).nodes[0].features
    assert dict(zip(NODE_FEATURE_NAMES, feats))["imports_in_subtree"] == 6.0


def test_degrees_count_all_edge_kinds():
    graph = build_graph(parse_source(TINY_SRC))
    by_id = {n.id: n.features for n in graph.nodes}
    names = NODE_FEATURE_NAMES
    in_i, out_i = names.index("in_degree"), names.index("out_degree")
    # Return(3): Parent in, NextSibling in, DataFlow in; no outgoing
    assert by_id[3][in_i] == 3.0 and by_id[3][out_i] == 0.0
    # Module(0): no incoming; one Parent out
    assert by_id[0][in_i] == 0.0 and by_id[0][out_i] == 1.0


# --- edge features ---------------------------------------------------------------


def test_edge_features_by_hand():
    graph = build_graph(parse_source(TINY_SRC))
    sib = next(e for e in graph.edges if e.kind == "NextSibling")
    # kind index 1 of 5, two hops through the shared parent, weight one,
    # structural-flow flag on, ascending direction, strength 1/(1+2)
    assert sib.features == [0.2, 2.0, 1.0, 1.0, 1.0, pytest.approx(1 / 3)]
    flow = next(e for e in graph.edges if e.kind == "DataFlow")
    assert flow.features[0] == pytest.approx(4 / 5)
    assert flow.features[3] == 0.0  # not a structural-flow kind


def test_backedge_direction_flag():
    graph = build_graph(parse_source("for i in range(3):\n    x = i\n"))
    back = next(e for e in graph.edges if e.kind == "ControlFlow")
    assert back.src > back.dst
    assert back.features[4] == 0.0


# --- determinism and documents ------------------------------------------------------


def test_build_graph_deterministic():
    a = emit_graph_doc(build_graph(parse_source(SPLITTABLE_SRC)))
    b = emit_graph_doc(build_graph(parse_source(SPLITTABLE_SRC)))
    assert a == b


def test_graph_doc_round_trip():
    graph = build_graph(parse_source(SPLITTABLE_SRC), label=1, split_node=9)
    doc = emit_graph_doc(graph)
    back = ingest_graph_doc(doc)
    assert emit_graph_doc(back) == doc
    assert back.label == 1 and back.split_node == 9
    assert doc["version"] == "1"


def test_graph_doc_rejects_violations():
    base = emit_graph_doc(build_graph(parse_source(TINY_SRC)))

    def corrupt(mutate):
        import copy

        doc = copy.deepcopy(base)
        mutate(doc)
        with pytest.raises(SchemaError):
            ingest_graph_doc(doc)

    corrupt(lambda d: d.update(version="9"))
    corrupt(lambda d: d.update(extra=1))
    corrupt(lambda d: d["nodes"][0].update(kind="Mystery"))
    corrupt(lambda d: d["nodes"][0]["features"].pop())
    corrupt(lambda d: d["nodes"][0]["features"].__setitem__(0, float("nan")))
    corrupt(lambda d: d["edges"][0].update(kind="Teleport"))
    corrupt(lambda d: d["edges"][0].update(dst=99))
    corrupt(lambda d: d["edges"].append(dict(d["edges"][0])))  # duplicate Parent edge
    corrupt(lambda d: d.update(label=2))
    # bools posing as ints
    corrupt(lambda d: d.update(split_node=True))
    corrupt(lambda d: d.update(label=True))
    corrupt(lambda d: d["nodes"][0].update(id=False))


def test_graph_doc_parent_edges_must_form_tree():
    doc = emit_graph_doc(build_graph(parse_source(TINY_SRC)))
    # redirect the FunctionDef's parent edge onto itself: cycle, two roots
    for e in doc["edges"]:
        if e["kind"] == "Parent" and e["dst"] == 1:
            e["src"] = 1
    with pytest.raises(SchemaError):
        ingest_graph_doc(doc)
