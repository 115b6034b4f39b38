"""Attributed code graphs: edges, feature vectors, and interchange documents."""

from __future__ import annotations

import numpy as np
import pytest

from refactorlab import graph as graph_module
from refactorlab.graph import (
    EDGE_FEATURE_DIM,
    EDGE_FEATURE_NAMES,
    EDGE_KINDS,
    NODE_FEATURE_DIM,
    NODE_FEATURE_NAMES,
    _node_reads,
    build_graph,
    edge_features,
    emit_graph_doc,
)
from refactorlab.minipy.nodes import KIND_INDEX, AstNode, count_decisions
from refactorlab.minipy.parser import parse_source
from refactorlab.synth import generate_units

from conftest import IMPORT_HEAVY_SRC, SPLITTABLE_SRC, edge_triples, grown_source

TINY_SRC = "def f(a):\n    x = a + 1\n    return x\n"


def edge_set(graph, kind: str) -> set[tuple[int, int]]:
    return {(src, dst) for src, dst, k in edge_triples(graph) if k == kind}


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
    assert list(enumerate(graph.nodes)) == [
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
    loop = graph.nodes.index("For")
    backs = edge_set(graph, "ControlFlow")
    assert len(backs) == 1
    src, dst = next(iter(backs))
    assert dst == loop  # last body statement points back at the header
    assert src > loop


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
    kinds = [k for _, _, k in edge_triples(graph)]
    order = {k: i for i, k in enumerate(EDGE_KINDS)}
    assert kinds == sorted(kinds, key=lambda k: order[k])


# --- node features ---------------------------------------------------------------


def test_tiny_graph_assign_features_by_hand():
    # Assign node "x = a + 1": one line, depth 2, kind index 5, one
    # enclosing function, defines one variable, receives one Parent edge,
    # emits NextSibling + DataFlow, no loops or imports below it,
    # complexity 1, no children, subtree of one node.
    assert build_graph(parse_source(TINY_SRC)).x[2].tolist() == [
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
    feats = build_graph(tree).x[fn.id].tolist()
    names = dict(zip(NODE_FEATURE_NAMES, feats))
    assert names["lines_in_subtree"] == 11.0
    assert names["scope_depth"] == 0.0
    assert names["loop_count_in_subtree"] == 1.0
    assert names["subtree_cyclomatic"] == 4.0  # loop + if + nested if
    assert names["variables_in_subtree"] == 4.0  # acc, i, scaled, extra


def test_import_counts():
    tree = parse_source(IMPORT_HEAVY_SRC)
    feats = build_graph(tree).x[0].tolist()
    assert dict(zip(NODE_FEATURE_NAMES, feats))["imports_in_subtree"] == 6.0


def test_degrees_count_all_edge_kinds():
    graph = build_graph(parse_source(TINY_SRC))
    by_id = graph.x.tolist()
    names = NODE_FEATURE_NAMES
    in_i, out_i = names.index("in_degree"), names.index("out_degree")
    # Return(3): Parent in, NextSibling in, DataFlow in; no outgoing
    assert by_id[3][in_i] == 3.0 and by_id[3][out_i] == 0.0
    # Module(0): no incoming; one Parent out
    assert by_id[0][in_i] == 0.0 and by_id[0][out_i] == 1.0


# --- edge features ---------------------------------------------------------------


def features_of(graph, kind: str) -> list[float]:
    """The derived features of the first edge of one kind."""
    return next(row for e, row in zip(edge_triples(graph), edge_features(graph)) if e[2] == kind)


def test_edge_features_by_hand():
    graph = build_graph(parse_source(TINY_SRC))
    # kind index 1 of 5, two hops through the shared parent, weight one,
    # structural-flow flag on, ascending direction, strength 1/(1+2)
    assert features_of(graph, "NextSibling") == [0.2, 2.0, 1.0, 1.0, 1.0, pytest.approx(1 / 3)]
    flow = features_of(graph, "DataFlow")
    assert flow[0] == pytest.approx(4 / 5)
    assert flow[3] == 0.0  # not a structural-flow kind


def test_backedge_direction_flag():
    graph = build_graph(parse_source("for i in range(3):\n    x = i\n"))
    src, dst = edge_set(graph, "ControlFlow").pop()
    assert src > dst
    assert features_of(graph, "ControlFlow")[4] == 0.0


# --- determinism and documents ------------------------------------------------------


def test_build_graph_deterministic():
    a = emit_graph_doc(build_graph(parse_source(SPLITTABLE_SRC)))
    b = emit_graph_doc(build_graph(parse_source(SPLITTABLE_SRC)))
    assert a == b


@pytest.mark.parametrize(
    "sources",
    [[u.body for u in generate_units(400, 101)], [grown_source(2000)]],
    ids=["units-400-101", "grown-2000"],
)
def test_parent_links_are_the_trees_and_agree_with_the_parent_edges(sources):
    for src in sources:
        tree = parse_source(src)
        graph = build_graph(tree)
        assert graph.parent is tree.parent and graph.depth is tree.depths  # shared
        parent = [None] * len(graph)
        for s, d, kind in edge_triples(graph):
            if kind == "Parent":
                assert parent[d] is None, f"node {d} has two Parent edges"
                parent[d] = s
        assert graph.parent == parent
        depth = [0] * len(graph)
        for v, p in enumerate(parent):
            if p is not None:
                assert p < v  # preorder: a parent's depth is known first
                depth[v] = depth[p] + 1
        assert graph.depth == depth


def test_graph_arrays_reject_an_in_place_write():
    graph = build_graph(parse_source(TINY_SRC))
    assert graph.x.dtype == np.float64 and graph.x.shape == (len(graph), NODE_FEATURE_DIM)
    assert graph.kind.dtype == np.int8
    with pytest.raises(ValueError, match="read-only"):
        graph.x[0, 0] = 9.0
    with pytest.raises(ValueError, match="read-only"):
        graph.x *= 2.0
    for edges in (graph.src, graph.dst, graph.kind):
        with pytest.raises(ValueError, match="read-only"):
            edges[0] = 1
    assert graph.x.tolist() == build_graph(parse_source(TINY_SRC)).x.tolist()


# --- one-pass builds against the quadratic reference ---------------------------------


def reference_dataflow(tree) -> list[tuple[int, int]]:
    """Every Assign against every later node: the scan the index replaced."""
    flow = set()
    for assign in tree.nodes:
        if assign.kind != "Assign" or assign.name is None:
            continue
        scope = tree.enclosing[assign.id]
        for reader in tree.nodes[assign.id + 1:]:
            if tree.enclosing[reader.id] != scope:
                continue
            if assign.name in _node_reads(reader):
                flow.add((assign.id, reader.id))
    return sorted(flow)


def reference_node_features(tree, graph) -> list[list[float]]:
    """Four subtree walks per node: the table the bottom-up pass replaced."""
    in_deg = [0] * len(tree)
    out_deg = [0] * len(tree)
    for src, dst, _ in edge_triples(graph):
        out_deg[src] += 1
        in_deg[dst] += 1
    table = []
    for node in tree.nodes:
        variables = {
            d.name
            for d in node.walk()
            if d.kind in ("Assign", "For") and d.name is not None
        }
        table.append(
            [
                float(node.span[1] - node.span[0] + 1),
                float(tree.depths[node.id]),
                KIND_INDEX[node.kind] / 10.0,
                float(tree.scope_depths[node.id]),
                float(len(variables)),
                float(in_deg[node.id]),
                float(out_deg[node.id]),
                float(sum(1 for d in node.walk() if d.kind in ("For", "While"))),
                float(sum(1 for d in node.walk() if d.kind == "Import")),
                float(1 + count_decisions(node)),
                float(len(node.children)),
                float(sum(1 for _ in node.walk())),
            ]
        )
    return table


def assert_matches_reference(src: str):
    tree = parse_source(src)
    graph = build_graph(tree)
    flows = [(src, dst) for src, dst, kind in edge_triples(graph) if kind == "DataFlow"]
    assert flows == reference_dataflow(tree)
    assert graph.x.tolist() == reference_node_features(tree, graph)
    return tree, flows


SHADOWED_SRC = """\
def outer(a):
    x = a
    def inner(b):
        x = b
        return x
    return x + inner(x)
"""


def test_dataflow_of_a_name_shadowed_in_a_nested_function():
    # 2: outer's x, 4: inner's x, 5: inner's return, 6: outer's return,
    # 7: the call inner(x) inside it
    _, flows = assert_matches_reference(SHADOWED_SRC)
    assert flows == [(2, 6), (2, 7), (4, 5)]


def test_no_dataflow_from_module_level_into_a_function():
    _, flows = assert_matches_reference("y = 1\ndef f(a):\n    return y + a\n")
    assert flows == []


def test_dataflow_skips_an_assign_reading_its_own_name():
    # a = a + 1 reads the parameter, not itself; both assigns feed the return
    _, flows = assert_matches_reference("def f(a):\n    a = a + 1\n    a = a * 2\n    return a\n")
    assert flows == [(2, 3), (2, 4), (3, 4)]


def test_a_reader_naming_a_variable_twice_gets_one_edge():
    _, flows = assert_matches_reference("x = 2\ny = x * x + x\n")
    assert flows == [(1, 2)]


def test_dataflow_into_for_iterables_call_args_and_both_compare_sides():
    src = (
        "def f(n):\n"
        "    k = n\n"
        "    for i in k:\n"
        "        print(k, i)\n"
        "    while 0 < k:\n"
        "        k = k - 1\n"
        "    if k > 0:\n"
        "        k = 1\n"
        "    return k\n"
    )
    tree, flows = assert_matches_reference(src)
    k = 2  # the first assign of k
    readers = {tree.nodes[d].kind for s, d in flows if s == k}
    assert readers == {"For", "Call", "Compare", "Assign", "Return"}
    # k is the right operand of the While test and the left one of the If test
    compares = [n.id for n in tree.nodes if n.kind == "Compare"]
    assert len(compares) == 2 and all((k, c) in flows for c in compares)


def test_decisions_in_a_nested_function_stay_out_of_the_outer_node():
    src = (
        "def outer(a):\n"
        "    if a > 0:\n"
        "        a = 1\n"
        "    def inner(b):\n"
        "        if b > 0:\n"
        "            b = 2\n"
        "        for j in range(b):\n"
        "            b = j\n"
        "        return b\n"
        "    return a\n"
    )
    tree, _ = assert_matches_reference(src)
    cc = NODE_FEATURE_NAMES.index("subtree_cyclomatic")
    loops = NODE_FEATURE_NAMES.index("loop_count_in_subtree")
    x = build_graph(tree).x
    outer, inner = (f.id for f in tree.functions())
    assert x[0, cc] == 1.0
    assert x[outer, cc] == 2.0
    assert x[inner, cc] == 3.0
    assert x[outer, loops] == 1.0  # loops count through nested defs


def test_one_pass_build_matches_reference_on_a_corpus():
    for unit in generate_units(300, 11):
        assert_matches_reference(unit.body)


def test_build_reads_each_node_once_and_walks_no_subtree(monkeypatch):
    tree = parse_source(SHADOWED_SRC + SPLITTABLE_SRC)
    calls = []

    def counting_reads(node):
        calls.append(node.id)
        return _node_reads(node)

    def no_walk(self):
        raise AssertionError("build_graph walked a subtree")

    monkeypatch.setattr(graph_module, "_node_reads", counting_reads)
    monkeypatch.setattr(AstNode, "walk", no_walk)
    build_graph(tree)
    assert sorted(calls) == list(range(len(tree)))
