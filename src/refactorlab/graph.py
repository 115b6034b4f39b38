"""Attributed code graphs over MiniPy ASTs.

A code graph keeps every AST node and adds five edge kinds:

* Parent: AST parent -> child.
* NextSibling: consecutive children of one parent, left -> right.
* Calls: Call node -> FunctionDef it names, when defined in the same tree.
* ControlFlow: loop back edge, last body statement -> loop header.
* DataFlow: Assign -> every later node in the same function scope that
  reads the assigned name (one edge per assign/reader pair).  This is not
  last-write: an assign links to readers past a later reassignment too.

Nodes carry 12 features, documented next to their layout constants
below.  An edge is only (src, dst, kind): its 6 features are functions of
those three and the Parent tree, so ``edge_features`` derives them when
asked and no edge stores them.  A graph is a pure function of its tree,
so nothing reads graphs back: ``emit_graph_doc`` writes the versioned
output document of the ``graph`` command, which adds each edge's derived
features.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .errors import SchemaError
from .minipy.nodes import AstNode, AstTree, KIND_INDEX, expr_reads

EDGE_KINDS: tuple[str, ...] = (
    "Parent",
    "NextSibling",
    "Calls",
    "ControlFlow",
    "DataFlow",
)

EDGE_KIND_INDEX: dict[str, int] = {k: i for i, k in enumerate(EDGE_KINDS)}

# node feature layout (index -> meaning)
NODE_FEATURE_NAMES: tuple[str, ...] = (
    "lines_in_subtree",
    "tree_depth",
    "type_index_scaled",  # kind index / 10
    "scope_depth",  # enclosing FunctionDef count
    "variables_in_subtree",  # distinct assigned names + loop variables
    "in_degree",
    "out_degree",
    "loop_count_in_subtree",
    "imports_in_subtree",
    "subtree_cyclomatic",  # 1 + decisions, nested functions opaque
    "child_count",
    "subtree_node_count",
)

EDGE_FEATURE_NAMES: tuple[str, ...] = (
    "type_index_scaled",  # kind index / 5
    "tree_distance",
    "weight",  # always 1: build_graph emits each (src, dst, kind) once
    "flow_flag",  # 1 for Parent/NextSibling/ControlFlow
    "direction_flag",  # 1 when src id < dst id
    "strength",  # 1 / (1 + tree_distance)
)

NODE_FEATURE_DIM = len(NODE_FEATURE_NAMES)
EDGE_FEATURE_DIM = len(EDGE_FEATURE_NAMES)

# the feature columns read outside graph building
NODE_LINES = NODE_FEATURE_NAMES.index("lines_in_subtree")
NODE_TYPE_INDEX = NODE_FEATURE_NAMES.index("type_index_scaled")
NODE_SUBTREE_CC = NODE_FEATURE_NAMES.index("subtree_cyclomatic")
EDGE_STRENGTH = EDGE_FEATURE_NAMES.index("strength")

_FLOW_KINDS = frozenset({"Parent", "NextSibling", "ControlFlow"})


@dataclass
class NodeRecord:
    id: int
    kind: str
    features: list[float]


@dataclass(frozen=True)
class EdgeRecord:
    src: int
    dst: int
    kind: str


@dataclass
class CodeGraph:
    nodes: list[NodeRecord]
    edges: list[EdgeRecord]

    def __len__(self) -> int:
        return len(self.nodes)


# --- structural edge extraction ------------------------------------------------


def _node_reads(node: AstNode) -> list[str]:
    """Names read directly by this node's own payload expressions."""
    if node.kind in ("Assign", "Return", "For"):
        return expr_reads(node.value)
    if node.kind == "Compare":
        return expr_reads(node.left) + expr_reads(node.right)
    if node.kind == "Call":
        return [r for arg in node.args for r in expr_reads(arg)]
    return []


def structural_edges(tree: AstTree) -> list[tuple[int, int, str]]:
    """All (src, dst, kind) triples, in canonical order: the one definition of edges."""
    edges: list[tuple[int, int, str]] = []
    for node in tree.nodes:
        for child in node.children:
            edges.append((node.id, child.id, "Parent"))
    for node in tree.nodes:
        for a, b in zip(node.children, node.children[1:]):
            edges.append((a.id, b.id, "NextSibling"))
    fn_by_name: dict[str, int] = {}
    for fn in tree.functions():
        if fn.name is not None and fn.name not in fn_by_name:
            fn_by_name[fn.name] = fn.id
    for node in tree.nodes:
        if node.kind == "Call" and node.name in fn_by_name:
            edges.append((node.id, fn_by_name[node.name], "Calls"))
    for node in tree.nodes:
        if node.kind in ("For", "While"):
            body = node.body()
            if body:
                edges.append((body[-1].id, node.id, "ControlFlow"))
    # DataFlow: index each scope's readers of each name once, in ascending
    # id order; an Assign links to the readers after it
    readers: dict[tuple[int, str], list[int]] = {}
    assigns: list[AstNode] = []
    for node in tree.nodes:
        scope = tree.enclosing[node.id]
        for name in dict.fromkeys(_node_reads(node)):
            readers.setdefault((scope, name), []).append(node.id)
        if node.kind == "Assign" and node.name is not None:
            assigns.append(node)
    for assign in assigns:
        ids = readers.get((tree.enclosing[assign.id], assign.name), [])
        for dst in ids[bisect.bisect_right(ids, assign.id):]:
            edges.append((assign.id, dst, "DataFlow"))
    return edges


# --- node features ----------------------------------------------------------------


def _node_feature_table(
    tree: AstTree, edges: list[tuple[int, int, str]]
) -> list[list[float]]:
    n = len(tree)
    in_deg = [0] * n
    out_deg = [0] * n
    for src, dst, _ in edges:
        out_deg[src] += 1
        in_deg[dst] += 1
    # one bottom-up pass: preorder puts every child after its parent, so in
    # reverse order each node's children are complete when it is reached
    size = [1] * n
    loops = [0] * n
    imports = [0] * n
    decisions = [0] * n
    names: list[set[str] | None] = [None] * n
    table: list[list[float]] = []  # filled in reverse id order
    for node in reversed(tree.nodes):
        i = node.id
        own: set[str] = set()
        for child in node.children:
            c = child.id
            size[i] += size[c]
            loops[i] += loops[c]
            imports[i] += imports[c]
            if child.kind != "FunctionDef":  # nested functions are opaque
                decisions[i] += decisions[c]
            # merge the smaller set into the larger, then free the child's
            merged = names[c]
            if len(merged) > len(own):
                own, merged = merged, own
            own |= merged
            names[c] = None
        if node.kind in ("Assign", "For") and node.name is not None:
            own.add(node.name)
        if node.kind in ("For", "While"):
            loops[i] += 1
        if node.kind in ("If", "For", "While"):
            decisions[i] += 1
        if node.kind == "Import":
            imports[i] += 1
        names[i] = own
        table.append(
            [
                float(node.span[1] - node.span[0] + 1),
                float(tree.depths[i]),
                KIND_INDEX[node.kind] / 10.0,
                float(tree.scope_depths[i]),
                float(len(own)),
                float(in_deg[i]),
                float(out_deg[i]),
                float(loops[i]),
                float(imports[i]),
                float(1 + decisions[i]),
                float(len(node.children)),
                float(size[i]),
            ]
        )
    table.reverse()
    return table


# --- graph construction -----------------------------------------------------------


def build_graph(tree: AstTree) -> CodeGraph:
    """Build the attributed graph for a tree.

    Node order follows preorder ids; edge order is Parent, NextSibling,
    Calls, ControlFlow, DataFlow, each block in ascending node order, so
    the output is deterministic for a given tree.
    """
    triples = structural_edges(tree)
    features = _node_feature_table(tree, triples)
    nodes = [
        NodeRecord(id=node.id, kind=node.kind, features=features[node.id])
        for node in tree.nodes
    ]
    edges = [EdgeRecord(src=s, dst=d, kind=k) for s, d, k in triples]
    return CodeGraph(nodes=nodes, edges=edges)


# --- the Parent tree and edge features ---------------------------------------------


def parent_tree(graph: CodeGraph) -> tuple[list[int | None], list[int]]:
    """Each node's Parent-edge source (None at the root) and its depth.

    SchemaError unless the Parent edges form one tree over all nodes: no
    node with two Parent edges, exactly one root, no cycle.
    """
    n = len(graph.nodes)
    parent: list[int | None] = [None] * n
    for e in graph.edges:
        if e.kind != "Parent":
            continue
        if parent[e.dst] is not None:
            raise SchemaError(f"node {e.dst} has two Parent edges")
        parent[e.dst] = e.src
    roots = parent.count(None)
    if roots != 1:
        raise SchemaError(f"Parent edges must leave exactly one root, found {roots}")
    depth = [-1] * n  # -1 not yet known, -2 on the path being climbed
    for start in range(n):
        path = []
        v = start
        while v is not None and depth[v] < 0:
            if depth[v] == -2:
                raise SchemaError("Parent edges contain a cycle")
            depth[v] = -2
            path.append(v)
            v = parent[v]
        d = -1 if v is None else depth[v]
        for u in reversed(path):
            d += 1
            depth[u] = d
    return parent, depth


def edge_features(graph: CodeGraph) -> list[list[float]]:
    """The 6 features of each edge, in edge order (``EDGE_FEATURE_NAMES``).

    The tree distance climbs from both ends to their lowest common
    ancestor in the graph's Parent tree: the deeper end first, then both
    ends together until they meet.
    """
    parent, depth = parent_tree(graph)
    rows: list[list[float]] = []
    for e in graph.edges:
        a, b = e.src, e.dst
        distance = 0
        while depth[a] > depth[b]:
            a = parent[a]
            distance += 1
        while depth[b] > depth[a]:
            b = parent[b]
            distance += 1
        while a != b:
            a, b = parent[a], parent[b]
            distance += 2
        rows.append(
            [
                EDGE_KIND_INDEX[e.kind] / 5.0,
                float(distance),
                1.0,
                1.0 if e.kind in _FLOW_KINDS else 0.0,
                1.0 if e.src < e.dst else 0.0,
                1.0 / (1.0 + distance),
            ]
        )
    return rows


# --- output document ------------------------------------------------------------

GRAPH_DOC_VERSION = "2"


def emit_graph_doc(graph: CodeGraph) -> dict:
    """Serialize a graph to its output document: its version, nodes and edges.

    Version "2" dropped version 1's ``source_digest``, which the ``graph``
    command always wrote as 32 zeros.
    """
    return {
        "version": GRAPH_DOC_VERSION,
        "nodes": [
            {"id": n.id, "kind": n.kind, "features": list(n.features)} for n in graph.nodes
        ],
        "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind} for e in graph.edges],
    }
