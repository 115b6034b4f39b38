"""Attributed code graphs over MiniPy ASTs.

A code graph keeps every AST node and adds five edge kinds:

* Parent: AST parent -> child.
* NextSibling: consecutive children of one parent, left -> right.
* Calls: Call node -> FunctionDef it names, when defined in the same tree.
* ControlFlow: loop back edge, last body statement -> loop header.
* DataFlow: Assign -> every later node in the same function scope that
  reads the assigned name (one edge per assign/reader pair).  This is not
  last-write: an assign links to readers past a later reassignment too.

A graph is arrays, as in PyTorch Geometric's ``Data(x, edge_index)``: an
n x 12 float64 node-feature matrix ``x`` (its columns are documented next
to their layout constants below) and each edge's ``src``, ``dst`` and
``kind``, all read-only.  Its Parent links are its tree's own ``parent``
and ``depths`` lists.  An edge's 6 features are functions of (src, dst,
kind) and the Parent tree, so ``edge_features`` derives them when asked.
A graph is a pure function of its tree, so nothing reads graphs back:
``emit_graph_doc`` writes the versioned output document of the ``graph``
command, which adds each edge's derived features.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator

import numpy as np

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

FLOW_KINDS = frozenset(EDGE_KIND_INDEX[k] for k in ("Parent", "NextSibling", "ControlFlow"))


@dataclass(eq=False)
class CodeGraph:
    """Node kinds and feature rows by id, edges as ``EDGE_KINDS`` indices,
    and the tree's ``parent`` (None at the root) and ``depth`` lists.  The
    arrays are made read-only, so an in-place write raises instead of
    changing a cached graph or a ``dataclasses.replace`` copy sharing them."""

    nodes: list[str]
    x: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    kind: np.ndarray
    parent: list[int | None]
    depth: list[int]

    def __post_init__(self) -> None:
        for array in (self.x, self.src, self.dst, self.kind):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.nodes)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Each edge's (src, dst, kind index) as Python ints, in edge order."""
        return zip(self.src.tolist(), self.dst.tolist(), self.kind.tolist())


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


def _node_features(tree: AstTree, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The n x 12 feature matrix, built column by column (``NODE_FEATURE_NAMES``)."""
    n = len(tree)
    # one bottom-up pass: preorder puts every child after its parent, so in
    # reverse order each node's children are complete when it is reached
    size = [1] * n
    loops = [0] * n
    imports = [0] * n
    decisions = [0] * n
    variables = [0] * n
    names: list[set[str] | None] = [None] * n
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
        variables[i] = len(own)  # now: a parent may merge into this set
    # every column holds small integers but the kind index, so the float64
    # cast is exact
    return np.column_stack(
        [
            [node.span[1] - node.span[0] + 1 for node in tree.nodes],
            tree.depths,
            [KIND_INDEX[node.kind] / 10.0 for node in tree.nodes],
            tree.scope_depths,
            variables,
            np.bincount(dst, minlength=n),
            np.bincount(src, minlength=n),
            loops,
            imports,
            [1 + d for d in decisions],
            [len(node.children) for node in tree.nodes],
            size,
        ]
    ).astype(np.float64, copy=False)


# --- graph construction -----------------------------------------------------------


def build_graph(tree: AstTree) -> CodeGraph:
    """Build the attributed graph for a tree.

    Node order follows preorder ids; edge order is Parent, NextSibling,
    Calls, ControlFlow, DataFlow, each block in ascending node order, so
    the output is deterministic for a given tree.
    """
    triples = structural_edges(tree)
    src, dst, kinds = zip(*triples) if triples else ((), (), ())
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    return CodeGraph(
        nodes=[node.kind for node in tree.nodes],
        x=_node_features(tree, src, dst),
        src=src,
        dst=dst,
        kind=np.array([EDGE_KIND_INDEX[k] for k in kinds], dtype=np.int8),
        parent=tree.parent,
        depth=tree.depths,
    )


# --- edge features -----------------------------------------------------------------


def edge_features(graph: CodeGraph) -> list[list[float]]:
    """The 6 features of each edge, in edge order (``EDGE_FEATURE_NAMES``).

    The tree distance climbs from both ends to their lowest common
    ancestor in the graph's Parent tree: the deeper end first, then both
    ends together until they meet.
    """
    parent, depth = graph.parent, graph.depth
    rows: list[list[float]] = []
    for src, dst, kind in graph.edges():
        a, b = src, dst
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
                kind / 5.0,
                float(distance),
                1.0,
                1.0 if kind in FLOW_KINDS else 0.0,
                1.0 if src < dst else 0.0,
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
            {"id": i, "kind": kind, "features": row}
            for i, (kind, row) in enumerate(zip(graph.nodes, graph.x.tolist()))
        ],
        "edges": [{"src": s, "dst": d, "kind": EDGE_KINDS[k]} for s, d, k in graph.edges()],
    }
