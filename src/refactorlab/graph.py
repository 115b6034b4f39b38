"""Attributed code graphs over MiniPy ASTs.

A code graph keeps every AST node and adds five edge kinds:

* Parent: AST parent -> child.
* NextSibling: consecutive children of one parent, left -> right.
* Calls: Call node -> FunctionDef it names, when defined in the same tree.
* ControlFlow: loop back edge, last body statement -> loop header.
* DataFlow: Assign -> later node in the same function scope that reads
  the assigned name (one edge per assign/reader pair).

Nodes carry 12 features, edges carry 6; both are documented next to
their layout constants below.  Graphs serialize to a versioned JSON
document that round-trips losslessly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .errors import SchemaError
from .minipy.nodes import (
    AstNode,
    AstTree,
    KIND_INDEX,
    NODE_KINDS,
    count_decisions,
    expr_reads,
)

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

NODE_FEATURE_DIM = 12
EDGE_FEATURE_DIM = 6

# the feature columns read outside graph building
NODE_LINES = NODE_FEATURE_NAMES.index("lines_in_subtree")
NODE_SUBTREE_CC = NODE_FEATURE_NAMES.index("subtree_cyclomatic")
EDGE_STRENGTH = EDGE_FEATURE_NAMES.index("strength")

_FLOW_KINDS = frozenset({"Parent", "NextSibling", "ControlFlow"})


@dataclass
class NodeRecord:
    id: int
    kind: str
    features: list[float]


@dataclass
class EdgeRecord:
    src: int
    dst: int
    kind: str
    features: list[float]


@dataclass
class CodeGraph:
    nodes: list[NodeRecord]
    edges: list[EdgeRecord]
    source_digest: str
    label: int | None = None
    split_node: int | None = None

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


def _structural_edges(tree: AstTree) -> list[tuple[int, int, str]]:
    """All (src, dst, kind) triples, in canonical order."""
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
    flow: set[tuple[int, int]] = set()
    for assign in tree.nodes:
        if assign.kind != "Assign" or assign.name is None:
            continue
        scope = tree.enclosing_function(assign.id)
        for reader in tree.nodes[assign.id + 1:]:
            if tree.enclosing_function(reader.id) != scope:
                continue
            if assign.name in _node_reads(reader):
                flow.add((assign.id, reader.id))
    for src, dst in sorted(flow):
        edges.append((src, dst, "DataFlow"))
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
    table: list[list[float]] = []
    for node in tree.nodes:
        variables = {
            d.name
            for d in node.walk()
            if d.kind in ("Assign", "For") and d.name is not None
        }
        loops = sum(1 for d in node.walk() if d.kind in ("For", "While"))
        imports = sum(1 for d in node.walk() if d.kind == "Import")
        subtree_nodes = sum(1 for _ in node.walk())
        scope_depth = 0
        p = tree.parent[node.id]
        while p is not None:
            if tree.nodes[p].kind == "FunctionDef":
                scope_depth += 1
            p = tree.parent[p]
        table.append(
            [
                float(node.span[1] - node.span[0] + 1),
                float(tree.depth(node.id)),
                KIND_INDEX[node.kind] / 10.0,
                float(scope_depth),
                float(len(variables)),
                float(in_deg[node.id]),
                float(out_deg[node.id]),
                float(loops),
                float(imports),
                float(1 + count_decisions(node)),
                float(len(node.children)),
                float(subtree_nodes),
            ]
        )
    return table


# --- edge features -------------------------------------------------------------------


def edge_features(tree: AstTree, edge: tuple[int, int, str]) -> list[float]:
    """6-dim feature vector for one (src, dst, kind) edge."""
    src, dst, kind = edge
    if kind not in EDGE_KIND_INDEX:
        raise SchemaError(f"unknown edge kind {kind!r}")
    distance = tree.tree_distance(src, dst)
    return [
        EDGE_KIND_INDEX[kind] / 5.0,
        float(distance),
        1.0,
        1.0 if kind in _FLOW_KINDS else 0.0,
        1.0 if src < dst else 0.0,
        1.0 / (1.0 + distance),
    ]


# --- graph construction -----------------------------------------------------------


def build_graph(
    tree: AstTree,
    source_digest: str = "0" * 32,
    label: int | None = None,
    split_node: int | None = None,
) -> CodeGraph:
    """Build the attributed graph for a tree.

    Node order follows preorder ids; edge order is Parent, NextSibling,
    Calls, ControlFlow, DataFlow, each block in ascending node order, so
    the output is deterministic for a given tree.
    """
    triples = _structural_edges(tree)
    features = _node_feature_table(tree, triples)
    nodes = [
        NodeRecord(id=node.id, kind=node.kind, features=features[node.id])
        for node in tree.nodes
    ]
    edges = [
        EdgeRecord(src=s, dst=d, kind=k, features=edge_features(tree, (s, d, k)))
        for s, d, k in triples
    ]
    return CodeGraph(
        nodes=nodes,
        edges=edges,
        source_digest=source_digest,
        label=label,
        split_node=split_node,
    )


# --- interchange documents ------------------------------------------------------------

GRAPH_DOC_VERSION = "1"

_GRAPH_KEYS = {"version", "source_digest", "label", "split_node", "nodes", "edges"}
_NODE_KEYS = {"id", "kind", "features"}
_EDGE_KEYS = {"src", "dst", "kind", "features"}


def check_numbers(value: Any, dim: int, path: str) -> list[float]:
    """``value`` as ``dim`` finite floats; SchemaError naming ``path`` otherwise."""
    if not isinstance(value, list) or len(value) != dim:
        raise SchemaError(f"{path} must be a list of {dim} numbers")
    out: list[float] = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{path}[{i}] is not a number")
        f = float(v)
        if not math.isfinite(f):
            raise SchemaError(f"{path}[{i}] is not finite")
        out.append(f)
    return out


def _check_parent_tree(graph: CodeGraph) -> None:
    """Parent edges must form a tree over all nodes (single root, no cycles)."""
    n = len(graph.nodes)
    parent: dict[int, int] = {}
    for e in graph.edges:
        if e.kind != "Parent":
            continue
        if e.dst in parent:
            raise SchemaError(f"node {e.dst} has two Parent edges")
        parent[e.dst] = e.src
    roots = [i for i in range(n) if i not in parent]
    if len(roots) != 1:
        raise SchemaError(f"Parent edges must leave exactly one root, found {len(roots)}")
    state = [0] * n  # 0 unvisited, 1 in progress, 2 done
    for start in range(n):
        path = []
        cur = start
        while state[cur] == 0:
            state[cur] = 1
            path.append(cur)
            if cur not in parent:
                break
            cur = parent[cur]
        if state[cur] == 1 and cur in parent:
            raise SchemaError("Parent edges contain a cycle")
        for v in path:
            state[v] = 2


def is_int(value: Any) -> bool:
    """An integer that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def ingest_graph_doc(doc: dict) -> CodeGraph:
    """Validate and load a graph document; raises SchemaError on violation."""
    if not isinstance(doc, dict):
        raise SchemaError("graph document must be an object")
    unknown = set(doc) - _GRAPH_KEYS
    if unknown:
        raise SchemaError(f"graph document has unknown field {sorted(unknown)[0]!r}")
    if doc.get("version") != GRAPH_DOC_VERSION:
        raise SchemaError(f"graph document version must be {GRAPH_DOC_VERSION!r}")
    digest = doc.get("source_digest")
    if (
        not isinstance(digest, str)
        or len(digest) != 32
        or any(c not in "0123456789abcdef" for c in digest)
    ):
        raise SchemaError("source_digest must be 32 lowercase hex characters")
    label = doc.get("label")
    if label is not None and (not is_int(label) or label not in (0, 1)):
        raise SchemaError("label must be 0 or 1")
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise SchemaError("nodes must be a non-empty list")
    nodes: list[NodeRecord] = []
    for i, rn in enumerate(raw_nodes):
        path = f"nodes[{i}]"
        if not isinstance(rn, dict):
            raise SchemaError(f"{path} must be an object")
        unknown = set(rn) - _NODE_KEYS
        if unknown:
            raise SchemaError(f"{path} has unknown field {sorted(unknown)[0]!r}")
        if not is_int(rn.get("id")) or rn["id"] != i:
            raise SchemaError(f"{path}.id must be {i} (ids dense, ascending)")
        kind = rn.get("kind")
        if kind not in NODE_KINDS:
            raise SchemaError(f"{path}.kind {kind!r} is not a node kind")
        features = check_numbers(rn.get("features"), NODE_FEATURE_DIM, f"{path}.features")
        nodes.append(NodeRecord(id=i, kind=kind, features=features))
    split_node = doc.get("split_node")
    if split_node is not None:
        if not is_int(split_node) or not 0 <= split_node < len(nodes):
            raise SchemaError("split_node must be a valid node id")
    raw_edges = doc.get("edges")
    if not isinstance(raw_edges, list):
        raise SchemaError("edges must be a list")
    edges: list[EdgeRecord] = []
    for i, re in enumerate(raw_edges):
        path = f"edges[{i}]"
        if not isinstance(re, dict):
            raise SchemaError(f"{path} must be an object")
        unknown = set(re) - _EDGE_KEYS
        if unknown:
            raise SchemaError(f"{path} has unknown field {sorted(unknown)[0]!r}")
        kind = re.get("kind")
        if kind not in EDGE_KINDS:
            raise SchemaError(f"{path}.kind {kind!r} is not an edge kind")
        src = re.get("src")
        dst = re.get("dst")
        for label_, v in (("src", src), ("dst", dst)):
            if not is_int(v) or not 0 <= v < len(nodes):
                raise SchemaError(f"{path}.{label_} does not reference a node")
        features = check_numbers(re.get("features"), EDGE_FEATURE_DIM, f"{path}.features")
        edges.append(EdgeRecord(src=src, dst=dst, kind=kind, features=features))
    graph = CodeGraph(
        nodes=nodes,
        edges=edges,
        source_digest=digest,
        label=label,
        split_node=split_node,
    )
    _check_parent_tree(graph)
    return graph


def emit_graph_doc(graph: CodeGraph) -> dict:
    """Serialize a graph to its interchange document."""
    doc: dict[str, Any] = {
        "version": GRAPH_DOC_VERSION,
        "source_digest": graph.source_digest,
    }
    if graph.label is not None:
        doc["label"] = graph.label
    if graph.split_node is not None:
        doc["split_node"] = graph.split_node
    doc["nodes"] = [
        {"id": n.id, "kind": n.kind, "features": list(n.features)} for n in graph.nodes
    ]
    doc["edges"] = [
        {"src": e.src, "dst": e.dst, "kind": e.kind, "features": list(e.features)}
        for e in graph.edges
    ]
    return doc
