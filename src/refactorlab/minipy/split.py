"""Extract-method transform: split a function at one of its body statements.

A split is addressed by the node id of the statement that starts the
tail.  ``split_points`` is the one definition of where that may be: a
body statement of a FunctionDef at index k >= 1, with no Return anywhere
in the k statements before it.  The head keeps those k statements and
gains ``return <fn>_tail(live...)``; the tail function takes the live
variables as parameters and is inserted right after the top-level
statement containing the split function.  Live variables are the names
the tail may read before defining, intersected with names the head (or
the parameter list) may define, in first-read order.  Definitions inside
branches or loops of the tail do not count as definite, so the analysis
never drops a needed parameter.

The result is rebuilt through print-and-reparse, which renumbers ids and
recomputes spans in one step.
"""

from __future__ import annotations

import copy

from ..errors import SplitError
from .nodes import AstNode, AstTree, CallRef, Name, expr_reads
from .parser import parse_source
from .printer import pretty_print


def _call_reads(node: AstNode) -> list[str]:
    """Names read by a Call node's own arguments, nested calls included."""
    out: list[str] = []
    for arg in node.args:
        out.extend(expr_reads(arg))
    for child in node.children:
        if child.kind == "Call":
            out.extend(_call_reads(child))
    return out


def _own_reads(node: AstNode) -> list[str]:
    """Names this single node reads (payload expressions, not child stmts)."""
    out: list[str] = []
    if node.kind in ("Assign", "Return", "For"):
        out.extend(expr_reads(node.value))
    elif node.kind == "Compare":
        out.extend(expr_reads(node.left))
        out.extend(expr_reads(node.right))
    elif node.kind == "Call":
        out.extend(_call_reads(node))
    for child in node.children:
        if child.kind == "Call" and node.kind != "Call":
            out.extend(_call_reads(child))
    return out


def _may_define(stmts: list[AstNode]) -> set[str]:
    """Names possibly bound anywhere in these subtrees."""
    defs: set[str] = set()
    for stmt in stmts:
        for node in stmt.walk():
            if node.kind in ("Assign", "For", "Import") and node.name is not None:
                defs.add(node.name)
    return defs


def _scan_reads(stmts: list[AstNode], killed: set[str], order: list[str]) -> None:
    """Collect reads not preceded by a definite same-level definition."""
    for stmt in stmts:
        cond = stmt.cond()
        if cond is not None:
            for name in _own_reads(cond):
                if name not in killed:
                    order.append(name)
        for name in _own_reads(stmt):
            if name not in killed:
                order.append(name)
        if stmt.kind == "Assign":
            if stmt.name is not None:
                killed.add(stmt.name)
        elif stmt.kind == "Import":
            if stmt.name is not None:
                killed.add(stmt.name)
        elif stmt.kind == "If":
            _scan_reads(stmt.body(), set(killed), order)
            _scan_reads(stmt.orelse(), set(killed), order)
        elif stmt.kind == "While":
            _scan_reads(stmt.body(), set(killed), order)
        elif stmt.kind == "For":
            inner = set(killed)
            if stmt.name is not None:
                inner.add(stmt.name)
            _scan_reads(stmt.body(), inner, order)
        elif stmt.kind == "FunctionDef":
            # conservative: treat the nested body as possible reads
            _scan_reads(stmt.body(), set(killed), order)


def live_variables(fn: AstNode, k: int) -> list[str]:
    """Variables the tail needs as parameters, in first-read order."""
    head = fn.children[:k]
    tail = fn.children[k:]
    may_defs = _may_define(head) | set(fn.params)
    order: list[str] = []
    _scan_reads(tail, set(), order)
    live: list[str] = []
    for name in order:
        if name in may_defs and name not in live:
            live.append(name)
    return live


def split_points(tree: AstTree) -> list[int]:
    """Ids of the statements a tail may start at, ascending.

    That is every body statement of a FunctionDef at index >= 1 with no
    Return anywhere in the earlier statements of that body.
    """
    points: list[int] = []
    for fn in tree.functions():
        for k, stmt in enumerate(fn.children):
            if k >= 1:
                points.append(stmt.id)
            if any(n.kind == "Return" for n in stmt.walk()):
                break
    return sorted(points)


def _tail_name(tree: AstTree, base: str) -> str:
    taken = {fn.name for fn in tree.functions()}
    candidate = f"{base}_tail"
    suffix = 2
    while candidate in taken:
        candidate = f"{base}_tail{suffix}"
        suffix += 1
    return candidate


def extract_split(tree: AstTree, node_id: int) -> AstTree:
    """Split the enclosing function so its tail starts at ``node_id``.

    Raises SplitError unless ``node_id`` is one of ``split_points(tree)``.
    """
    if node_id not in split_points(tree):
        raise SplitError(f"node {node_id} is not a legal split point")
    fn = tree.nodes[tree.enclosing_function(node_id)]
    k = next(i for i, stmt in enumerate(fn.children) if stmt.id == node_id)

    live = live_variables(fn, k)
    tail_name = _tail_name(tree, fn.name)

    root = copy.deepcopy(tree.root)
    new_tree = AstTree.from_root(root)
    new_fn = new_tree.node(fn.id)

    tail_stmts = new_fn.children[k:]
    tail_fn = AstNode(
        "FunctionDef", name=tail_name, children=tail_stmts, params=tuple(live)
    )
    call = AstNode("Call", name=tail_name, args=tuple(Name(v) for v in live))
    handoff = AstNode("Return", children=[call], value=CallRef(call))
    new_fn.children = new_fn.children[:k] + [handoff]

    # insert the tail right after the top-level statement containing fn
    anchor = fn.id
    path = tree.ancestors(fn.id)
    top_level = path[1] if len(path) > 1 else anchor
    position = next(
        i for i, stmt in enumerate(root.children) if stmt.id == top_level
    )
    root.children.insert(position + 1, tail_fn)

    return parse_source(pretty_print(root))
