"""Pretty-printer: AST back to MiniPy source.

For trees produced by the parser (or built with full expression payloads)
the output reparses to a structurally identical tree.  Trees ingested from
interchange documents carry structure only; missing payloads are rendered
as deterministic placeholders (`0` operands, empty argument lists) and
empty compound bodies get a placeholder assignment, keeping the output
parseable.
"""

from __future__ import annotations

from .nodes import AstNode, AstTree, BinOp, CallRef, Expr, Name, Num

_INDENT = "    "


def _render_expr(expr: Expr) -> str:
    if isinstance(expr, Num):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.id
    if isinstance(expr, CallRef):
        return _render_call(expr.node)
    if isinstance(expr, BinOp):
        # the parser nests operator chains to the left, so walk that spine
        # in a loop: one recursion per operator would overflow on long chains
        tail: list[str] = []
        while isinstance(expr, BinOp):
            tail.append(f" {expr.op} {_render_expr(expr.right)}")
            expr = expr.left
        return _render_expr(expr) + "".join(reversed(tail))
    raise TypeError(f"unknown expression {expr!r}")


def _render_call(node: AstNode) -> str:
    name = node.name if node.name else "f"
    if node.args:
        inner = ", ".join(_render_expr(a) for a in node.args)
    else:
        inner = ", ".join(
            _render_call(c) if c.kind == "Call" else "0" for c in node.children
        )
    return f"{name}({inner})"


def _render_value(value: Expr | None, children: list[AstNode], default: str) -> str:
    """Render a payload expression, falling back to call children joined by +."""
    if value is not None:
        return _render_expr(value)
    calls = [c for c in children if c.kind == "Call"]
    if calls:
        return " + ".join(_render_call(c) for c in calls)
    return default


def _render_cond(node: AstNode | None) -> str:
    if node is None:
        return "0 > 0"
    op = node.name if node.name else ">"
    if node.left is not None or node.right is not None:
        left = _render_expr(node.left) if node.left is not None else "0"
        right = _render_expr(node.right) if node.right is not None else "0"
        return f"{left} {op} {right}"
    calls = [c for c in node.children if c.kind == "Call"]
    if len(calls) >= 2:
        left = " + ".join(_render_call(c) for c in calls[:-1])
        return f"{left} {op} {_render_call(calls[-1])}"
    if len(calls) == 1:
        return f"{_render_call(calls[0])} {op} 0"
    return f"0 {op} 0"


def _emit_block(stmts: list[AstNode], level: int, out: list[str]) -> None:
    if not stmts:
        out.append(f"{_INDENT * level}x = 0")
        return
    for stmt in stmts:
        _emit_stmt(stmt, level, out)


def _emit_stmt(node: AstNode, level: int, out: list[str]) -> None:
    pad = _INDENT * level
    kind = node.kind
    if kind == "FunctionDef":
        name = node.name if node.name else "f"
        out.append(f"{pad}def {name}({', '.join(node.params)}):")
        _emit_block(node.body(), level + 1, out)
    elif kind == "If":
        out.append(f"{pad}if {_render_cond(node.cond())}:")
        _emit_block(node.body(), level + 1, out)
        orelse = node.orelse()
        if orelse:
            out.append(f"{pad}else:")
            _emit_block(orelse, level + 1, out)
    elif kind == "While":
        out.append(f"{pad}while {_render_cond(node.cond())}:")
        _emit_block(node.body(), level + 1, out)
    elif kind == "For":
        var = node.name if node.name else "i"
        header = node.children[: node.header_count]
        iter_text = _render_value(node.value, header, "0")
        out.append(f"{pad}for {var} in {iter_text}:")
        _emit_block(node.body(), level + 1, out)
    elif kind == "Assign":
        target = node.name if node.name else "x"
        out.append(f"{pad}{target} = {_render_value(node.value, node.children, '0')}")
    elif kind == "Call":
        out.append(f"{pad}{_render_call(node)}")
    elif kind == "Return":
        if node.value is None and not any(c.kind == "Call" for c in node.children):
            out.append(f"{pad}return")
        else:
            out.append(f"{pad}return {_render_value(node.value, node.children, '0')}")
    elif kind == "Import":
        out.append(f"{pad}import {node.name if node.name else 'm'}")
    elif kind == "Compare":
        # a Compare outside a condition slot is not grammatical; keep output valid
        out.append(f"{pad}x = 0")
    else:
        raise TypeError(f"cannot print node kind {kind}")


def pretty_print(tree: AstTree | AstNode) -> str:
    """Render a tree as MiniPy source.  Empty modules render as ''."""
    root = tree.root if isinstance(tree, AstTree) else tree
    if root.kind == "Module":
        stmts = root.children
    else:
        stmts = [root]
    if not stmts:
        return ""
    out: list[str] = []
    for stmt in stmts:
        _emit_stmt(stmt, 0, out)
    return "\n".join(out) + "\n"
