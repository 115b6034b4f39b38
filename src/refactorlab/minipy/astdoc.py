"""AST output documents (versioned JSON), written by ``parse --format json``.

Schema, version "1":

    {"version": "1", "kind": "...", "name": "...", "span": [start, end],
     "children": [ ... ]}

Every node carries ``kind``, ``span`` and ``children``, and ``name`` when
it has one; ``version`` appears on the root only.  Documents carry
structure only: expression payloads are not serialized.  Nothing reads
them back, since a tree is always parsed from its source.
"""

from __future__ import annotations

from typing import Any

from .nodes import AstNode, AstTree

DOC_VERSION = "1"


def _emit_node(node: AstNode, at_root: bool) -> dict:
    out: dict[str, Any] = {}
    if at_root:
        out["version"] = DOC_VERSION
    out["kind"] = node.kind
    if node.name is not None:
        out["name"] = node.name
    out["span"] = [node.span[0], node.span[1]]
    out["children"] = [_emit_node(c, False) for c in node.children]
    return out


def emit_ast_doc(tree: AstTree | AstNode) -> dict:
    """Serialize a tree to the output schema (version, spans included)."""
    root = tree.root if isinstance(tree, AstTree) else tree
    return _emit_node(root, True)
