"""AST node and tree types for MiniPy.

The tree has exactly ten node kinds.  Structure (kind, name, children) is
what interchange documents carry and what structural equality compares;
expression payloads (operands, arguments, parameter lists) ride along on
the nodes so that printing and interpretation are faithful for trees that
came from the parser, but they are not part of the interchange schema.

Node ids are assigned in preorder and are dense from 0.  Spans are
1-based inclusive line ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from ..errors import InvariantError

# --- node kinds (fixed order; index is the feature type_index) -------------

NODE_KINDS: tuple[str, ...] = (
    "Module",
    "FunctionDef",
    "If",
    "For",
    "While",
    "Assign",
    "Call",
    "Return",
    "Import",
    "Compare",
)

KIND_INDEX: dict[str, int] = {k: i for i, k in enumerate(NODE_KINDS)}

COMPARE_OPS = ("<", ">", "<=", ">=", "==", "!=")


# --- expression payloads ----------------------------------------------------


@dataclass(frozen=True)
class Name:
    id: str


@dataclass(frozen=True)
class Num:
    value: int


@dataclass
class CallRef:
    """Expression-position reference to a materialized Call node."""

    node: "AstNode"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - *
    left: "Expr"
    right: "Expr"


Expr = Union[Name, Num, CallRef, BinOp]


def expr_reads(expr: Expr | None) -> list[str]:
    """Names read directly by an expression, excluding nested call arguments.

    Arguments of a nested call are charged to that Call node, not to the
    statement that contains it.
    """
    out: list[str] = []
    # an explicit stack with the left operand on top: operator chains nest
    # far deeper than the recursion limit
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Name):
            out.append(e.id)
        elif isinstance(e, BinOp):
            stack.append(e.right)
            stack.append(e.left)
        # Num contributes nothing; CallRef reads belong to the Call node
    return out


# --- AST node ----------------------------------------------------------------


@dataclass
class AstNode:
    kind: str
    name: str | None = None
    children: list["AstNode"] = field(default_factory=list)
    span: tuple[int, int] = (1, 1)
    id: int = -1
    # parser-only payloads, absent from interchange documents
    params: tuple[str, ...] = ()  # FunctionDef
    value: Expr | None = None  # Assign rhs, Return value, For iterable
    left: Expr | None = None  # Compare lhs
    right: Expr | None = None  # Compare rhs
    args: tuple[Expr, ...] = ()  # Call arguments
    then_count: int = -1  # If: children in the then branch (-1 = all non-cond)
    header_count: int = 0  # For: leading children that belong to the iterable

    def walk(self) -> Iterator["AstNode"]:
        """Preorder traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- role helpers ---------------------------------------------------------

    def body(self) -> list["AstNode"]:
        """Statement children, excluding condition/header children."""
        if self.kind == "If":
            rest = self.children[1:] if self.children and self.children[0].kind == "Compare" else list(self.children)
            count = self.then_count if self.then_count >= 0 else len(rest)
            return rest[:count]
        if self.kind == "While":
            if self.children and self.children[0].kind == "Compare":
                return self.children[1:]
            return list(self.children)
        if self.kind == "For":
            return self.children[self.header_count:]
        if self.kind in ("Module", "FunctionDef"):
            return list(self.children)
        return []

    def orelse(self) -> list["AstNode"]:
        """Else-branch children of an If node."""
        if self.kind != "If":
            return []
        rest = self.children[1:] if self.children and self.children[0].kind == "Compare" else list(self.children)
        count = self.then_count if self.then_count >= 0 else len(rest)
        return rest[count:]

    def cond(self) -> "AstNode | None":
        """Condition child of an If or While node."""
        if self.kind in ("If", "While") and self.children and self.children[0].kind == "Compare":
            return self.children[0]
        return None


def count_decisions(node: AstNode) -> int:
    """If/For/While nodes in a subtree, the node itself included.

    Bodies of nested FunctionDefs are opaque: their decisions belong to
    their own function, never to an enclosing one.
    """
    total = 1 if node.kind in ("If", "For", "While") else 0
    for child in node.children:
        if child.kind == "FunctionDef":
            continue
        total += count_decisions(child)
    return total


def structural_equal(a: AstNode, b: AstNode) -> bool:
    """Equality on (kind, name, children) recursively; spans and ids ignored."""
    if a.kind != b.kind or a.name != b.name or len(a.children) != len(b.children):
        return False
    return all(structural_equal(x, y) for x, y in zip(a.children, b.children))


# --- tree wrapper -------------------------------------------------------------


@dataclass
class AstTree:
    """A rooted MiniPy AST with dense preorder ids and parent links.

    ``from_root`` records, per node id, the tree measures read elsewhere:
    ``depths`` (edges from the root), ``enclosing`` (the nearest FunctionDef
    ancestor, else the Module root 0) and ``scope_depths`` (the number of
    FunctionDef ancestors).  A FunctionDef belongs to the scope that
    contains it, so neither its own id nor its own scope counts.
    """

    root: AstNode
    nodes: list[AstNode] = field(default_factory=list)
    parent: list[int | None] = field(default_factory=list)
    depths: list[int] = field(default_factory=list)
    enclosing: list[int] = field(default_factory=list)
    scope_depths: list[int] = field(default_factory=list)

    @classmethod
    def from_root(cls, root: AstNode) -> "AstTree":
        if root.kind != "Module":
            raise InvariantError(f"tree root must be Module, got {root.kind}")
        tree = cls(root=root)
        nodes, parent = tree.nodes, tree.parent
        depths, enclosing, scope_depths = tree.depths, tree.enclosing, tree.scope_depths

        def assign(
            node: AstNode, parent_id: int | None, depth: int, fn_id: int, scope: int
        ) -> None:
            node.id = len(nodes)
            nodes.append(node)
            parent.append(parent_id)
            depths.append(depth)
            enclosing.append(fn_id)
            scope_depths.append(scope)
            if node.kind == "FunctionDef":
                fn_id, scope = node.id, scope + 1
            for child in node.children:
                assign(child, node.id, depth + 1, fn_id, scope)

        assign(root, None, 0, 0, 0)
        return tree

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> AstNode:
        return self.nodes[node_id]

    def ancestors(self, node_id: int) -> list[int]:
        """Path root..node inclusive, as ids."""
        path = [node_id]
        p = self.parent[node_id]
        while p is not None:
            path.append(p)
            p = self.parent[p]
        path.reverse()
        return path

    def enclosing_function(self, node_id: int) -> int:
        """Id of the nearest FunctionDef ancestor, else the Module root (0).

        A FunctionDef node belongs to the scope that contains it.
        """
        return self.enclosing[node_id]

    def functions(self) -> list[AstNode]:
        """All FunctionDef nodes in preorder."""
        return [n for n in self.nodes if n.kind == "FunctionDef"]

    def validate(self) -> None:
        """Check tree invariants: dense preorder ids, span containment."""
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise InvariantError(f"node id {node.id} at preorder position {i}")
            if node.span[0] > node.span[1]:
                raise InvariantError(f"node {i} span {node.span} inverted")
            p = self.parent[i]
            if p is not None:
                ps = self.nodes[p].span
                if not (ps[0] <= node.span[0] and node.span[1] <= ps[1]):
                    raise InvariantError(
                        f"node {i} span {node.span} escapes parent span {ps}"
                    )
