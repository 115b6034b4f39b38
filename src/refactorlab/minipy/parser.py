"""Recursive-descent parser for MiniPy.

Grammar (blocks are NEWLINE INDENT stmt+ DEDENT, four spaces per level):

    program   := stmt*
    stmt      := funcdef | if | while | for | assign | call_stmt
               | return | import
    funcdef   := "def" NAME "(" params? ")" ":" block
    if        := "if" cond ":" block ("elif" cond ":" block)*
                 ("else" ":" block)?
    while     := "while" cond ":" block
    for       := "for" NAME "in" expr ":" block
    assign    := NAME "=" expr
    return    := "return" expr?
    import    := "import" NAME
    cond      := expr CMP expr          CMP in < > <= >= == !=
    expr      := NAME | INT | call | expr ("+"|"-"|"*") expr
    call      := dotted_name "(" args? ")"

``elif`` is desugared to a nested If in the else branch, so the tree only
ever contains plain If nodes.  Calls that appear inside expressions are
materialized as Call nodes, children of the statement or condition that
owns the expression (nested calls are children of the enclosing call).

Blocks, ``elif`` links and call arguments nest at most ``MAX_NESTING``
levels deep; deeper input is a ParseError, so neither the parser nor the
recursive tree walks downstream can exhaust the Python stack.
"""

from __future__ import annotations

from ..errors import ParseError
from .nodes import AstNode, AstTree, BinOp, CallRef, COMPARE_OPS, Expr, Name, Num
from .tokens import Token, tokenize

MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        # one extra Eof, so that peek(1) at the end needs no clamp
        self.tokens = [*tokens, tokens[-1]]
        self.pos = 0
        self.depth = 0

    # -- token plumbing -------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "Eof":
            self.pos += 1
        return tok

    def fail(self, expected: str) -> ParseError:
        tok = self.peek()
        got = tok.text if tok.text else tok.kind
        return ParseError(f"expected {expected}, got {got!r}", tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.fail(text if text is not None else kind)
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "Keyword" and tok.text == word

    def nest(self) -> None:
        """Enter one nesting level; callers leave it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.peek()
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.line, tok.col)

    # -- program and statements -------------------------------------------------

    def parse_program(self) -> AstNode:
        stmts: list[AstNode] = []
        while self.peek().kind != "Eof":
            stmts.append(self.statement())
        end = stmts[-1].span[1] if stmts else 1
        return AstNode("Module", children=stmts, span=(1, end))

    def statement(self) -> AstNode:
        tok = self.peek()
        if tok.kind == "Keyword":
            if tok.text == "def":
                return self.funcdef()
            if tok.text == "if":
                return self.if_stmt()
            if tok.text == "while":
                return self.while_stmt()
            if tok.text == "for":
                return self.for_stmt()
            if tok.text == "return":
                return self.return_stmt()
            if tok.text == "import":
                return self.import_stmt()
            raise self.fail("statement")
        if tok.kind == "Ident":
            nxt = self.peek(1)
            if nxt.kind == "Operator" and nxt.text == "=":
                return self.assign_stmt()
            return self.call_stmt()
        raise self.fail("statement")

    def block(self) -> list[AstNode]:
        self.expect("Newline")
        self.expect("Indent")
        self.nest()
        stmts = [self.statement()]
        while self.peek().kind not in ("Dedent", "Eof"):
            stmts.append(self.statement())
        self.expect("Dedent")
        self.depth -= 1
        return stmts

    def funcdef(self) -> AstNode:
        start = self.expect("Keyword", "def")
        name = self.expect("Ident").text
        self.expect("Operator", "(")
        params: list[str] = []
        if self.peek().kind == "Ident":
            params.append(self.advance().text)
            while self.peek().text == ",":
                self.advance()
                params.append(self.expect("Ident").text)
        self.expect("Operator", ")")
        self.expect("Operator", ":")
        body = self.block()
        return AstNode(
            "FunctionDef",
            name=name,
            children=body,
            span=(start.line, body[-1].span[1]),
            params=tuple(params),
        )

    def if_stmt(self) -> AstNode:
        start = self.peek()
        if not (self.at_keyword("if") or self.at_keyword("elif")):
            raise self.fail("if")
        self.advance()
        cond = self.condition()
        self.expect("Operator", ":")
        then = self.block()
        orelse: list[AstNode] = []
        if self.at_keyword("elif"):
            self.nest()
            orelse = [self.if_stmt()]
            self.depth -= 1
        elif self.at_keyword("else"):
            self.advance()
            self.expect("Operator", ":")
            orelse = self.block()
        children = [cond] + then + orelse
        return AstNode(
            "If",
            children=children,
            span=(start.line, children[-1].span[1]),
            then_count=len(then),
        )

    def while_stmt(self) -> AstNode:
        start = self.expect("Keyword", "while")
        cond = self.condition()
        self.expect("Operator", ":")
        body = self.block()
        return AstNode(
            "While", children=[cond] + body, span=(start.line, body[-1].span[1])
        )

    def for_stmt(self) -> AstNode:
        start = self.expect("Keyword", "for")
        var = self.expect("Ident").text
        self.expect("Keyword", "in")
        iterable, calls = self.expression()
        self.expect("Operator", ":")
        body = self.block()
        return AstNode(
            "For",
            name=var,
            children=calls + body,
            span=(start.line, body[-1].span[1]),
            value=iterable,
            header_count=len(calls),
        )

    def assign_stmt(self) -> AstNode:
        target = self.expect("Ident")
        self.expect("Operator", "=")
        value, calls = self.expression()
        self.expect("Newline")
        return AstNode(
            "Assign",
            name=target.text,
            children=calls,
            span=(target.line, target.line),
            value=value,
        )

    def call_stmt(self) -> AstNode:
        expr, calls = self.expression()
        if not (isinstance(expr, CallRef) and len(calls) == 1 and calls[0] is expr.node):
            tok = self.peek()
            raise ParseError("expected call statement", tok.line, tok.col)
        self.expect("Newline")
        return expr.node

    def return_stmt(self) -> AstNode:
        start = self.expect("Keyword", "return")
        value: Expr | None = None
        calls: list[AstNode] = []
        if self.peek().kind != "Newline":
            value, calls = self.expression()
        self.expect("Newline")
        return AstNode(
            "Return", children=calls, span=(start.line, start.line), value=value
        )

    def import_stmt(self) -> AstNode:
        start = self.expect("Keyword", "import")
        name = self.expect("Ident").text
        self.expect("Newline")
        return AstNode("Import", name=name, span=(start.line, start.line))

    # -- expressions ---------------------------------------------------------

    def condition(self) -> AstNode:
        left, lcalls = self.expression()
        tok = self.peek()
        if tok.kind != "Operator" or tok.text not in COMPARE_OPS:
            raise self.fail("comparison operator")
        op = self.advance()
        right, rcalls = self.expression()
        return AstNode(
            "Compare",
            name=op.text,
            children=lcalls + rcalls,
            span=(op.line, op.line),
            left=left,
            right=right,
        )

    def expression(self) -> tuple[Expr, list[AstNode]]:
        """Parse an additive expression; returns (expr, call nodes in order)."""
        calls: list[AstNode] = []
        expr = self._term(calls)
        while (tok := self.peek()).kind == "Operator" and tok.text in ("+", "-"):
            op = self.advance().text
            right = self._term(calls)
            expr = BinOp(op, expr, right)
        return expr, calls

    def _term(self, calls: list[AstNode]) -> Expr:
        expr = self._factor(calls)
        while (tok := self.peek()).kind == "Operator" and tok.text == "*":
            self.advance()
            right = self._factor(calls)
            expr = BinOp("*", expr, right)
        return expr

    def _factor(self, calls: list[AstNode]) -> Expr:
        tok = self.peek()
        if tok.kind == "Int":
            self.advance()
            return Num(int(tok.text))
        if tok.kind == "Ident":
            parts = [self.advance().text]
            while self.peek().text == ".":
                self.advance()
                parts.append(self.expect("Ident").text)
            if self.peek().text == "(":
                node = self._call_node(".".join(parts), tok.line)
                calls.append(node)
                return CallRef(node)
            if len(parts) > 1:
                raise self.fail("( after dotted name")
            return Name(parts[0])
        raise self.fail("expression")

    def _call_node(self, dotted: str, line: int) -> AstNode:
        self.expect("Operator", "(")
        self.nest()
        args: list[Expr] = []
        arg_calls: list[AstNode] = []
        if self.peek().text != ")":
            expr, inner = self.expression()
            args.append(expr)
            arg_calls.extend(inner)
            while self.peek().text == ",":
                self.advance()
                expr, inner = self.expression()
                args.append(expr)
                arg_calls.extend(inner)
        self.expect("Operator", ")")
        self.depth -= 1
        return AstNode(
            "Call",
            name=dotted,
            children=arg_calls,
            span=(line, line),
            args=tuple(args),
        )


def parse(tokens: list[Token]) -> AstTree:
    """Parse a token stream into an AstTree with dense preorder ids."""
    tree = AstTree.from_root(_Parser(tokens).parse_program())
    tree.validate()
    return tree


def parse_source(source: str) -> AstTree:
    """Tokenize and parse MiniPy source text."""
    return parse(tokenize(source))
