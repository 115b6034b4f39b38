"""Lexer, parser, pretty-printer, and AST output documents."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refactorlab.errors import LexError, ParseError
from refactorlab.graph import EDGE_FEATURE_NAMES, build_graph, edge_features
from refactorlab.minipy.astdoc import emit_ast_doc
from refactorlab.minipy.nodes import count_decisions, structural_equal
from refactorlab.minipy.parser import MAX_NESTING, parse_source
from refactorlab.minipy.printer import pretty_print
from refactorlab.minipy.split import extract_split, split_points
from refactorlab.minipy.tokens import KEYWORDS, tokenize
from refactorlab.synth import generate_units

from conftest import (
    COUPLED_SRC,
    IMPORT_HEAVY_SRC,
    PLAIN_SRC,
    SPLITTABLE_SRC,
    UNSPLITTABLE_SRC,
    edge_triples,
    graph_of,
)

ALL_SOURCES = [PLAIN_SRC, SPLITTABLE_SRC, UNSPLITTABLE_SRC, IMPORT_HEAVY_SRC]


# --- lexer ------------------------------------------------------------------


def test_tokenize_kinds_and_positions():
    toks = tokenize("x = 41 + one\n")
    kinds = [(t.kind, t.text) for t in toks]
    assert kinds == [
        ("Ident", "x"),
        ("Operator", "="),
        ("Int", "41"),
        ("Operator", "+"),
        ("Ident", "one"),
        ("Newline", "\n"),
        ("Eof", ""),
    ]
    assert toks[0].line == 1 and toks[0].col == 1
    assert toks[2].col == 5  # the literal starts after "x = "


def test_tokenize_keywords_not_idents():
    toks = tokenize("for i in range(3):\n    x = i\n")
    assert [t.kind for t in toks if t.text in ("for", "in")] == ["Keyword", "Keyword"]


def test_tokenize_two_char_operators_win():
    toks = [t.text for t in tokenize("if a <= b:\n    x = 1\n") if t.kind == "Operator"]
    assert "<=" in toks and "<" not in toks


def test_tokenize_indent_dedent_balance():
    toks = tokenize("def f(a):\n    if a > 1:\n        return a\n    return 0\n")
    indents = sum(1 for t in toks if t.kind == "Indent")
    dedents = sum(1 for t in toks if t.kind == "Dedent")
    assert indents == dedents == 2
    assert toks[-1].kind == "Eof"


def test_tokenize_blank_lines_ignored():
    assert len(tokenize("x = 1\n\n\ny = 2\n")) == len(tokenize("x = 1\ny = 2\n"))


# source -> (message, line, col) of its LexError
BAD_SOURCES = {
    "x = $\n": ("illegal character '$'", 1, 5),
    "\tx = 1\n": ("tab in indentation", 1, 1),
    "def f(a):\n   x = 1\n": ("indentation of 3 spaces is not a multiple of 4", 2, 1),
    "def f(a):\n            x = 1\n": ("indentation jumps more than one level", 2, 1),
    # a dedent to six spaces fails the multiple-of-four check first
    "def f(a):\n    if a > 1:\n        x = 1\n      y = 2\n": (
        "indentation of 6 spaces is not a multiple of 4", 4, 1,
    ),
    # identifiers and integers are ASCII: str.isdigit and str.isalpha accept these
    "x = \u00b2\n": ("illegal character '\u00b2'", 1, 5),  # superscript two
    "x = \u0663\n": ("illegal character '\u0663'", 1, 5),  # Arabic-Indic three
    "\u00e9 = 1\n": ("illegal character '\u00e9'", 1, 1),
    "if a:\n    ab\u00e9 = 1\n": ("illegal character '\u00e9'", 2, 7),
    "x = 1\t+ 2\n": ("illegal character '\\t'", 1, 6),  # a tab after indentation
}


@pytest.mark.parametrize("bad", list(BAD_SOURCES))
def test_tokenize_rejects_bad_input(bad):
    message, line, col = BAD_SOURCES[bad]
    with pytest.raises(LexError) as info:
        tokenize(bad)
    assert str(info.value) == f"line {line}, col {col}: {message}"
    assert (info.value.line, info.value.col) == (line, col)


# spelled out here, not imported, so that a misordered tokens.OPERATORS shows
REFERENCE_OPERATORS = ("<=", ">=", "==", "!=", "<", ">", "=", "+", "-", "*", "(", ")", ":", ",", ".")


def _reference_lex_line(text: str) -> list[tuple[str, str, int, int]]:
    """The character-at-a-time lexer that the one-pattern scanner replaced,
    restricted to ASCII, for one unindented line."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = 1 + i
        if ch == " ":
            i += 1
            continue
        if (ch.isascii() and ch.isalpha()) or ch == "_":
            j = i + 1
            while j < n and ((text[j].isascii() and text[j].isalnum()) or text[j] == "_"):
                j += 1
            word = text[i:j]
            out.append(("Keyword" if word in KEYWORDS else "Ident", word, 1, col))
            i = j
            continue
        if ch.isascii() and ch.isdigit():
            j = i + 1
            while j < n and text[j].isascii() and text[j].isdigit():
                j += 1
            out.append(("Int", text[i:j], 1, col))
            i = j
            continue
        for op in REFERENCE_OPERATORS:
            if text.startswith(op, i):
                out.append(("Operator", op, 1, col))
                i += len(op)
                break
        else:
            raise LexError(f"illegal character {ch!r}", 1, col)
    return out


# line fragments: ASCII word and digit characters, every operator and keyword,
# spaces, and characters that start no token
_LINE_PIECES = [
    *"abcxyzABCXYZ_0123456789", *REFERENCE_OPERATORS, *sorted(KEYWORDS),
    " ", "   ", "$", "\t", "\u00b2", "\u00e9",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_LINE_PIECES), max_size=30).map("".join))
def test_tokenize_matches_a_character_at_a_time_reference(line):
    line = line.lstrip(" \t")  # indentation is not the line lexer's concern
    try:
        expected = _reference_lex_line(line)
    except LexError as exc:
        with pytest.raises(LexError) as info:
            tokenize(line)
        assert (str(info.value), info.value.line, info.value.col) == (str(exc), exc.line, exc.col)
        return
    if line:
        expected += [("Newline", "\n", 1, len(line) + 1), ("Eof", "", 2, 1)]
    else:
        expected = [("Eof", "", 1, 1)]
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(line)] == expected


# --- parser -----------------------------------------------------------------


def test_parse_shapes_and_preorder_ids():
    tree = parse_source("def f(a):\n    x = a + 1\n    return x\n")
    assert [n.kind for n in tree.nodes] == ["Module", "FunctionDef", "Assign", "Return"]
    assert [n.id for n in tree.nodes] == [0, 1, 2, 3]
    assert tree.parent == [None, 0, 1, 1]
    fn = tree.nodes[1]
    assert fn.name == "f" and fn.params == ("a",)
    assert fn.span == (1, 3)
    assert tree.nodes[2].span == (2, 2)


def test_parse_if_elif_else_desugars_to_nested_if():
    src = (
        "def f(a):\n"
        "    if a > 2:\n"
        "        x = 1\n"
        "    elif a > 1:\n"
        "        x = 2\n"
        "    else:\n"
        "        x = 3\n"
        "    return x\n"
    )
    tree = parse_source(src)
    outer = next(n for n in tree.nodes if n.kind == "If")
    assert len(outer.body()) == 1
    orelse = outer.orelse()
    assert len(orelse) == 1 and orelse[0].kind == "If"
    inner = orelse[0]
    assert len(inner.body()) == 1 and len(inner.orelse()) == 1
    # two decisions total: the If and its desugared elif
    assert count_decisions(tree.nodes[1]) - 1 == 1  # FunctionDef itself is not a decision
    assert sum(1 for n in tree.nodes if n.kind == "If") == 2


def test_parse_for_loop_roles():
    tree = parse_source("for i in range(5):\n    x = i\n")
    loop = next(n for n in tree.nodes if n.kind == "For")
    assert loop.name == "i"
    body = loop.body()
    assert [n.kind for n in body] == ["Assign"]
    # the iterable call is a header child, not a body statement
    assert loop.children[0].kind == "Call"
    assert loop.children[0].name == "range"


def test_parse_while_condition_child():
    tree = parse_source("w = 3\nwhile w > 0:\n    w = w - 1\n")
    loop = next(n for n in tree.nodes if n.kind == "While")
    assert loop.cond() is not None and loop.cond().kind == "Compare"
    assert [n.kind for n in loop.body()] == ["Assign"]


def test_parse_dotted_call_records_base():
    tree = parse_source("import helpers\ny = helpers.scale(3)\n")
    call = next(n for n in tree.nodes if n.kind == "Call")
    assert call.name == "helpers.scale"


def test_parse_nested_call_materializes_child_node():
    tree = parse_source("x = outer(inner(2))\n")
    calls = [n for n in tree.nodes if n.kind == "Call"]
    assert {c.name for c in calls} == {"outer", "inner"}
    outer = next(c for c in calls if c.name == "outer")
    assert [c.kind for c in outer.children] == ["Call"]


@pytest.mark.parametrize(
    "bad",
    [
        "def f(:\n    return 1\n",  # malformed parameter list
        "if a > 1:\n",  # empty block
        "x = \n",  # missing expression
        "return 1\n    y = 2\n",  # indent without a block opener
        "for i range(3):\n    x = i\n",  # missing 'in'
        "def f(a)\n    return a\n",  # missing colon
        "x = 1 +\n",  # dangling operator
    ],
)
def test_parse_rejects_bad_source(bad):
    with pytest.raises((ParseError, LexError)):
        parse_source(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_source("x = 1\ny = =\n")
    assert "2" in str(exc.value)  # mentions the offending line


def _nested_ifs(depth: int) -> str:
    lines = ["def f(x):"] + ["    " * d + "if x > 0:" for d in range(1, depth + 1)]
    return "\n".join(lines + ["    " * (depth + 1) + "x = 1"]) + "\n"


def _elif_chain(length: int) -> str:
    arms = "".join(f"    elif x > {i}:\n        x = 2\n" for i in range(length))
    return "def f(x):\n    if x > 0:\n        x = 1\n" + arms


def _nested_calls(depth: int) -> str:
    return "y = " + "f(" * depth + "1" + ")" * depth + "\n"


@pytest.mark.parametrize(
    "make, fits, too_deep",
    [(_nested_ifs, 99, 400), (_elif_chain, 98, 400), (_nested_calls, 100, 400)],
)
def test_parse_limits_nesting_depth(make, fits, too_deep):
    assert MAX_NESTING == 100
    parse_source(make(fits)).validate()
    with pytest.raises(ParseError, match="nesting deeper than 100 levels"):
        parse_source(make(too_deep))


def test_spans_nest_and_validate():
    for src in ALL_SOURCES:
        tree = parse_source(src)
        tree.validate()  # raises on id or span violations


# --- per-node records --------------------------------------------------------


def _walked_records(tree):
    """(depth, enclosing function, scope depth) of every node, each found by
    climbing the parent chain."""
    out = []
    for node in tree.nodes:
        depth, fn, scope = 0, 0, 0
        p = tree.parent[node.id]
        while p is not None:
            depth += 1
            if tree.nodes[p].kind == "FunctionDef":
                scope += 1
                fn = fn or p
            p = tree.parent[p]
        out.append((depth, fn, scope))
    return out


def _walked_distance(tree, a, b):
    """Edges between two nodes, through the longest common root path."""
    pa, pb = tree.ancestors(a), tree.ancestors(b)
    common = sum(1 for x, y in zip(pa, pb) if x == y)
    return len(pa) + len(pb) - 2 * common


def _check_records(tree):
    recorded = [
        (tree.depths[i], tree.enclosing_function(i), tree.scope_depths[i])
        for i in range(len(tree))
    ]
    assert recorded == _walked_records(tree)
    # the distance column of the derived edge features, on the built edges
    # and on extra edges between scattered pairs, in both orientations
    graph = build_graph(tree)
    n = len(tree)
    edges = edge_triples(graph)
    for a in range(n):
        b = (7 * a + 3) % n
        edges += [(a, b, "DataFlow"), (b, a, "Calls")]
    graph = graph_of(graph.nodes, graph.x, edges, graph.parent)
    rows = edge_features(graph)
    for (src, dst, _), row in zip(edges, rows, strict=True):
        assert row[EDGE_FEATURE_NAMES.index("tree_distance")] == _walked_distance(tree, src, dst)


def test_records_of_a_nested_function():
    tree = parse_source(COUPLED_SRC)
    relay, mix = tree.functions()
    assert max(tree.scope_depths) == 2
    assert tree.scope_depths[mix.id] == 1 and tree.enclosing_function(mix.id) == relay.id
    assert {tree.enclosing_function(n.id) for n in mix.walk() if n is not mix} == {mix.id}
    _check_records(tree)


def test_records_match_parent_chain_walks_on_a_corpus():
    for unit in generate_units(300, 11):
        tree = parse_source(unit.body)
        _check_records(tree)
        points = split_points(tree)
        if points:
            _check_records(extract_split(tree, points[0]))


# --- printer ----------------------------------------------------------------


@pytest.mark.parametrize("src", ALL_SOURCES)
def test_print_parse_round_trip_is_structural_identity(src):
    tree = parse_source(src)
    printed = pretty_print(tree)
    again = parse_source(printed)
    assert structural_equal(tree.root, again.root)
    # printing is a fixed point after one normalization pass
    assert pretty_print(again) == printed


def test_print_preserves_else_blocks():
    src = "def f(a):\n    if a > 1:\n        x = 1\n    else:\n        x = 2\n    return x\n"
    assert "else:" in pretty_print(parse_source(src))


# --- output documents ---------------------------------------------------------


def _doc_preorder(doc):
    """(kind, name, span) of every node of an AST document, in preorder."""
    out, stack = [], [doc]
    while stack:
        node = stack.pop()
        out.append((node["kind"], node.get("name"), tuple(node["span"])))
        stack.extend(reversed(node["children"]))
    return out


@pytest.mark.parametrize("src", ALL_SOURCES)
def test_ast_doc_round_trip(src):
    # the document survives JSON text and describes every node of the tree
    tree = parse_source(src)
    doc = emit_ast_doc(tree)
    assert json.loads(json.dumps(doc)) == doc
    assert _doc_preorder(doc) == [(n.kind, n.name, n.span) for n in tree.nodes]


def test_ast_doc_root_carries_version():
    doc = emit_ast_doc(parse_source("x = 1\n"))
    assert doc["version"] == "1"
    assert doc["kind"] == "Module"
