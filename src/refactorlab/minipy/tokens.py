"""Lexer for the MiniPy subset language.

MiniPy is indentation-structured like Python but closed: identifiers,
integer literals, nine keywords, and a fixed operator set.  Indentation is
exactly four spaces per level.  The lexer synthesizes Newline, Indent,
Dedent, and Eof tokens so the parser never looks at whitespace.

After its indentation, each line is scanned by one compiled pattern, the
longest-match scanner of Aho, Lam, Sethi and Ullman (*Compilers*, 2nd ed.,
ch. 3): one alternative per token class, tried in order at each position,
with the two-character operators ahead of their one-character prefixes.
Identifiers (``[A-Za-z_][A-Za-z0-9_]*``) and integers (``[0-9]+``) are
ASCII; any character that starts no token, a non-ASCII letter or digit
included, is an illegal character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import LexError

# --- token kinds -----------------------------------------------------------

KEYWORDS = frozenset(
    {"def", "if", "elif", "else", "while", "for", "in", "return", "import"}
)

# longest-match first
OPERATORS = ("<=", ">=", "==", "!=", "<", ">", "=", "+", "-", "*", "(", ")", ":", ",", ".")

INDENT_WIDTH = 4

# group numbers, read back from ``match.lastindex``; group 5 is any other
# character, which is illegal (DOTALL, so that finditer skips none)
_WORD, _INT, _OP, _SPACE = 1, 2, 3, 4
_TOKEN_RE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)|([0-9]+)|("
    + "|".join(map(re.escape, OPERATORS))
    + r")|( +)|(.)",
    re.DOTALL,
)


@dataclass(slots=True)
class Token:
    kind: str  # Keyword | Ident | Int | Operator | Newline | Indent | Dedent | Eof
    text: str
    line: int  # 1-based
    col: int  # 1-based

    def __repr__(self) -> str:  # compact for test failure output
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def _lex_line(text: str, line_no: int, start_col: int, out: list[Token]) -> None:
    """Lex one physical line's content (indentation already consumed)."""
    append = out.append
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group == _SPACE:
            continue
        word = m.group()
        col = start_col + m.start()
        if group == _WORD:
            append(Token("Keyword" if word in KEYWORDS else "Ident", word, line_no, col))
        elif group == _OP:
            append(Token("Operator", word, line_no, col))
        elif group == _INT:
            append(Token("Int", word, line_no, col))
        else:
            raise LexError(f"illegal character {word!r}", line_no, col)


def tokenize(source: str) -> list[Token]:
    """Tokenize MiniPy source into a stream ending with Eof.

    Blank lines produce no tokens.  Raises LexError on illegal characters,
    tabs in indentation, or indentation that is not a multiple of four
    spaces aligned with the enclosing block structure.
    """
    tokens: list[Token] = []
    # a line opens at most one level past the one above it, so the open
    # blocks are always levels 1..depth and a depth says all of them
    depth = 0
    lines = source.split("\n")
    last_line_no = 0
    for line_no, raw in enumerate(lines, start=1):
        if raw.strip() == "":
            continue
        last_line_no = line_no
        # measure indentation (spaces only); the line is not blank, so raw[i] exists
        i = len(raw) - len(raw.lstrip(" "))
        if raw[i] == "\t":
            raise LexError("tab in indentation", line_no, i + 1)
        if i % INDENT_WIDTH != 0:
            raise LexError(
                f"indentation of {i} spaces is not a multiple of {INDENT_WIDTH}",
                line_no,
                1,
            )
        level = i // INDENT_WIDTH
        if level == depth + 1:
            tokens.append(Token("Indent", "", line_no, 1))
        elif level > depth + 1:
            raise LexError("indentation jumps more than one level", line_no, 1)
        else:
            tokens.extend(Token("Dedent", "", line_no, 1) for _ in range(depth - level))
        depth = level
        _lex_line(raw[i:], line_no, i + 1, tokens)
        tokens.append(Token("Newline", "\n", line_no, len(raw) + 1))
    end_line = last_line_no + 1 if last_line_no else 1
    tokens.extend(Token("Dedent", "", end_line, 1) for _ in range(depth))
    tokens.append(Token("Eof", "", end_line, 1))
    return tokens
