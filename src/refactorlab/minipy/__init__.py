"""MiniPy language front end: lexer, parser, printer, documents, transforms."""

from .astdoc import emit_ast_doc
from .interp import behavior_fingerprint, call_function, run_module
from .nodes import AstNode, AstTree, KIND_INDEX, NODE_KINDS, structural_equal
from .parser import parse, parse_source
from .printer import pretty_print
from .source import SourceUnit, normalize_source, source_digest
from .split import extract_split, live_variables, split_points
from .tokens import Token, tokenize

__all__ = [
    "AstNode",
    "AstTree",
    "KIND_INDEX",
    "NODE_KINDS",
    "SourceUnit",
    "Token",
    "behavior_fingerprint",
    "call_function",
    "emit_ast_doc",
    "extract_split",
    "live_variables",
    "normalize_source",
    "parse",
    "parse_source",
    "pretty_print",
    "run_module",
    "source_digest",
    "split_points",
    "structural_equal",
    "tokenize",
]
