"""Exception types shared across the package.

Every error carries enough context to be printed as a one-line
diagnostic.  The CLI maps exception families to exit codes: usage
problems -> 1, source-language problems -> 2, data/schema problems -> 3,
internal invariant violations -> 4.
"""

from __future__ import annotations


class RefactorLabError(Exception):
    """Base class for all package errors."""


# --- source language (exit code 2) ---------------------------------------


class LexError(RefactorLabError):
    """Illegal character or inconsistent indentation."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ParseError(RefactorLabError):
    """Token stream does not match the grammar."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class SplitError(RefactorLabError):
    """Requested extract-method split is not possible."""


class MiniPyRuntimeError(RefactorLabError):
    """Interpreter failure: undefined name, bad call, or step limit."""


# --- data and schema (exit code 3) ----------------------------------------


class SchemaError(RefactorLabError):
    """Interchange document violates its schema."""


class DataError(RefactorLabError):
    """Dataset-level problem (empty input, length mismatch, bad shape)."""


class EmptyInputError(DataError):
    """Operation requires at least one element."""


class EmptyDatasetError(DataError):
    """Pipeline stage received a dataset with no samples."""


class DimensionMismatchError(DataError):
    """Array arguments have incompatible shapes."""


class CheckpointError(DataError):
    """Model checkpoint missing, corrupt, or dimensionally wrong."""


class TooSmallError(DataError):
    """Not enough samples to split."""


class SingleClassError(DataError):
    """Oversampling needs both classes present."""


class NoPositivesError(DataError):
    """A precision-recall curve needs at least one positive label."""


class NonPositiveBaseError(DataError):
    """Percentage drop is undefined for a non-positive baseline."""


# --- internal (exit code 4) ------------------------------------------------


class InvariantError(RefactorLabError):
    """An internal consistency check failed."""
