"""Exception types shared across the package.

Every error carries enough context to be printed as a one-line
diagnostic.  The CLI maps exception families to exit codes: usage
problems -> 1, source-language problems -> 2, data/schema problems -> 3,
internal invariant violations -> 4.

The checks every document reader shares are defined here too, once:
``is_int``, ``is_number``, ``check_numbers`` and ``check_fields``.
"""

from __future__ import annotations

import math
import sys
from typing import Any


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


# --- document checks ----------------------------------------------------------------


def is_int(value: Any) -> bool:
    """An integer that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value: Any) -> bool:
    """An int or a float that is finite as a float, never a bool."""
    if isinstance(value, float):
        return math.isfinite(value)
    return is_int(value) and abs(value) <= sys.float_info.max


def check_numbers(value: Any, dim: int, path: str) -> list[float]:
    """``value`` as ``dim`` finite floats; SchemaError naming ``path`` otherwise."""
    if not isinstance(value, list) or len(value) != dim:
        raise SchemaError(f"{path} must be a list of {dim} numbers")
    for i, v in enumerate(value):
        if not is_number(v):
            what = "finite" if isinstance(v, float) else "a number"
            raise SchemaError(f"{path}[{i}] is not {what}")
    return [float(v) for v in value]


def check_fields(
    doc: Any, allowed: set[str], where: str, error: type[RefactorLabError] = SchemaError
) -> None:
    """Raise ``error`` unless ``doc`` is an object with no field outside ``allowed``."""
    if not isinstance(doc, dict):
        raise error(f"{where} must be an object")
    unknown = set(doc) - allowed
    if unknown:
        raise error(f"{where} has unknown field {sorted(unknown)[0]!r}")
