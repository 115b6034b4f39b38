"""Source units: normalized text plus a stable content digest.

Normalization strips trailing whitespace per line, collapses blank-line
runs, and trims leading/trailing blank lines, so cosmetically different
copies of the same code share one MD5 digest.  Digests key deduplication.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


def normalize_source(text: str) -> str:
    """Whitespace-normalized form used for hashing and deduplication."""
    lines = [line.rstrip() for line in text.split("\n")]
    out: list[str] = []
    for line in lines:
        if line == "" and (not out or out[-1] == ""):
            continue
        out.append(line)
    while out and out[-1] == "":
        out.pop()
    if not out:
        return ""
    return "\n".join(out) + "\n"


def source_digest(text: str) -> str:
    """32-hex-char MD5 of the normalized source."""
    return hashlib.md5(normalize_source(text).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SourceUnit:
    """One source file: path label, raw body, digest of normalized body."""

    path: str
    body: str
    digest: str

    @classmethod
    def from_text(cls, path: str, body: str) -> "SourceUnit":
        return cls(path=path, body=body, digest=source_digest(body))
