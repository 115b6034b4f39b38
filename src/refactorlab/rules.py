"""Threshold rule engine: the fixed-cutoff baseline detector.

Three rules with strict thresholds: LongMethod for functions over 20
lines, HighComplexity for functions over 10 cyclomatic paths, and
HighCoupling for modules over 5 external dependencies, measured by
``metrics.coupling``, the one definition of coupling.  The rules see
only per-function totals, so two functions with equal lines and
complexity always get the same verdict regardless of structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Final

from .graph import NODE_LINES, NODE_SUBTREE_CC, CodeGraph
from .metrics import FLAT_COUPLING, FlatFeatures, coupling, cyclomatic
from .minipy.nodes import AstTree

LONG_METHOD_LINES: Final = 20.0
HIGH_COMPLEXITY_CC: Final = 10.0
HIGH_COUPLING_DEPS: Final = 5.0

_RULE_ORDER = {"LongMethod": 0, "HighComplexity": 1, "HighCoupling": 2}


@dataclass(frozen=True)
class Finding:
    rule: str  # LongMethod | HighComplexity | HighCoupling
    target: int  # node id; module-level findings target the root (0)
    target_name: str
    measured: float
    threshold: float
    suggestion: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "target": self.target,
            "target_name": self.target_name,
            "measured": self.measured,
            "threshold": self.threshold,
            "suggestion": self.suggestion,
        }


def analyze_rules(tree: AstTree) -> list[Finding]:
    """All rule violations, ordered by (rule, target id)."""
    findings: list[Finding] = []
    for fn in tree.functions():
        name = fn.name or "?"
        lines = float(fn.span[1] - fn.span[0] + 1)
        if lines > LONG_METHOD_LINES:
            findings.append(
                Finding(
                    rule="LongMethod",
                    target=fn.id,
                    target_name=name,
                    measured=lines,
                    threshold=LONG_METHOD_LINES,
                    suggestion=f"extract method: {name} spans {int(lines)} lines",
                )
            )
        cc = float(cyclomatic(fn))
        if cc > HIGH_COMPLEXITY_CC:
            findings.append(
                Finding(
                    rule="HighComplexity",
                    target=fn.id,
                    target_name=name,
                    measured=cc,
                    threshold=HIGH_COMPLEXITY_CC,
                    suggestion=f"simplify or split: {name} has {int(cc)} paths",
                )
            )
    deps = float(coupling(tree))
    if deps > HIGH_COUPLING_DEPS:
        findings.append(
            Finding(
                rule="HighCoupling",
                target=0,
                target_name="module",
                measured=deps,
                threshold=HIGH_COUPLING_DEPS,
                suggestion=f"reduce dependencies: module touches {int(deps)} targets",
            )
        )
    findings.sort(key=lambda f: (_RULE_ORDER[f.rule], f.target))
    return findings


def classify_rules(tree: AstTree) -> int:
    """1 (refactor) iff any rule fires, else 0 (keep)."""
    return 1 if analyze_rules(tree) else 0


def classify_rules_graph(graph: CodeGraph, flat: FlatFeatures) -> int:
    """Rule verdict from a graph and flat vector alone (no source tree).

    Uses the same quantities the tree path measures: FunctionDef node
    features carry subtree lines and subtree cyclomatic, and the flat
    vector carries module coupling.  For graphs built from a tree this
    agrees with ``classify_rules`` exactly; it also covers synthetic
    oversampled samples that have no source text.
    """
    fns = graph.x[[kind == "FunctionDef" for kind in graph.nodes]]
    if (fns[:, NODE_LINES] > LONG_METHOD_LINES).any():
        return 1
    if (fns[:, NODE_SUBTREE_CC] > HIGH_COMPLEXITY_CC).any():
        return 1
    if flat.values[FLAT_COUPLING] > HIGH_COUPLING_DEPS:
        return 1
    return 0
