"""Maintainability metrics: cyclomatic complexity, coupling, flat features.

``cyclomatic`` counts decision nodes; ``cyclomatic_cfg_oracle`` builds a
basic-block control-flow graph and computes E - N + 2 independently, so
the two can cross-check each other.  ``coupling`` is the one definition
of coupling, over any subtree: the module's at node 0, a function's at
its FunctionDef.  ``flat_features`` flattens a tree into the fixed
35-dimensional vector consumed by the decision tree and threshold rules;
it counts the code graph's edges from ``structural_edges`` and builds no
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError, EmptyInputError, InvariantError
from .graph import EDGE_KINDS, structural_edges
from .minipy.nodes import AstNode, AstTree, NODE_KINDS, count_decisions

# --- cyclomatic complexity ---------------------------------------------------


def cyclomatic(fn: AstNode) -> int:
    """1 + decision nodes in the function, nested functions excluded."""
    if fn.kind != "FunctionDef":
        raise InvariantError(f"cyclomatic expects FunctionDef, got {fn.kind}")
    return 1 + sum(
        count_decisions(child) for child in fn.children if child.kind != "FunctionDef"
    )


class _CfgBuilder:
    """Explicit basic-block CFG over one function body."""

    def __init__(self) -> None:
        self.blocks = 0
        self.edges: list[tuple[int, int]] = []

    def new_block(self) -> int:
        self.blocks += 1
        return self.blocks - 1

    def link(self, a: int, b: int) -> None:
        self.edges.append((a, b))

    def process(self, stmts: list[AstNode], current: int, exit_block: int) -> int | None:
        """Thread statements through blocks; None means control never falls out."""
        for stmt in stmts:
            if current is None:
                # unreachable suffix still gets a block so the walk stays total
                current = self.new_block()
            kind = stmt.kind
            if kind in ("Assign", "Call", "Import", "FunctionDef"):
                continue
            if kind == "Return":
                self.link(current, exit_block)
                current = None
            elif kind == "If":
                then_start = self.new_block()
                self.link(current, then_start)
                then_end = self.process(stmt.body(), then_start, exit_block)
                orelse = stmt.orelse()
                join = self.new_block()
                if orelse:
                    else_start = self.new_block()
                    self.link(current, else_start)
                    else_end = self.process(orelse, else_start, exit_block)
                    if else_end is not None:
                        self.link(else_end, join)
                else:
                    self.link(current, join)
                if then_end is not None:
                    self.link(then_end, join)
                current = join
            elif kind in ("While", "For"):
                header = self.new_block()
                self.link(current, header)
                body_start = self.new_block()
                self.link(header, body_start)
                body_end = self.process(stmt.body(), body_start, exit_block)
                if body_end is not None:
                    self.link(body_end, header)
                after = self.new_block()
                self.link(header, after)
                current = after
            else:
                raise InvariantError(f"statement kind {kind} in CFG")
        return current


def cyclomatic_cfg_oracle(fn: AstNode) -> int:
    """E - N + 2 on the explicit CFG; cross-checks ``cyclomatic``."""
    if fn.kind != "FunctionDef":
        raise InvariantError(f"oracle expects FunctionDef, got {fn.kind}")
    builder = _CfgBuilder()
    entry = builder.new_block()
    exit_block = builder.new_block()
    end = builder.process(fn.body(), entry, exit_block)
    if end is not None:
        builder.link(end, exit_block)
    return len(builder.edges) - builder.blocks + 2


# --- coupling -----------------------------------------------------------------


def coupling(tree: AstTree, node_id: int = 0) -> int:
    """Distinct imported modules that the subtree at ``node_id`` reaches.

    A module counts when the tree imports it (anywhere) and a dotted call
    ``module.name(...)`` inside the subtree names it.  Node 0 is the
    module; a FunctionDef's subtree includes its nested functions.
    """
    imports = {n.name for n in tree.nodes if n.kind == "Import" and n.name}
    reached = {
        n.name.split(".")[0]
        for n in tree.nodes[node_id].walk()
        if n.kind == "Call" and n.name and "." in n.name
    }
    return len(reached & imports)


# --- metrics report --------------------------------------------------------------


@dataclass
class MetricsReport:
    per_function: dict[str, dict[str, int]]
    module: dict[str, int]

    def to_dict(self) -> dict:
        return {"per_function": self.per_function, "module": self.module}


def metrics_report(tree: AstTree) -> MetricsReport:
    """Per-function cyclomatic/lines plus module-level counts."""
    per_function: dict[str, dict[str, int]] = {}
    for fn in tree.functions():
        key = fn.name or "?"
        if key in per_function:
            key = f"{key}@L{fn.span[0]}"
        per_function[key] = {
            "cyclomatic": cyclomatic(fn),
            "lines": fn.span[1] - fn.span[0] + 1,
        }
    variables = {
        n.name for n in tree.nodes if n.kind in ("Assign", "For") and n.name
    }
    module = {
        "coupling": coupling(tree),
        "imports": sum(1 for n in tree.nodes if n.kind == "Import"),
        "loops": sum(1 for n in tree.nodes if n.kind in ("For", "While")),
        "variables": len(variables),
        "functions": len(tree.functions()),
        "max_scope_depth": max(tree.scope_depths),
        "total_cyclomatic": sum(v["cyclomatic"] for v in per_function.values()),
    }
    return MetricsReport(per_function=per_function, module=module)


# --- flat features -----------------------------------------------------------------

FLAT_FEATURE_NAMES: tuple[str, ...] = tuple(
    [f"count_{k}" for k in NODE_KINDS]
    + [f"count_{k}" for k in EDGE_KINDS]
    + [
        "lines",
        "nodes",
        "edges",
        "loops",
        "variables",
        "functions",
        "max_tree_depth",
        "mean_tree_depth",
        "max_scope_depth",
        "imports",
        "total_CC",
        "max_fn_CC",
        "mean_fn_CC",
        "coupling",
        "max_fan_out",
        "mean_fan_out",
        "graph_density",
        "leaf_fraction",
        "call_count_external",
        "return_count",
    ]
)

FLAT_DIM = len(FLAT_FEATURE_NAMES)

# indices used by cap_outliers and the rule engine
FLAT_LINES = FLAT_FEATURE_NAMES.index("lines")
FLAT_NODES = FLAT_FEATURE_NAMES.index("nodes")
FLAT_TOTAL_CC = FLAT_FEATURE_NAMES.index("total_CC")
FLAT_COUPLING = FLAT_FEATURE_NAMES.index("coupling")

_BUILTIN_CALLS = frozenset({"range", "print"})


@dataclass
class FlatFeatures:
    values: list[float]
    names: tuple[str, ...] = FLAT_FEATURE_NAMES

    def __post_init__(self) -> None:
        if len(self.values) != FLAT_DIM:
            raise DataError(f"flat vector has {len(self.values)} entries, need {FLAT_DIM}")

    def __getitem__(self, i: int) -> float:
        return self.values[i]

    def named(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))


def flat_features(tree: AstTree) -> FlatFeatures:
    """35-dim summary of a module; empty module yields the zero vector.

    The node and edge counts are those of the tree's code graph: one node
    per AST node, and the edges of ``structural_edges``.
    """
    if not tree.root.children:
        return FlatFeatures([0.0] * FLAT_DIM)
    node_counts = {k: 0 for k in NODE_KINDS}
    for n in tree.nodes:
        node_counts[n.kind] += 1
    edges = structural_edges(tree)
    edge_counts = {k: 0 for k in EDGE_KINDS}
    for _, _, kind in edges:
        edge_counts[kind] += 1
    n_nodes = len(tree.nodes)
    depths = tree.depths
    fns = tree.functions()
    fn_ccs = [cyclomatic(fn) for fn in fns]
    fan_outs = []
    for fn in fns:
        callees = {d.name for d in fn.walk() if d.kind == "Call" and d.name}
        fan_outs.append(len(callees))
    local_fns = {fn.name for fn in fns}
    external_calls = sum(
        1
        for n in tree.nodes
        if n.kind == "Call"
        and n.name
        and (
            "." in n.name
            or (n.name not in local_fns and n.name not in _BUILTIN_CALLS)
        )
    )
    variables = {n.name for n in tree.nodes if n.kind in ("Assign", "For") and n.name}
    n_edges = len(edges)
    density = n_edges / (n_nodes * (n_nodes - 1)) if n_nodes > 1 else 0.0
    leaves = sum(1 for n in tree.nodes if not n.children)
    scalars = [
        float(tree.root.span[1] - tree.root.span[0] + 1),
        float(n_nodes),
        float(n_edges),
        float(node_counts["For"] + node_counts["While"]),
        float(len(variables)),
        float(len(fns)),
        float(max(depths)),
        sum(depths) / n_nodes,
        float(max(tree.scope_depths)),
        float(node_counts["Import"]),
        float(sum(fn_ccs)),
        float(max(fn_ccs)) if fn_ccs else 0.0,
        sum(fn_ccs) / len(fn_ccs) if fn_ccs else 0.0,
        float(coupling(tree)),
        float(max(fan_outs)) if fan_outs else 0.0,
        sum(fan_outs) / len(fan_outs) if fan_outs else 0.0,
        density,
        leaves / n_nodes if n_nodes > 1 else 0.0,
        float(external_calls),
        float(node_counts["Return"]),
    ]
    values = (
        [float(node_counts[k]) for k in NODE_KINDS]
        + [float(edge_counts[k]) for k in EDGE_KINDS]
        + scalars
    )
    return FlatFeatures(values)


# --- outlier capping ------------------------------------------------------------------

FALLBACK_CAPS = (200.0, 50.0, 25.0)  # lines, nodes, total_CC
_CAP_INDICES = (FLAT_LINES, FLAT_NODES, FLAT_TOTAL_CC)


def percentile_nearest_rank(values: list[float], percentile: float) -> float:
    """Nearest-rank percentile: smallest value with at least p% of data <= it."""
    if not values:
        raise EmptyInputError("percentile of empty data")
    ordered = sorted(values)
    rank = math.ceil(percentile / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def cap_outliers(
    flats: list[FlatFeatures],
    percentile: float = 99.0,
    fallback_caps: tuple[float, float, float] = FALLBACK_CAPS,
) -> list[FlatFeatures]:
    """Clamp lines, node count, and total complexity; returns new vectors.

    Each cap is min(empirical percentile, fallback).  Idempotent: clamped
    data re-caps to the same values.
    """
    if not flats:
        raise EmptyInputError("cap_outliers on empty sample list")
    if not 0.0 < percentile <= 100.0:
        raise DataError(f"percentile {percentile} outside (0, 100]")
    caps = {}
    for idx, fallback in zip(_CAP_INDICES, fallback_caps):
        empirical = percentile_nearest_rank([f.values[idx] for f in flats], percentile)
        caps[idx] = min(empirical, fallback)
    out = []
    for f in flats:
        values = list(f.values)
        for idx, cap in caps.items():
            if values[idx] > cap:
                values[idx] = cap
        out.append(FlatFeatures(values))
    return out
