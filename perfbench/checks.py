"""Correctness checks made apart from the program.

Nothing here imports refactorlab.  Source-level facts come from CPython's
``ast`` (every synthetic MiniPy program is also valid Python), and the
program's outputs are read as the JSON or HTML documents it prints.
Each check returns a list of human-readable problems; empty means pass.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator

_DECISIONS = (ast.If, ast.For, ast.While)
_RATE_TOL = 1e-9


def _preorder(node: ast.AST) -> Iterator[ast.AST]:
    yield node
    for child in ast.iter_child_nodes(node):
        yield from _preorder(child)


def _decisions(node: ast.AST) -> int:
    """If/For/While nodes in a subtree, the node itself included; bodies of
    nested functions belong to those functions."""
    total = 1 if isinstance(node, _DECISIONS) else 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            continue
        total += _decisions(child)
    return total


def _functions(source: str) -> list[ast.FunctionDef]:
    return [n for n in _preorder(ast.parse(source)) if isinstance(n, ast.FunctionDef)]


def is_valid_python(source: str) -> bool:
    try:
        ast.parse(source)
    except SyntaxError:
        return False
    return True


def count_defs(source: str) -> int:
    return len(_functions(source))


# --- labels ------------------------------------------------------------------


def loop_then_tail_label(source: str) -> int:
    """1 when some function body holds a loop with two or more decisions
    strictly inside it, followed by a statement that is not a return."""
    for fn in _functions(source):
        body = fn.body
        for i, stmt in enumerate(body):
            if not isinstance(stmt, (ast.For, ast.While)):
                continue
            if _decisions(stmt) - 1 < 2:
                continue
            if i + 1 < len(body) and not isinstance(body[i + 1], ast.Return):
                return 1
    return 0


def check_labels(manifest: dict) -> list[str]:
    """Labels of sourced samples follow the loop-then-tail rule; samples
    without source are oversampled copies and carry the minority label."""
    problems: list[str] = []
    sourced = [s for s in manifest["samples"] if s.get("source") is not None]
    if not sourced:
        return ["manifest has no sample with source"]
    for s in sourced:
        want = loop_then_tail_label(s["source"])
        if s["label"] != want:
            problems.append(f"{s.get('path')}: label {s['label']}, rule gives {want}")
    positives = sum(s["label"] for s in sourced)
    minority = 1 if positives < len(sourced) - positives else 0
    for i, s in enumerate(manifest["samples"]):
        if s.get("source") is None and s["label"] != minority:
            problems.append(f"samples[{i}]: oversampled copy has label {s['label']}")
    return problems


# --- cyclomatic complexity -------------------------------------------------------


def check_cyclomatic(source: str, report: dict) -> list[str]:
    """Per-function complexity equals 1 + If/For/While in the function."""
    want: dict[str, int] = {}
    for fn in _functions(source):
        key = fn.name if fn.name not in want else f"{fn.name}@L{fn.lineno}"
        want[key] = 1 + sum(_decisions(stmt) for stmt in fn.body if not isinstance(stmt, ast.FunctionDef))
    got = {k: v.get("cyclomatic") for k, v in report["per_function"].items()}
    if got == want:
        return []
    wrong = sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))
    return [f"cyclomatic differs for {len(wrong)} functions, first {wrong[0]}: "
            f"program {got.get(wrong[0])}, ast {want.get(wrong[0])}"]


# --- evaluation report --------------------------------------------------------------


def _close(a: Any, b: float | None) -> bool:
    if b is None or a is None:
        return a is None and b is None
    return abs(a - b) <= _RATE_TOL


def check_rates(report: dict) -> list[str]:
    """Rates recomputed from each model's confusion counts, which must
    cover the test split exactly."""
    problems: list[str] = []
    n_test = report["corpus"]["n_test"]
    for name, ev in sorted(report["models"].items()):
        c = ev["confusion"]
        tp, fp, tn, fn = c["tp"], c["fp"], c["tn"], c["fn"]
        if tp + fp + tn + fn != n_test:
            problems.append(f"{name}: confusion sums to {tp + fp + tn + fn}, n_test {n_test}")
            continue
        precision = tp / (tp + fp) if tp + fp else None
        recall = tp / (tp + fn) if tp + fn else None
        f1 = None
        if precision is not None and recall is not None and precision + recall > 0:
            f1 = 2 * precision * recall / (precision + recall)
        want = {"accuracy": (tp + tn) / n_test if n_test else None,
                "precision": precision, "recall": recall, "f1": f1}
        for key, value in want.items():
            if not _close(ev[key], value):
                problems.append(f"{name}.{key} is {ev[key]}, counts give {value}")
    return problems


def check_ordering(report: dict) -> list[str]:
    """The headline claim, as acceptance criterion 5 states it: gnn F1 >=
    0.85, gnn F1 > dtree F1 > rules F1, rules F1 <= 0.80; and no suggested
    split raises complexity."""
    m = report["models"]
    f1 = {name: m[name]["f1"] for name in ("gnn", "dtree", "rules")}
    if any(v is None for v in f1.values()):
        return [f"undefined F1: {f1}"]
    problems: list[str] = []
    if not (f1["gnn"] >= 0.85 and f1["gnn"] > f1["dtree"] > f1["rules"]):
        problems.append(f"F1 order broken: {f1}")
    if f1["rules"] > 0.80:
        problems.append(f"rules F1 {f1['rules']} above 0.80")
    for name, ev in sorted(m.items()):
        drop = ev["complexity_drop_pct"]
        if drop is not None and drop < 0:
            problems.append(f"{name}: complexity drop {drop} < 0")
    return problems


# --- graphs and split points ----------------------------------------------------------


def _parent_children(graph: dict) -> tuple[dict[int, int], dict[int, list[int]]]:
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {n["id"]: [] for n in graph["nodes"]}
    for e in graph["edges"]:
        if e["kind"] == "Parent":
            parent.setdefault(e["dst"], e["src"])
            children.setdefault(e["src"], []).append(e["dst"])
    for kids in children.values():
        kids.sort()
    return parent, children


def check_graph(source: str, graph: dict) -> list[str]:
    """Parent edges form a tree over all nodes; one FunctionDef per def."""
    problems: list[str] = []
    nodes = graph["nodes"]
    ids = [n["id"] for n in nodes]
    if ids != list(range(len(nodes))):
        problems.append("node ids are not 0..n-1 in order")
    parent_edges = [e for e in graph["edges"] if e["kind"] == "Parent"]
    if len(parent_edges) != len(nodes) - 1:
        problems.append(f"{len(parent_edges)} Parent edges for {len(nodes)} nodes")
    parent, children = _parent_children(graph)
    if len(parent) != len(parent_edges):
        problems.append("a node has two Parent edges")
    roots = [i for i in ids if i not in parent]
    if len(roots) != 1:
        problems.append(f"{len(roots)} roots")
    else:
        seen = {roots[0]}
        stack = [roots[0]]
        while stack:
            for kid in children.get(stack.pop(), []):
                if kid in seen:
                    problems.append(f"node {kid} reached twice")
                    return problems
                seen.add(kid)
                stack.append(kid)
        if len(seen) != len(nodes):
            problems.append(f"{len(nodes) - len(seen)} nodes unreachable from the root")
    fn_nodes = sum(1 for n in nodes if n["kind"] == "FunctionDef")
    defs = count_defs(source)
    if fn_nodes != defs:
        problems.append(f"{fn_nodes} FunctionDef nodes, {defs} defs in the source")
    return problems


def legal_split_points(graph: dict) -> set[int]:
    """Statements of a function body after its first one, with no return
    anywhere in the statements before them."""
    _, children = _parent_children(graph)
    kind = {n["id"]: n["kind"] for n in graph["nodes"]}

    def has_return(root: int) -> bool:
        stack = [root]
        while stack:
            cur = stack.pop()
            if kind[cur] == "Return":
                return True
            stack.extend(children.get(cur, []))
        return False

    legal: set[int] = set()
    for node_id, k in kind.items():
        if k != "FunctionDef":
            continue
        blocked = False
        for i, stmt in enumerate(children.get(node_id, [])):
            if i >= 1 and not blocked:
                legal.add(stmt)
            blocked = blocked or has_return(stmt)
    return legal


def check_suggestion(graph: dict, suggestion: dict) -> list[str]:
    """A suggested node is a legal split point; none only when none exists."""
    legal = legal_split_points(graph)
    node = suggestion["node_id"]
    if node is None:
        return [] if not legal else [f"no suggestion though {len(legal)} legal split points exist"]
    if node not in legal or suggestion.get("eligible") is not True:
        return [f"suggested node {node} is not a legal split point"]
    return []


def check_viz(page: str, split: bool) -> list[str]:
    """One 'before' panel, plus an 'after' panel exactly when a split applies."""
    problems: list[str] = []
    if not page.startswith("<!DOCTYPE html>"):
        problems.append("output is not an HTML page")
    if page.count("<figcaption>before</figcaption>") != 1:
        problems.append("no single before panel")
    after = page.count("<figcaption>after</figcaption>")
    if after != (1 if split else 0):
        problems.append(f"{after} after panels, split {'expected' if split else 'not expected'}")
    return problems


# --- ingest provenance ---------------------------------------------------------------


def check_provenance(manifest: dict, files: int, broken: int, copies: int) -> list[str]:
    """Triage counts equal what the benchmark planted."""
    prov = manifest["provenance"]
    want = {"ingested": files, "parse_failed": broken, "deduped": copies}
    return [
        f"provenance.{key} is {prov.get(key)}, planted {value}"
        for key, value in want.items()
        if prov.get(key) != value
    ]
