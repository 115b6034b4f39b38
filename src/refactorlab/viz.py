"""DOT and static HTML renderings of code graphs.

Function nodes are colored by their metrics: red when cyclomatic
complexity exceeds the hot threshold, green when the function's coupling
(``metrics.coupling`` over its subtree, the one definition of coupling)
stays under the cool threshold, gray otherwise; non-function nodes are
never red.  Structural edges (containment, sibling order, control flow)
draw blue, reference edges (calls, data flow) purple, all with a unit
stroke.

The HTML view is fully self-contained — inline SVG, no scripts, no
network fetches — with before/after panels and a metrics caption, and is
byte-identical for identical inputs.
"""

from __future__ import annotations

import html

from .graph import FLOW_KINDS, CodeGraph
from .metrics import coupling, cyclomatic
from .minipy.nodes import AstTree

# a function is hot above this cyclomatic complexity, cool below this coupling
RED_COMPLEXITY_THRESHOLD = 12.0
GREEN_COUPLING_THRESHOLD = 4.0


def function_render_metrics(tree: AstTree) -> dict[int, dict[str, float]]:
    """Per-FunctionDef cyclomatic and coupling, keyed by node id."""
    return {
        fn.id: {"cyclomatic": float(cyclomatic(fn)), "coupling": float(coupling(tree, fn.id))}
        for fn in tree.functions()
    }


def _node_color(kind: str, node_id: int, metrics: dict[int, dict[str, float]]) -> str:
    if kind != "FunctionDef":
        return "gray"
    m = metrics.get(node_id)
    if m is None:
        return "gray"
    if m["cyclomatic"] > RED_COMPLEXITY_THRESHOLD:
        return "red"
    if m["coupling"] < GREEN_COUPLING_THRESHOLD:
        return "green"
    return "gray"


def _edge_color(kind: int) -> str:
    return "blue" if kind in FLOW_KINDS else "purple"


def to_dot(graph: CodeGraph, metrics: dict[int, dict[str, float]]) -> str:
    """Render a graph as a DOT digraph with the metric color scheme.

    ``metrics`` maps FunctionDef node ids to their cyclomatic/coupling
    values, as ``function_render_metrics`` gives them.
    """
    lines = ["digraph code {", "  rankdir=TB;"]
    for node_id, kind in enumerate(graph.nodes):
        color = _node_color(kind, node_id, metrics)
        lines.append(
            f'  n{node_id} [label="{kind}#{node_id}", style=filled, '
            f"fillcolor={color}];"
        )
    for src, dst, kind in graph.edges():
        lines.append(f"  n{src} -> n{dst} [color={_edge_color(kind)}, penwidth=1];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- SVG / HTML -------------------------------------------------------------


_X_STEP = 64
_Y_STEP = 72
_RADIUS = 15
_MARGIN = 24


def _layout(graph: CodeGraph) -> dict[int, tuple[float, int]]:
    """(x slot, depth) per node from the containment tree.

    Leaves take consecutive slots in id order; parents center over their
    children, which keeps the drawing deterministic.
    """
    children: list[list[int]] = [[] for _ in graph.parent]
    for node_id, p in enumerate(graph.parent):  # ascending, so each list is sorted
        if p is not None:
            children[p].append(node_id)
    pos: dict[int, tuple[float, int]] = {}
    next_slot = 0

    def place(node_id: int, depth: int) -> float:
        nonlocal next_slot
        kids = children[node_id]
        if not kids:
            x = float(next_slot)
            next_slot += 1
        else:
            xs = [place(k, depth + 1) for k in kids]
            x = sum(xs) / len(xs)
        pos[node_id] = (x, depth)
        return x

    place(graph.parent.index(None), 0)
    return pos


def _svg_for(graph: CodeGraph, metrics: dict[int, dict[str, float]]) -> str:
    pos = _layout(graph)
    max_x = max((p[0] for p in pos.values()), default=0.0)
    max_d = max((p[1] for p in pos.values()), default=0)
    width = int(max_x * _X_STEP) + 2 * _MARGIN + _X_STEP
    height = (max_d + 1) * _Y_STEP + 2 * _MARGIN

    def cx(node_id: int) -> float:
        return _MARGIN + _RADIUS + pos[node_id][0] * _X_STEP

    def cy(node_id: int) -> float:
        return _MARGIN + _RADIUS + pos[node_id][1] * _Y_STEP

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for src, dst, kind in graph.edges():
        parts.append(
            f'<line x1="{cx(src):.1f}" y1="{cy(src):.1f}" '
            f'x2="{cx(dst):.1f}" y2="{cy(dst):.1f}" '
            f'stroke="{_edge_color(kind)}" stroke-width="1" opacity="0.6"/>'
        )
    for node_id, kind in enumerate(graph.nodes):
        color = _node_color(kind, node_id, metrics)
        label = f"{kind}#{node_id}"
        parts.append(
            f'<g><title>{html.escape(label)}</title>'
            f'<circle cx="{cx(node_id):.1f}" cy="{cy(node_id):.1f}" r="{_RADIUS}" '
            f'fill="{color}" fill-opacity="0.35" stroke="{color}"/>'
            f'<text x="{cx(node_id):.1f}" y="{cy(node_id) + 3:.1f}" '
            f'font-size="8" text-anchor="middle" '
            f'font-family="monospace">{html.escape(kind[:6])}{node_id}</text></g>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _caption_value(metrics: dict[int, dict[str, float]]) -> str:
    if not metrics:
        return "no functions"
    cc = max(m["cyclomatic"] for m in metrics.values())
    cp = max(m["coupling"] for m in metrics.values())
    return f"CC {cc:g}, coupling {cp:g}"


def to_html(
    before: CodeGraph,
    before_metrics: dict[int, dict[str, float]],
    after: CodeGraph | None = None,
    after_metrics: dict[int, dict[str, float]] | None = None,
) -> str:
    """Self-contained HTML with inline SVG panels and a metrics caption.

    Each panel's metrics come from ``function_render_metrics`` on its
    tree; ``after_metrics`` goes with ``after``.
    """
    panels = [("before", before, before_metrics)]
    caption = _caption_value(before_metrics)
    if after is not None:
        panels.append(("after", after, after_metrics))
        caption += " → " + _caption_value(after_metrics)
    body = []
    for title, graph, metrics in panels:
        body.append(
            '<figure style="display:inline-block;vertical-align:top;'
            'margin:8px;border:1px solid #ccc;padding:8px">'
            f"<figcaption>{html.escape(title)}</figcaption>"
            f"{_svg_for(graph, metrics)}</figure>"
        )
    return (
        "<!DOCTYPE html>\n"
        '<html><head><meta charset="utf-8"><title>code graph</title></head>\n'
        "<body>\n"
        f"<p>{html.escape(caption)}</p>\n" + "\n".join(body) + "\n</body></html>\n"
    )
