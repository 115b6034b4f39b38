"""DOT and static HTML renderings of code graphs.

Function nodes are colored by their metrics: red when subtree cyclomatic
complexity exceeds the hot threshold, green when the function's local
coupling stays under the cool threshold, gray otherwise; non-function
nodes are never red.  Structural edges (containment, sibling order,
control flow) draw blue, reference edges (calls, data flow) purple, all
with a unit stroke.

The HTML view is fully self-contained — inline SVG, no scripts, no
network fetches — with before/after panels and a metrics caption, and is
byte-identical for identical inputs.
"""

from __future__ import annotations

import html

from .graph import NODE_SUBTREE_CC, CodeGraph, EdgeRecord
from .metrics import cyclomatic
from .minipy.nodes import AstTree

_CONTROL_EDGES = frozenset({"Parent", "NextSibling", "ControlFlow"})

# a function is hot above this cyclomatic complexity, cool below this coupling
RED_COMPLEXITY_THRESHOLD = 12.0
GREEN_COUPLING_THRESHOLD = 4.0


def function_render_metrics(tree: AstTree) -> dict[int, dict[str, float]]:
    """Per-FunctionDef cyclomatic and local coupling, keyed by node id.

    Local coupling is the number of distinct imported modules the
    function's own subtree touches through dotted calls.
    """
    imports = {n.name for n in tree.nodes if n.kind == "Import" and n.name}
    out: dict[int, dict[str, float]] = {}
    for fn in tree.functions():
        used: set[str] = set()
        for node in fn.walk():
            if node.kind == "Call" and node.name and "." in node.name:
                base = node.name.split(".")[0]
                if base in imports:
                    used.add(base)
        out[fn.id] = {"cyclomatic": float(cyclomatic(fn)), "coupling": float(len(used))}
    return out


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


def _edge_color(edge: EdgeRecord) -> str:
    return "blue" if edge.kind in _CONTROL_EDGES else "purple"


def to_dot(graph: CodeGraph, metrics: dict[int, dict[str, float]] | None = None) -> str:
    """Render a graph as a DOT digraph with the metric color scheme.

    ``metrics`` maps FunctionDef node ids to their cyclomatic/coupling
    values (see function_render_metrics); without it every function node
    falls back to its subtree-cyclomatic node feature and zero coupling.
    """
    if metrics is None:
        metrics = {
            n.id: {"cyclomatic": float(n.features[NODE_SUBTREE_CC]), "coupling": 0.0}
            for n in graph.nodes
            if n.kind == "FunctionDef"
        }
    lines = ["digraph code {", "  rankdir=TB;"]
    for node in graph.nodes:
        color = _node_color(node.kind, node.id, metrics)
        lines.append(
            f'  n{node.id} [label="{node.kind}#{node.id}", style=filled, '
            f"fillcolor={color}];"
        )
    for edge in graph.edges:
        lines.append(f"  n{edge.src} -> n{edge.dst} [color={_edge_color(edge)}, penwidth=1];")
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
    children: dict[int, list[int]] = {n.id: [] for n in graph.nodes}
    parent: dict[int, int] = {}
    for e in graph.edges:
        if e.kind == "Parent":
            children[e.src].append(e.dst)
            parent[e.dst] = e.src
    for kids in children.values():
        kids.sort()
    roots = [n.id for n in graph.nodes if n.id not in parent]
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

    for root in sorted(roots):
        place(root, 0)
    return pos


def _svg_for(graph: CodeGraph, metrics: dict[int, dict[str, float]] | None) -> str:
    if metrics is None:
        metrics = {
            n.id: {"cyclomatic": float(n.features[NODE_SUBTREE_CC]), "coupling": 0.0}
            for n in graph.nodes
            if n.kind == "FunctionDef"
        }
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
    for edge in graph.edges:
        parts.append(
            f'<line x1="{cx(edge.src):.1f}" y1="{cy(edge.src):.1f}" '
            f'x2="{cx(edge.dst):.1f}" y2="{cy(edge.dst):.1f}" '
            f'stroke="{_edge_color(edge)}" stroke-width="1" opacity="0.6"/>'
        )
    for node in graph.nodes:
        color = _node_color(node.kind, node.id, metrics)
        label = f"{node.kind}#{node.id}"
        parts.append(
            f'<g><title>{html.escape(label)}</title>'
            f'<circle cx="{cx(node.id):.1f}" cy="{cy(node.id):.1f}" r="{_RADIUS}" '
            f'fill="{color}" fill-opacity="0.35" stroke="{color}"/>'
            f'<text x="{cx(node.id):.1f}" y="{cy(node.id) + 3:.1f}" '
            f'font-size="8" text-anchor="middle" '
            f'font-family="monospace">{html.escape(node.kind[:6])}{node.id}</text></g>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _caption_value(graph: CodeGraph, metrics: dict[int, dict[str, float]] | None) -> str:
    if metrics:
        cc = max(m["cyclomatic"] for m in metrics.values())
        cp = max(m["coupling"] for m in metrics.values())
        return f"CC {cc:g}, coupling {cp:g}"
    fn_cc = [n.features[NODE_SUBTREE_CC] for n in graph.nodes if n.kind == "FunctionDef"]
    if fn_cc:
        return f"CC {max(fn_cc):g}"
    root_cc = graph.nodes[0].features[NODE_SUBTREE_CC] if graph.nodes else 0.0
    return f"CC {root_cc:g}"


def to_html(
    before: CodeGraph,
    after: CodeGraph | None = None,
    before_metrics: dict[int, dict[str, float]] | None = None,
    after_metrics: dict[int, dict[str, float]] | None = None,
) -> str:
    """Self-contained HTML with inline SVG panels and a metrics caption."""
    panels = [("before", before, before_metrics)]
    if after is not None:
        panels.append(("after", after, after_metrics))
    caption = _caption_value(before, before_metrics)
    if after is not None:
        caption += " → " + _caption_value(after, after_metrics)
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
