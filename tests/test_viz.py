"""Graph renderings: DOT structure, color rules, self-contained HTML."""

from __future__ import annotations

import re

from refactorlab.graph import build_graph
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.split import extract_split
from refactorlab.viz import function_render_metrics, to_dot, to_html

from conftest import IMPORT_HEAVY_SRC, PLAIN_SRC, SPLITTABLE_SRC, edge_triples

HOT_SRC = (
    "def hot(a):\n"
    "    acc = 0\n"
    "    for i in range(a):\n"
    "        if i > 1:\n"
    "            acc = acc + 1\n"
    "        if i > 2:\n"
    "            acc = acc + 2\n"
    "        if i > 3:\n"
    "            acc = acc + 3\n"
    "        if i > 4:\n"
    "            acc = acc + 4\n"
    "        if i > 5:\n"
    "            acc = acc + 5\n"
    "        if i > 6:\n"
    "            acc = acc + 6\n"
    "        if i > 7:\n"
    "            acc = acc + 7\n"
    "        if i > 8:\n"
    "            acc = acc + 8\n"
    "        if i > 9:\n"
    "            acc = acc + 9\n"
    "        if i > 10:\n"
    "            acc = acc + 10\n"
    "        if i > 11:\n"
    "            acc = acc + 11\n"
    "        if i > 12:\n"
    "            acc = acc + 12\n"
    "    return acc\n"
)


def render(src: str) -> str:
    tree = parse_source(src)
    return to_dot(build_graph(tree), metrics=function_render_metrics(tree))


def page(src: str) -> str:
    tree = parse_source(src)
    return to_html(build_graph(tree), function_render_metrics(tree))


# --- DOT output -----------------------------------------------------------------


def test_dot_is_a_digraph_with_every_node_and_edge():
    graph = build_graph(parse_source(PLAIN_SRC))
    dot = render(PLAIN_SRC)
    assert dot.startswith("digraph code {")
    assert dot.endswith("}\n")
    for node_id, kind in enumerate(graph.nodes):
        assert f'n{node_id} [label="{kind}#{node_id}"' in dot
    assert len(re.findall(r"n\d+ -> n\d+", dot)) == len(graph.src)


def test_hot_function_renders_red():
    # 14 decisions -> cyclomatic 15, past the threshold of 12
    dot = render(HOT_SRC)
    m = re.search(r'n\d+ \[label="FunctionDef#\d+".*fillcolor=(\w+)', dot)
    assert m and m.group(1) == "red"


def test_low_coupling_function_renders_green():
    dot = render(PLAIN_SRC)
    m = re.search(r'label="FunctionDef#\d+".*fillcolor=(\w+)', dot)
    assert m and m.group(1) == "green"


def test_heavily_coupled_function_renders_gray():
    # the hub touches 6 imported modules: too coupled for green, too simple for red
    tree = parse_source(IMPORT_HEAVY_SRC)
    metrics = function_render_metrics(tree)
    hub = max(metrics.values(), key=lambda m: m["coupling"])
    assert hub["coupling"] >= 4
    dot = to_dot(build_graph(tree), metrics=metrics)
    colors = re.findall(r'label="FunctionDef#\d+".*fillcolor=(\w+)', dot)
    assert "gray" in colors


def test_red_takes_precedence_over_green():
    # hot and uncoupled at once: complexity wins
    tree = parse_source(HOT_SRC)
    metrics = function_render_metrics(tree)
    fn_id = next(iter(metrics))
    assert metrics[fn_id]["coupling"] == 0.0
    dot = to_dot(build_graph(tree), metrics=metrics)
    assert f'FunctionDef#{fn_id}", style=filled, fillcolor=red' in dot


def test_non_function_nodes_are_never_red():
    dot = render(HOT_SRC)
    for line in dot.splitlines():
        if "label=" in line and "FunctionDef" not in line:
            assert "fillcolor=red" not in line


def test_edge_colors_split_control_from_data():
    graph = build_graph(parse_source(SPLITTABLE_SRC))
    dot = render(SPLITTABLE_SRC)
    kinds = {kind for _, _, kind in edge_triples(graph)}
    assert {"Parent", "DataFlow"} <= kinds
    assert "color=blue" in dot
    assert "color=purple" in dot


def test_every_edge_has_a_unit_stroke():
    graph = build_graph(parse_source(SPLITTABLE_SRC))
    assert render(SPLITTABLE_SRC).count("penwidth=1") == len(graph.src)
    assert page(SPLITTABLE_SRC).count('stroke-width="1"') == len(graph.src)


# --- HTML output -----------------------------------------------------------------


def test_html_is_byte_deterministic():
    assert page(SPLITTABLE_SRC) == page(SPLITTABLE_SRC)


def test_html_is_self_contained():
    html = page(SPLITTABLE_SRC)
    assert html.startswith("<!DOCTYPE html>")
    assert "<script" not in html
    assert "http://" not in html.replace("http://www.w3.org/2000/svg", "")
    assert "https://" not in html
    assert html.count("<svg") == 1


def test_html_caption_without_functions():
    assert "<p>no functions</p>" in page("x = 1\ny = x + 2\n")


def test_html_before_after_panels_and_caption():
    tree = parse_source(SPLITTABLE_SRC)
    after = extract_split(tree, tree.functions()[0].children[2].id)
    html = to_html(
        build_graph(tree),
        after=build_graph(after),
        before_metrics=function_render_metrics(tree),
        after_metrics=function_render_metrics(after),
    )
    assert html.count("<svg") == 2
    assert "<figcaption>before</figcaption>" in html
    assert "<figcaption>after</figcaption>" in html
    assert "→" in html
    assert re.search(r"CC \d+.*→.*CC \d+", html)
