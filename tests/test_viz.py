"""Graph renderings: DOT structure, color rules, self-contained HTML."""

from __future__ import annotations

import re

import pytest

from refactorlab.graph import build_graph
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.split import extract_split
from refactorlab.viz import (
    RenderStyle,
    caption_metrics,
    function_render_metrics,
    to_dot,
    to_html,
)

from conftest import IMPORT_HEAVY_SRC, PLAIN_SRC, SPLITTABLE_SRC

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


def render(src: str, **kwargs) -> str:
    tree = parse_source(src)
    return to_dot(build_graph(tree), metrics=function_render_metrics(tree), **kwargs)


# --- style validation -----------------------------------------------------------


def test_render_style_rejects_non_positive_thresholds():
    with pytest.raises(ValueError):
        RenderStyle(red_complexity_threshold=0.0)
    with pytest.raises(ValueError):
        RenderStyle(green_coupling_threshold=-1.0)
    with pytest.raises(ValueError):
        RenderStyle(thick_weight_threshold=0.0)


# --- DOT output -----------------------------------------------------------------


def test_dot_is_a_digraph_with_every_node_and_edge():
    graph = build_graph(parse_source(PLAIN_SRC))
    dot = to_dot(graph)
    assert dot.startswith("digraph code {")
    assert dot.endswith("}\n")
    for node in graph.nodes:
        assert f'n{node.id} [label="{node.kind}#{node.id}"' in dot
    assert len(re.findall(r"n\d+ -> n\d+", dot)) == len(graph.edges)


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
    dot = to_dot(graph)
    kinds = {e.kind for e in graph.edges}
    assert {"Parent", "DataFlow"} <= kinds
    assert "color=blue" in dot
    assert "color=purple" in dot


def test_heavy_edges_get_thick_strokes():
    graph = build_graph(parse_source(SPLITTABLE_SRC))
    dot = to_dot(graph)
    heavy = sum(1 for e in graph.edges if e.features[2] > 2.0)
    assert dot.count("penwidth=3") == heavy
    assert dot.count("penwidth=1") == len(graph.edges) - heavy


def test_dot_without_metrics_uses_subtree_feature():
    graph = build_graph(parse_source(HOT_SRC))
    assert "fillcolor=red" in to_dot(graph)


# --- HTML output -----------------------------------------------------------------


def test_html_is_byte_deterministic():
    graph = build_graph(parse_source(SPLITTABLE_SRC))
    a = to_html(graph)
    b = to_html(build_graph(parse_source(SPLITTABLE_SRC)))
    assert a == b


def test_html_is_self_contained():
    page = to_html(build_graph(parse_source(SPLITTABLE_SRC)))
    assert page.startswith("<!DOCTYPE html>")
    assert "<script" not in page
    assert "http://" not in page.replace("http://www.w3.org/2000/svg", "")
    assert "https://" not in page
    assert page.count("<svg") == 1


def test_html_before_after_panels_and_caption():
    tree = parse_source(SPLITTABLE_SRC)
    after = extract_split(tree, tree.functions()[0].children[2].id)
    page = to_html(
        build_graph(tree),
        after=build_graph(after),
        before_metrics=caption_metrics(tree),
        after_metrics=caption_metrics(after),
    )
    assert page.count("<svg") == 2
    assert "<figcaption>before</figcaption>" in page
    assert "<figcaption>after</figcaption>" in page
    assert "→" in page
    assert re.search(r"CC \d+.*→.*CC \d+", page)


def test_caption_metrics_fold_in_module_coupling():
    tree = parse_source(IMPORT_HEAVY_SRC)
    metrics = caption_metrics(tree)
    for m in metrics.values():
        assert "module_coupling" in m
        assert m["module_coupling"] >= m["coupling"]


def test_custom_style_changes_colors():
    style = RenderStyle(hot_color="orange", red_complexity_threshold=0.5)
    dot = render(PLAIN_SRC, style=style)
    assert "fillcolor=orange" in dot  # low bar makes every function hot
