"""Threshold rules: strict cutoffs, finding order, and the graph-only path."""

from __future__ import annotations

from refactorlab.graph import build_graph
from refactorlab.metrics import coupling, cyclomatic, flat_features
from refactorlab.rules import (
    HIGH_COMPLEXITY_CC,
    HIGH_COUPLING_DEPS,
    LONG_METHOD_LINES,
    analyze_rules,
    classify_rules,
    classify_rules_graph,
)
from refactorlab.minipy.parser import parse_source
from refactorlab.synth import generate_units


def fn_with_cc(cc: int) -> str:
    """A function whose cyclomatic complexity is exactly ``cc``."""
    body = "".join(f"    if a > {i}:\n        a = a + 1\n" for i in range(cc - 1))
    return f"def dense(a):\n{body}    return a\n"


def fn_with_lines(lines: int) -> str:
    """A function spanning exactly ``lines`` source lines."""
    body = "".join(f"    v{i} = {i}\n" for i in range(lines - 2))
    return f"def long(a):\n{body}    return a\n"


def module_with_coupling(deps: int) -> str:
    imports = "".join(f"import mod{i}\n" for i in range(deps))
    calls = "".join(f"x{i} = mod{i}.pull({i})\n" for i in range(deps))
    return imports + calls + "y = 1\n"


def test_thresholds_are_the_documented_constants():
    assert LONG_METHOD_LINES == 20.0
    assert HIGH_COMPLEXITY_CC == 10.0
    assert HIGH_COUPLING_DEPS == 5.0


# --- strict boundary behavior ---------------------------------------------------


def test_values_at_thresholds_produce_no_findings():
    tree = parse_source(fn_with_cc(10))
    assert cyclomatic(tree.functions()[0]) == 10
    assert analyze_rules(tree) == []

    tree = parse_source(fn_with_lines(20))
    fn = tree.functions()[0]
    assert fn.span[1] - fn.span[0] + 1 == 20
    assert analyze_rules(tree) == []

    tree = parse_source(module_with_coupling(5))
    assert coupling(tree) == 5
    assert analyze_rules(tree) == []


def test_one_over_each_threshold_fires_exactly_one_rule():
    tree = parse_source(fn_with_cc(11))
    findings = analyze_rules(tree)
    # a function with ten sequential ifs is 21 lines long, so the length
    # rule fires alongside the complexity rule; pick out the one under test
    assert [f.rule for f in findings if f.rule == "HighComplexity"] == ["HighComplexity"]
    cc = next(f for f in findings if f.rule == "HighComplexity")
    assert cc.measured == 11.0 and cc.threshold == 10.0

    findings = analyze_rules(parse_source(fn_with_lines(21)))
    assert [f.rule for f in findings] == ["LongMethod"]
    assert findings[0].measured == 21.0

    findings = analyze_rules(parse_source(module_with_coupling(6)))
    assert [f.rule for f in findings] == ["HighCoupling"]
    assert findings[0].measured == 6.0
    assert findings[0].target == 0 and findings[0].target_name == "module"


def test_verdict_is_any_rule_fired():
    assert classify_rules(parse_source(fn_with_lines(20))) == 0
    assert classify_rules(parse_source(fn_with_lines(21))) == 1
    assert classify_rules(parse_source("x = 1\n")) == 0


def test_findings_ordered_by_rule_then_target():
    src = fn_with_lines(25) + "\n" + fn_with_cc(12).replace("dense", "dense2")
    tree = parse_source(src)
    findings = analyze_rules(tree)
    rules = [f.rule for f in findings]
    assert rules == sorted(rules, key={"LongMethod": 0, "HighComplexity": 1, "HighCoupling": 2}.get)
    long_targets = [f.target for f in findings if f.rule == "LongMethod"]
    assert long_targets == sorted(long_targets)


def test_finding_fields_round_trip():
    finding = analyze_rules(parse_source(fn_with_lines(30)))[0]
    doc = finding.to_dict()
    assert doc["rule"] == "LongMethod"
    assert doc["measured"] == 30.0
    assert "suggestion" in doc and doc["target_name"] == "long"


# --- graph-only path ---------------------------------------------------------------


def test_graph_classifier_matches_tree_classifier():
    for unit in generate_units(120, seed=21):
        tree = parse_source(unit.body)
        graph = build_graph(tree)
        flat = flat_features(tree)
        assert classify_rules_graph(graph, flat) == classify_rules(tree), unit.path


def test_graph_classifier_on_boundary_cases():
    for src, want in [
        (fn_with_cc(10), 0),
        (fn_with_cc(11), 1),
        (fn_with_lines(20), 0),
        (fn_with_lines(21), 1),
        (module_with_coupling(5), 0),
        (module_with_coupling(6), 1),
    ]:
        tree = parse_source(src)
        graph = build_graph(tree)
        assert classify_rules_graph(graph, flat_features(tree)) == want
