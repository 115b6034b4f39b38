"""Extract-method transform: legal split points, shape, liveness, and behavior."""

from __future__ import annotations

import pytest

from refactorlab.errors import SplitError
from refactorlab.metrics import cyclomatic
from refactorlab.minipy.interp import behavior_fingerprint
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.printer import pretty_print
from refactorlab.minipy.split import extract_split, live_variables, split_points
from refactorlab.rng import Rng

from conftest import SPLITTABLE_SRC


def fingerprints(tree, name: str, arg_tuples) -> list[tuple]:
    return [behavior_fingerprint(tree, name, list(args)) for args in arg_tuples]


def stmt_id(tree, k: int, fn: int = 0) -> int:
    """Node id of body statement k of the fn-th function, in preorder."""
    return tree.functions()[fn].children[k].id


# --- legal split points -------------------------------------------------------


def test_split_points_fixture():
    tree = parse_source(SPLITTABLE_SRC)
    body_ids = [c.id for c in tree.functions()[0].children]
    # every body statement except the first is eligible; nothing precedes
    # them that returns, and the trailing Return itself may start a tail
    assert split_points(tree) == body_ids[1:]


def test_split_points_blocked_after_return():
    src = (
        "def f(a):\n"
        "    x = a + 1\n"
        "    if x > 3:\n"
        "        return 0\n"
        "    y = x * 2\n"
        "    return y\n"
    )
    tree = parse_source(src)
    body_ids = [c.id for c in tree.functions()[0].children]
    # the if-statement (index 1) is eligible, but it contains a Return,
    # so every later statement is blocked
    assert split_points(tree) == [body_ids[1]]


def test_split_points_skip_single_statement_functions():
    assert split_points(parse_source("def f(a):\n    return a\n")) == []
    assert split_points(parse_source("x = 1\n")) == []


def test_split_points_ascend_across_nested_functions():
    src = (
        "def outer(a):\n"
        "    x = a\n"
        "    def inner(b):\n"
        "        c = b\n"
        "        d = c\n"
        "    y = x\n"
        "    return y\n"
    )
    tree = parse_source(src)
    outer, inner = tree.functions()
    # inner's point lies between outer's in preorder
    expected = [c.id for c in outer.children[1:]] + [inner.children[1].id]
    assert split_points(tree) == sorted(expected)
    # a Return inside the nested def blocks every later statement of outer
    blocked = parse_source(src.replace("        d = c\n", "        return c\n"))
    outer, inner = blocked.functions()
    assert split_points(blocked) == [outer.children[1].id, inner.children[1].id]


# --- shape ------------------------------------------------------------------


def test_split_produces_head_call_and_tail_function():
    tree = parse_source(SPLITTABLE_SRC)
    out = extract_split(tree, stmt_id(tree, 2))
    names = [f.name for f in out.functions()]
    assert names == ["tally", "tally_tail"]
    head = out.functions()[0]
    # head keeps its first two statements and ends with a handoff return
    assert [n.kind for n in head.body()] == ["Assign", "For", "Return"]
    handoff = head.body()[-1]
    assert handoff.children and handoff.children[0].kind == "Call"
    assert handoff.children[0].name == "tally_tail"


def test_split_tail_parameters_are_live_variables_in_read_order():
    tree = parse_source(SPLITTABLE_SRC)
    fn = tree.functions()[0]
    # after the loop, the tail reads acc then n; both defined upstream
    assert live_variables(fn, 2) == ["acc", "n"]
    out = extract_split(tree, stmt_id(tree, 2))
    tail = out.functions()[1]
    assert tail.params == ("acc", "n")


def test_split_tail_name_avoids_collisions():
    src = (
        "def work(n):\n"
        "    a = n + 1\n"
        "    b = a * 2\n"
        "    return b\n"
        "\n"
        "def work_tail(x):\n"
        "    return x\n"
    )
    tree = parse_source(src)
    out = extract_split(tree, stmt_id(tree, 1))
    assert {f.name for f in out.functions()} == {"work", "work_tail", "work_tail2"}


def test_split_output_is_reparsed_and_valid():
    tree = parse_source(SPLITTABLE_SRC)
    out = extract_split(tree, stmt_id(tree, 3))
    out.validate()
    assert out.nodes[0].kind == "Module"


def test_split_reduces_max_function_complexity():
    # decisions on both sides of the split point, so extracting the tail
    # genuinely lowers the worst per-function complexity
    src = (
        "def churn(n):\n"
        "    acc = 0\n"
        "    for i in range(n):\n"
        "        if i > 1:\n"
        "            if acc > 4:\n"
        "                acc = acc + 2\n"
        "    step = acc + n\n"
        "    if step > 5:\n"
        "        step = step - 1\n"
        "    if step > 9:\n"
        "        step = step * 2\n"
        "    return step\n"
    )
    tree = parse_source(src)
    pre = max(cyclomatic(f) for f in tree.functions())
    out = extract_split(tree, stmt_id(tree, 2))
    post = max(cyclomatic(f) for f in out.functions())
    assert pre == 6  # loop + two nested ifs + two trailing ifs
    assert post == 4  # head keeps loop decisions, tail keeps the trailing ifs


def test_split_after_loop_keeps_head_complexity():
    # when every decision lives in the loop, the head keeps them all and
    # the extracted tail is straight line: max complexity is unchanged
    tree = parse_source(SPLITTABLE_SRC)
    pre = max(cyclomatic(f) for f in tree.functions())
    out = extract_split(tree, stmt_id(tree, 2))
    head, tail = out.functions()
    assert pre == 4
    assert cyclomatic(head) == 4
    assert cyclomatic(tail) == 1


def test_split_does_not_mutate_input_tree():
    # the split shares every node off the root-to-function path with its
    # input, so a split anywhere, nested functions included, must leave the
    # input's text, ids, parent links and children lists as they were
    nested = (
        "def outer(a):\n"
        "    x = a\n"
        "    def inner(b):\n"
        "        c = b\n"
        "        d = c\n"
        "    y = x\n"
        "    return y\n"
    )
    tree = parse_source(SPLITTABLE_SRC + nested)

    def state():
        children = [[id(c) for c in n.children] for n in tree.nodes]
        return pretty_print(tree), [n.id for n in tree.nodes], list(tree.parent), children

    before = state()
    for point in split_points(tree):
        extract_split(tree, point)
        assert state() == before


# --- rejection --------------------------------------------------------------


def test_split_rejects_unknown_function():
    # the module-level print call belongs to no function body
    tree = parse_source(SPLITTABLE_SRC)
    with pytest.raises(SplitError, match="not a legal split point"):
        extract_split(tree, tree.nodes[0].children[-1].id)


@pytest.mark.parametrize("k", [0, -1, 5, 99])
def test_split_rejects_out_of_range_index(k):
    # 0 is the Module, 5 an If inside the loop, -1 and 99 are no node
    with pytest.raises(SplitError):
        extract_split(parse_source(SPLITTABLE_SRC), k)


def test_split_rejects_return_in_head():
    src = (
        "def early(n):\n"
        "    if n > 3:\n"
        "        return 0\n"
        "    x = n + 1\n"
        "    return x\n"
    )
    tree = parse_source(src)
    with pytest.raises(SplitError):
        extract_split(tree, stmt_id(tree, 2))


def test_split_addresses_the_function_by_node_not_name():
    # two functions named step; the legal point lies in the later one,
    # whose body the earlier, shorter step could not hold
    src = (
        "def step(n):\n"
        "    a = n + 1\n"
        "    return a\n"
        "\n"
        "def step(n):\n"
        "    a = n\n"
        "    for i in range(n):\n"
        "        a = a + i\n"
        "    b = a - 1\n"
        "    c = b + 2\n"
        "    return c\n"
    )
    tree = parse_source(src)
    node = stmt_id(tree, 3, fn=1)
    assert node in split_points(tree)
    out = extract_split(tree, node)
    first, later, tail = out.functions()
    assert (first.name, later.name, tail.name) == ("step", "step", "step_tail")
    assert [n.kind for n in first.body()] == ["Assign", "Return"]
    assert [n.kind for n in later.body()] == ["Assign", "For", "Assign", "Return"]
    assert tail.params == ("b",)


# --- behavior preservation -----------------------------------------------------


def test_split_preserves_behavior_on_fixture():
    tree = parse_source(SPLITTABLE_SRC)
    inputs = [(n, base) for n in range(7) for base in (-3, 0, 4)]
    for k in (1, 2, 3):
        out = extract_split(tree, stmt_id(tree, k))
        assert fingerprints(out, "tally", inputs) == fingerprints(tree, "tally", inputs)


def test_split_preserves_traces_with_external_calls():
    src = (
        "import chan\n"
        "\n"
        "def emit(n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        total = total + chan.cost(i)\n"
        "    chan.flush(total)\n"
        "    print(total)\n"
        "    return total\n"
    )
    tree = parse_source(src)
    out = extract_split(tree, stmt_id(tree, 2))
    inputs = [(n,) for n in range(5)]
    assert fingerprints(out, "emit", inputs) == fingerprints(tree, "emit", inputs)


def test_split_preserves_behavior_randomized():
    rng = Rng(2024)
    src = (
        "def mix(a, b):\n"
        "    acc = a\n"
        "    for i in range(b):\n"
        "        if acc > 6:\n"
        "            acc = acc - 2\n"
        "        else:\n"
        "            acc = acc + i\n"
        "    spread = acc * 3\n"
        "    residue = spread - b\n"
        "    return residue\n"
    )
    tree = parse_source(src)
    for k in (1, 2, 3, 4):
        out = extract_split(tree, stmt_id(tree, k))
        for _ in range(25):
            args = [rng.randint(-5, 9), rng.randint(0, 8)]
            assert behavior_fingerprint(out, "mix", args) == behavior_fingerprint(
                tree, "mix", args
            )
