"""Shared fixtures: canned sources, parsed trees, and a small cached corpus."""

from __future__ import annotations

import contextlib
import io
import re
import sys

import numpy as np
import pytest

from refactorlab.cli import main as cli_main
from refactorlab.corpus import Dataset, build_dataset, ingest_units
from refactorlab.graph import EDGE_KIND_INDEX, EDGE_KINDS, CodeGraph, build_graph
from refactorlab.minipy.parser import parse_source
from refactorlab.synth import generate_units


def run_cli(argv, stdin_text: str | None = None) -> tuple[int, str, str]:
    """Drive the CLI in-process, capturing stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()

# A function whose body ends in a loop with decisions inside and real work
# after it: the shape every detector is supposed to flag.
SPLITTABLE_SRC = """\
def tally(n, base):
    acc = base
    for i in range(n):
        if i > 2:
            acc = acc + i
        else:
            if acc > 10:
                acc = acc - 1
    scaled = acc * 2
    extra = scaled + n
    return extra

print(tally(6, 1))
"""

# Same decision count, but everything after the loop is a bare return, so
# splitting would extract nothing.
UNSPLITTABLE_SRC = """\
def drain(n):
    acc = 0
    for i in range(n):
        if i > 1:
            acc = acc + i
        else:
            if acc > 5:
                acc = acc - 2
    return acc
"""

PLAIN_SRC = """\
def double(x):
    y = x * 2
    return y

print(double(4))
"""

IMPORT_HEAVY_SRC = """\
import alpha
import beta
import gamma
import delta
import epsilon
import zeta

def hub(x):
    a = alpha.pull(x)
    b = beta.pull(a)
    c = gamma.pull(b)
    d = delta.pull(c)
    e = epsilon.pull(d)
    f = zeta.pull(e)
    return f
"""


# Six imported modules reached through dotted calls: at module level, in
# `relay`, and in the nested `mix` (scope depth 2), with two Imports inside
# a function and one after it.  Module coupling 6 trips the coupling rule;
# `relay` reaches 5 modules, `mix` 3.
COUPLED_SRC = """\
import alpha
import beta
import delta

def relay(n):
    import gamma
    import zeta
    a = alpha.pull(n)
    def mix(k):
        b = beta.push(k)
        c = gamma.blend(b, a)
        e = delta.fold(c)
        return e
    d = mix(a)
    if d > 3:
        d = zeta.trim(d)
    return d

import epsilon
x = alpha.pull(1)
y = epsilon.push(x)
print(relay(y))
"""


def edge_triples(graph: CodeGraph) -> list[tuple[int, int, str]]:
    """A graph's edges as (src, dst, kind name) triples, in edge order."""
    return [(src, dst, EDGE_KINDS[kind]) for src, dst, kind in graph.edges()]


def graph_of(
    kinds: list[str], x: np.ndarray, triples: list[tuple[int, int, str]], parent: list[int | None]
) -> CodeGraph:
    """A graph from its node kinds, feature rows, (src, dst, kind name)
    edges and parent links, with each depth counted up the parent links."""
    depth = []
    for p in parent:
        d = 0
        while p is not None:
            d, p = d + 1, parent[p]
        depth.append(d)
    src, dst, names = zip(*triples) if triples else ((), (), ())
    return CodeGraph(
        nodes=list(kinds),
        x=np.array(x, dtype=np.float64),
        src=np.array(src, dtype=np.int64),
        dst=np.array(dst, dtype=np.int64),
        kind=np.array([EDGE_KIND_INDEX[k] for k in names], dtype=np.int8),
        parent=list(parent),
        depth=depth,
    )


def permuted(graph: CodeGraph, perm: list[int]) -> CodeGraph:
    """Relabel node ids by ``perm``: node ``v`` becomes node ``perm[v]``, its
    row of ``x``, its parent link and its depth moving with it."""
    new_to_old = np.argsort(perm)
    to_new = np.array(perm, dtype=np.int64)
    parent = [graph.parent[v] for v in new_to_old.tolist()]
    return CodeGraph(
        nodes=[graph.nodes[v] for v in new_to_old.tolist()],
        x=graph.x[new_to_old],
        src=to_new[graph.src],
        dst=to_new[graph.dst],
        kind=graph.kind,
        parent=[None if p is None else perm[p] for p in parent],
        depth=[graph.depth[v] for v in new_to_old.tolist()],
    )


def nested_list(depth: int) -> list:
    """An empty list wrapped ``depth`` times."""
    value: list = []
    for _ in range(depth):  # built in a loop: deeper than the recursion limit
        value = [value]
    return value


def grown_source(nodes: int, seed: int = 11) -> str:
    """Synthetic programs joined into one file of at least ``nodes`` AST nodes.

    Each program's functions get a suffix of their own, so no two functions
    of the file share a name.  The same arguments give the same file.
    """
    parts: list[str] = []
    count = 1  # the shared Module root
    for i, unit in enumerate(generate_units(nodes // 5, seed)):
        if count >= nodes:
            break
        body = unit.body
        for name in re.findall(r"^\s*def (\w+)\(", body, flags=re.M):
            body = re.sub(rf"\b{name}\b", f"{name}_u{i}", body)
        count += len(parse_source(body).nodes) - 1
        parts.append(body)
    return "\n".join(parts)


@pytest.fixture
def splittable_tree():
    return parse_source(SPLITTABLE_SRC)


@pytest.fixture
def splittable_graph(splittable_tree) -> CodeGraph:
    return build_graph(splittable_tree)


@pytest.fixture
def plain_tree():
    return parse_source(PLAIN_SRC)


@pytest.fixture(scope="session")
def small_dataset() -> Dataset:
    """An 80-program synthetic corpus, built once per test session."""
    units, prov = ingest_units(generate_units(80, seed=7))
    return build_dataset(units, seed=7, provenance=prov)
