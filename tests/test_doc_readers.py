"""Property tests for the source-bundle, workspace and checkpoint readers.

Each example mutates a valid document (a source bundle, a workspace, a GCN
checkpoint or a decision-tree checkpoint) at random paths: values swapped
for bools, strings (a lone surrogate among them, which JSON can carry and
UTF-8 cannot), nulls, floats, huge or negative ints, small ints that make
out-of-range ids, or lists nested 5,000 deep; keys dropped; unknown keys
added.  A reader may accept the result or raise a ``RefactorLabError``
other than ``InvariantError`` (so the command line exits 2 or 3), and it
must reject every document that holds a bool or an unknown key.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from refactorlab.cli import _load_workspace, _workspace_doc
from refactorlab.corpus import build_dataset, ingest_units, units_from_bundle, units_to_bundle
from refactorlab.dtree import dtree_from_doc, dtree_to_doc, train_dtree
from refactorlab.errors import InvariantError, RefactorLabError
from refactorlab.gcn import GcnConfig, gcn_from_doc, gcn_to_doc, init_model
from refactorlab.synth import generate_units

from conftest import nested_list, run_cli

UNKNOWN_KEY = "zz_unknown"


@lru_cache(maxsize=None)
def _valid_json(kind: str) -> str:
    kept, prov = ingest_units(generate_units(12, 3))
    dataset = build_dataset(kept, seed=3, provenance=prov)
    rows = [dataset.samples[i] for i in dataset.split["train"]]
    dtree = train_dtree([s.flat.values for s in rows], [s.label for s in rows])
    gnn = init_model(3, GcnConfig(layers=2, units=3))
    doc = {
        "bundle": units_to_bundle(generate_units(12, 3), 3),
        "workspace": _workspace_doc(dataset, {"gnn": gnn, "dtree": dtree}),
        "gnn": gcn_to_doc(gnn),
        "dtree": dtree_to_doc(dtree),
    }[kind]
    return json.dumps(doc)


def _load(kind: str, doc: dict) -> None:
    if kind == "bundle":
        units_from_bundle(doc)
    elif kind == "gnn":
        gcn_from_doc(doc)
    elif kind == "dtree":
        dtree_from_doc(doc)
    else:
        _load_workspace(doc)  # which decodes every checkpoint the workspace carries


_POSERS = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.just("x = 1\n\ud800"),
    st.integers(min_value=-(2**65), max_value=2**65),
    st.sampled_from([10**400, -(10**400)]),
    st.integers(min_value=-3, max_value=20),
    st.floats(),
    st.sampled_from([2, 5000]).map(nested_list),
    st.sampled_from(["[]", "{}", '{"a": 1}']).map(json.loads),  # fresh: later mutations edit it
)


def _walk(doc):
    """Every value in ``doc`` and the keys of every object, without recursion."""
    stack = [doc]
    while stack:
        value = stack.pop()
        yield value
        if isinstance(value, dict):
            yield from value.keys()
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)


def _mutate(data, doc: dict) -> None:
    """One mutation at a random path: set a value, drop an entry, or add a key."""
    op = data.draw(st.sampled_from(["set", "set", "drop", "key"]))
    node, path = doc, []
    for _ in range(data.draw(st.integers(0, 8))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append((node, key))
        node = node[key]
    if op == "key":
        if isinstance(node, dict):
            node[UNKNOWN_KEY] = data.draw(_POSERS)
    elif path:
        parent, key = path[-1]
        if op == "set":
            parent[key] = data.draw(_POSERS)
        else:
            del parent[key]


KINDS = ["bundle", "workspace", "gnn", "dtree"]


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n_mutations=st.integers(1, 3))
def test_readers_fail_only_with_their_own_errors(kind, data, n_mutations):
    doc = json.loads(_valid_json(kind))
    for _ in range(n_mutations):
        _mutate(data, doc)
    poisoned = any(isinstance(v, bool) or v == UNKNOWN_KEY for v in _walk(doc))
    try:
        _load(kind, doc)
    except RefactorLabError as exc:
        assert not isinstance(exc, InvariantError), exc
        return
    assert not poisoned, "a document holding a bool or an unknown key was accepted"


@pytest.mark.parametrize("kind", KINDS)
def test_the_unmutated_documents_load(kind):
    _load(kind, json.loads(_valid_json(kind)))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n_mutations=st.integers(1, 3))
def test_eval_on_a_mutated_workspace_exits_with_a_data_error(data, n_mutations):
    doc = json.loads(_valid_json("workspace"))
    for _ in range(n_mutations):
        _mutate(data, doc)
    poisoned = any(isinstance(v, bool) or v == UNKNOWN_KEY for v in _walk(doc))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)  # json.dumps recurses into the 5,000-deep posers
    try:
        text = json.dumps(doc)
    finally:
        sys.setrecursionlimit(limit)
    code, _, err = run_cli(["eval", "--format", "json"], stdin_text=text)
    assert code in ((2, 3) if poisoned else (0, 2, 3)), err
    assert "Traceback" not in err
