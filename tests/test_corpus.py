"""Corpus pipeline: ingest, dedup, labeling, balancing, partitioning, manifests."""

from __future__ import annotations

import copy
import functools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refactorlab.corpus import (
    JITTER_SCALE,
    Provenance,
    _jitter_graph,
    _smote_target,
    build_dataset,
    dataset_from_doc,
    dataset_to_doc,
    dedup,
    filter_trivial,
    ingest_dir,
    ingest_units,
    label_unit,
    oversample,
    split_indices,
    structural_label,
    synth_corpus,
    units_from_bundle,
    units_to_bundle,
)
from refactorlab.errors import (
    DataError,
    RefactorLabError,
    SchemaError,
    SingleClassError,
    TooSmallError,
)
from refactorlab.corpus import LabeledSample
from refactorlab.graph import NODE_TYPE_INDEX, build_graph, edge_features, emit_graph_doc
from refactorlab.metrics import FLAT_DIM, FlatFeatures, cyclomatic
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.source import SourceUnit
from refactorlab.synth import generate_units

from conftest import PLAIN_SRC, SPLITTABLE_SRC, UNSPLITTABLE_SRC, edge_triples, nested_list

LABELED_SRC = (
    "def work(a):\n"
    "    acc = a\n"
    "    for i in range(a):\n"
    "        if acc > 3:\n"
    "            acc = acc + 1\n"
    "            if a > 5:\n"
    "                acc = acc + 2\n"
    "    out = acc * 2\n"
    "    return out\n"
)


def unit(path: str, body: str) -> SourceUnit:
    return SourceUnit.from_text(path, body)


# --- ingest and dedup ------------------------------------------------------------


def test_ingest_units_counts_parse_failures():
    units = [
        unit("a.mpy", PLAIN_SRC),
        unit("b.mpy", "def broken(:\n"),
        unit("c.mpy", SPLITTABLE_SRC),
        unit("d.mpy", "   x = 1\n"),  # bad indent
    ]
    kept, prov = ingest_units(units)
    assert [u.path for u in kept] == ["a.mpy", "c.mpy"]
    assert prov.ingested == 4
    assert prov.parse_failed == 2


def test_ingest_dir_walks_and_triages(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.mpy").write_text(SPLITTABLE_SRC)
    (tmp_path / "sub" / "b.mpy").write_text(PLAIN_SRC)
    (tmp_path / "broken.mpy").write_text("def broken(:\n")
    (tmp_path / "notes.txt").write_text("not minipy")
    # a byte that is not UTF-8 spoils an otherwise valid program
    (tmp_path / "latin.mpy").write_bytes(PLAIN_SRC.encode("utf-8") + b"z = \xff\n")
    units, prov = ingest_dir(tmp_path)
    assert prov.ingested == 4
    assert prov.parse_failed == 2
    assert [u.path for u in units] == ["a.mpy", "sub/b.mpy"]


def test_ingest_dir_rejects_non_directory(tmp_path):
    with pytest.raises(DataError):
        ingest_dir(tmp_path / "missing")


def test_dedup_keeps_lexicographically_first_path():
    units = [
        unit("z.mpy", PLAIN_SRC),
        unit("a.mpy", PLAIN_SRC),
        unit("m.mpy", SPLITTABLE_SRC),
    ]
    kept, removed = dedup(units)
    assert removed == 1
    assert [u.path for u in kept] == ["a.mpy", "m.mpy"]


def test_dedup_is_whitespace_insensitive():
    messy = PLAIN_SRC + "\n\n"
    kept, removed = dedup([unit("a.mpy", PLAIN_SRC), unit("b.mpy", messy)])
    assert removed == 1
    assert kept[0].path == "a.mpy"


def test_filter_trivial_drops_single_statement_modules():
    units = [
        unit("tiny.mpy", "x = 1\n"),
        unit("ok.mpy", "def f(a):\n    return a\n"),
        unit("flat.mpy", "x = 1\ny = x + 2\n"),
    ]
    kept, dropped = filter_trivial(ingest_units(units)[0])
    assert dropped == 1
    assert [u.path for u in kept] == ["ok.mpy", "flat.mpy"]


# --- structural labeling -----------------------------------------------------------


def test_structural_label_positive_case():
    tree = parse_source(LABELED_SRC)
    label, split_node = structural_label(tree)
    fn = tree.functions()[0]
    assert label == 1
    # split lands on the first statement after the qualifying loop
    assert split_node == fn.body()[2].id
    assert tree.nodes[split_node].kind == "Assign"


def test_structural_label_ignores_bare_trailing_return():
    label, split_node = structural_label(parse_source(UNSPLITTABLE_SRC))
    assert (label, split_node) == (0, None)


def test_structural_label_requires_two_decisions_in_loop():
    src = (
        "def f(a):\n"
        "    acc = 0\n"
        "    for i in range(a):\n"
        "        if i > 2:\n"
        "            acc = acc + i\n"
        "    out = acc + 1\n"
        "    return out\n"
    )
    assert structural_label(parse_source(src)) == (0, None)


def test_structural_label_negative_on_plain_code():
    assert structural_label(parse_source(PLAIN_SRC)) == (0, None)
    assert structural_label(parse_source("x = 1\ny = 2\n")) == (0, None)


def test_structural_label_accepts_while_loops():
    src = (
        "def f(a):\n"
        "    n = a\n"
        "    while n > 0:\n"
        "        if n > 5:\n"
        "            n = n - 2\n"
        "        if n > 9:\n"
        "            n = n - 3\n"
        "        n = n - 1\n"
        "    tail = n + 1\n"
        "    return tail\n"
    )
    tree = parse_source(src)
    label, split_node = structural_label(tree)
    assert label == 1
    assert tree.nodes[split_node].name == "tail"


# --- balancing --------------------------------------------------------------------


def test_smote_target_by_hand():
    # 30 minority / 70 majority at 40%: need m/(70+m) >= 0.4 => m >= 46.67
    assert _smote_target(30, 70, 0.40) == 47
    assert _smote_target(10, 90, 0.10) == 10  # already at the target
    assert _smote_target(1, 9, 0.50) == 9


def test_smote_target_rejects_degenerate_fractions():
    with pytest.raises(DataError):
        _smote_target(5, 5, 0.0)
    with pytest.raises(DataError):
        _smote_target(5, 5, 1.0)


def sample_with(label: int, bump: float) -> LabeledSample:
    values = [float(i) + bump for i in range(FLAT_DIM)]
    return LabeledSample(
        flat=FlatFeatures(values), label=label, source=PLAIN_SRC, tree=parse_source(PLAIN_SRC)
    )


def test_oversample_hits_target_fraction():
    samples = [sample_with(0, i * 10.0) for i in range(7)]
    samples += [sample_with(1, 100.0 + i) for i in range(3)]
    out, n_new = oversample(samples, target_minority=0.40, seed=5)
    assert n_new == 2
    assert len(out) == 12
    labels = [s.label for s in out]
    assert sum(labels) / len(labels) >= 0.40
    # originals come first, untouched
    assert out[:10] == samples


def test_oversample_rows_interpolate_minority_features():
    samples = [sample_with(0, i * 10.0) for i in range(7)]
    samples += [sample_with(1, 100.0 + i) for i in range(3)]
    out, _ = oversample(samples, target_minority=0.40, seed=5)
    minority = [s.flat.values for s in samples if s.label == 1]
    for synth in out[10:]:
        assert synth.label == 1
        assert synth.source is None
        parent, neighbor, _ = synth.recipe
        assert {samples[parent].label, samples[neighbor].label} == {1}
        for col, v in enumerate(synth.flat.values):
            lo = min(row[col] for row in minority)
            hi = max(row[col] for row in minority)
            assert lo - 1e-9 <= v <= hi + 1e-9


def test_oversample_jitter_preserves_type_column():
    samples = [sample_with(0, i * 10.0) for i in range(7)]
    samples += [sample_with(1, 100.0 + i) for i in range(3)]
    out, _ = oversample(samples, target_minority=0.40, seed=5)
    base = build_graph(parse_source(PLAIN_SRC))
    for synth in out[10:]:
        assert synth.graph.nodes == base.nodes
        assert len(synth.graph.src) == len(base.src)
        for got, src in zip(synth.graph.x.tolist(), base.x.tolist()):
            assert got[2] == src[2]  # type index untouched


def test_jitter_copy_is_independent_and_matches_a_deep_copy():
    source = build_graph(parse_source(SPLITTABLE_SRC))
    before = emit_graph_doc(source)
    u = 0.37
    # the reference: every column but the type index scaled, one float at a time
    expected = [
        [(f if col == NODE_TYPE_INDEX else f * (1.0 + JITTER_SCALE * u)).hex() for col, f in enumerate(row)]
        for row in source.x.tolist()
    ]
    jittered = _jitter_graph(source, u)
    assert [[f.hex() for f in row] for row in jittered.x.tolist()] == expected
    assert not np.shares_memory(jittered.x, source.x)
    with pytest.raises(ValueError, match="read-only"):
        jittered.x[0, 0] = -1.0
    assert emit_graph_doc(source) == before
    # the copy shares every structural field with its parent
    for name in ("nodes", "src", "dst", "kind", "parent", "depth"):
        assert getattr(jittered, name) is getattr(source, name), name


def test_oversample_is_deterministic():
    samples = [sample_with(0, i * 10.0) for i in range(7)]
    samples += [sample_with(1, 100.0 + i) for i in range(3)]
    a, _ = oversample(samples, seed=11)
    b, _ = oversample(samples, seed=11)
    assert [s.flat.values for s in a] == [s.flat.values for s in b]


def test_oversample_noop_when_balanced():
    samples = [sample_with(i % 2, float(i)) for i in range(10)]
    out, n_new = oversample(samples, target_minority=0.40)
    assert n_new == 0
    assert out == list(samples)


def test_oversample_rejects_single_class():
    with pytest.raises(SingleClassError):
        oversample([sample_with(1, float(i)) for i in range(4)])


# --- partitioning ------------------------------------------------------------------


def test_split_indices_small_exact():
    part = split_indices([0] * 5 + [1] * 5, test_fraction=0.2, seed=1)
    assert len(part["test"]) == 2
    assert len(part["train"]) == 8
    assert sorted(part["train"] + part["test"]) == list(range(10))


def test_split_indices_stratifies_exactly():
    labels = [1] * 40 + [0] * 60
    part = split_indices(labels, test_fraction=0.2, seed=9)
    test_labels = [labels[i] for i in part["test"]]
    assert len(part["test"]) == 20
    assert sum(test_labels) == 8  # 40% of the test slice, matching the pool
    assert part["train"] == sorted(part["train"])
    assert part["test"] == sorted(part["test"])


def test_split_indices_deterministic_per_seed():
    labels = [i % 2 for i in range(30)]
    assert split_indices(labels, seed=3) == split_indices(labels, seed=3)
    assert split_indices(labels, seed=3) != split_indices(labels, seed=4)


def test_split_indices_rejects_bad_input():
    with pytest.raises(TooSmallError):
        split_indices([1])
    with pytest.raises(DataError):
        split_indices([0, 1], test_fraction=1.0)


# --- full pipeline ------------------------------------------------------------------


def test_build_dataset_provenance_counts(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.mpy").write_text(LABELED_SRC)
    (tmp_path / "sub" / "b.mpy").write_text(PLAIN_SRC)
    (tmp_path / "dup1.mpy").write_text(SPLITTABLE_SRC)
    (tmp_path / "dup2.mpy").write_text(SPLITTABLE_SRC)
    (tmp_path / "trivial.mpy").write_text("x = 1\n")
    (tmp_path / "broken.mpy").write_text("def broken(:\n")
    units, prov = ingest_dir(tmp_path)
    ds = build_dataset(units, seed=3, provenance=prov)
    assert ds.provenance.ingested == 6
    assert ds.provenance.parse_failed == 1
    assert ds.provenance.deduped == 1
    assert ds.provenance.trivial_dropped == 1
    assert ds.provenance.oversampled == 1  # 1 positive of 3 -> one synthetic row
    assert len(ds.samples) == 4


def test_build_dataset_invariants(small_dataset):
    ds = small_dataset
    ds.validate()
    n = len(ds.samples)
    assert set(ds.split["train"]) | set(ds.split["test"]) == set(range(n))
    assert not set(ds.split["train"]) & set(ds.split["test"])
    assert len(ds.split["test"]) == int(0.2 * n)
    labels = [s.label for s in ds.samples]
    assert sum(labels) / n >= 0.40


def test_build_dataset_is_deterministic(small_dataset):
    kept, prov = ingest_units(generate_units(80, seed=7))
    again = build_dataset(kept, seed=7)
    assert dataset_to_doc(again) == dataset_to_doc(small_dataset)


def test_synth_corpus_rejects_tiny_n():
    with pytest.raises(DataError):
        synth_corpus(5, seed=1)


# --- interchange documents -----------------------------------------------------------


def test_bundle_round_trip():
    units = [unit("a.mpy", PLAIN_SRC), unit("b.mpy", SPLITTABLE_SRC)]
    doc = units_to_bundle(units, seed=77)
    back, seed = units_from_bundle(json.loads(json.dumps(doc)))
    assert seed == 77
    assert [(u.path, u.body) for u in back] == [(u.path, u.body) for u in units]


def test_bundle_rejects_malformed_documents():
    base = units_to_bundle([unit("a.mpy", PLAIN_SRC)], seed=1)

    def corrupt(mutate):
        doc = copy.deepcopy(base)
        mutate(doc)
        with pytest.raises(SchemaError):
            units_from_bundle(doc)

    corrupt(lambda d: d.update(extra=1))
    corrupt(lambda d: d.update(version="9"))
    corrupt(lambda d: d.update(seed="one"))
    corrupt(lambda d: d.update(seed=True))
    corrupt(lambda d: d.update(units={}))
    corrupt(lambda d: d["units"][0].update(digest="x"))
    corrupt(lambda d: d["units"][0].update(body=42))
    corrupt(lambda d: d["units"][0].update(body=PLAIN_SRC + "\ud800"))
    corrupt(lambda d: d["units"][0].update(path="a\udfff.mpy"))


def test_manifest_round_trip(small_dataset):
    doc = dataset_to_doc(small_dataset)
    wire = json.dumps(doc, sort_keys=True)
    back = dataset_from_doc(json.loads(wire))
    assert dataset_to_doc(back) == doc
    assert back.seed == small_dataset.seed
    assert back.provenance.to_doc() == small_dataset.provenance.to_doc()


def test_manifest_graphs_round_trip_with_derived_edge_features(small_dataset):
    doc = dataset_to_doc(small_dataset)
    assert doc["version"] == "5"
    # a sample stores its source or its SMOTE recipe; graphs are rebuilt on load
    for sample in doc["samples"]:
        assert "graph" not in sample
        assert set(sample) <= ({"source", "path", "flat", "label", "split_node"} if "source" in sample
                               else {"parent", "neighbor", "u", "label"})
    back = dataset_from_doc(json.loads(json.dumps(doc)))
    for was, now in zip(small_dataset.samples, back.samples, strict=True):
        assert now.graph.nodes == was.graph.nodes
        assert now.graph.x.tolist() == was.graph.x.tolist()
        assert edge_triples(now.graph) == edge_triples(was.graph)
        assert edge_features(now.graph) == edge_features(was.graph)
        assert (now.label, now.split_node) == (was.label, was.split_node)


def test_manifest_rebuilds_every_sample_exactly():
    # each real sample's graph comes back from its source and each copy's
    # graph and flat from its recipe, equal float for float
    kept, prov = ingest_units(generate_units(300, 11))
    ds = build_dataset(kept, seed=11, provenance=prov)
    assert any(s.recipe is not None for s in ds.samples)
    back = dataset_from_doc(json.loads(json.dumps(dataset_to_doc(ds), sort_keys=True)))
    for was, now in zip(ds.samples, back.samples, strict=True):
        assert emit_graph_doc(now.graph) == emit_graph_doc(was.graph)
        assert now.flat.values == was.flat.values
        assert (now.label, now.split_node) == (was.label, was.split_node)
        assert (now.source, now.path, now.recipe) == (was.source, was.path, was.recipe)
    assert dataset_to_doc(back) == dataset_to_doc(ds)


def test_labeled_split_after_an_earlier_return_is_left_out():
    # the loop-then-tail pattern still labels the program, but the Return
    # inside the loop makes the tail no legal split point
    src = LABELED_SRC.replace("acc = acc + 2\n", "return acc\n")
    tree = parse_source(src)
    label, split_node = structural_label(tree)
    assert (label, split_node) == (1, None)
    ds = build_dataset(ingest_units([unit("r.mpy", src), unit("p.mpy", PLAIN_SRC)])[0], seed=1)
    assert dataset_to_doc(dataset_from_doc(dataset_to_doc(ds))) == dataset_to_doc(ds)


def test_manifest_rejects_malformed_documents(small_dataset):
    base = dataset_to_doc(small_dataset)
    positive = next(i for i, s in enumerate(base["samples"]) if s.get("split_node"))
    negative = next(i for i, s in enumerate(base["samples"]) if s["label"] == 0)
    copy_at = next(i for i, s in enumerate(base["samples"]) if "parent" in s)
    other_copy = next(i for i, s in enumerate(base["samples"]) if "parent" in s and i != copy_at)

    def corrupt(mutate, where=None):
        doc = copy.deepcopy(base)
        mutate(doc)
        with pytest.raises(SchemaError) as exc:
            dataset_from_doc(doc)
        if where is not None:  # one line, naming the sample
            assert f"samples[{where}]" in str(exc.value) and "\n" not in str(exc.value)

    corrupt(lambda d: d.update(extra=1))
    corrupt(lambda d: d.update(version="0"))
    corrupt(lambda d: d.update(version="4"))
    corrupt(lambda d: d.update(seed="x"))
    corrupt(lambda d: d.update(provenance={"ingested": -1}))
    corrupt(lambda d: d.update(provenance={"bogus": 1}))
    corrupt(lambda d: d.update(samples={}))
    corrupt(lambda d: d["samples"][0].update(label=2), 0)
    corrupt(lambda d: d["samples"][0].update(label=float(d["samples"][0]["label"])), 0)
    corrupt(lambda d: d["samples"][0].update(flat=[1.0, 2.0]), 0)
    corrupt(lambda d: d["samples"][0].update(mystery=True), 0)
    corrupt(lambda d: d["samples"][0].pop("flat"), 0)
    corrupt(lambda d: d.update(split={"train": [0]}))
    corrupt(lambda d: d["split"]["train"].append(0))  # overlap/cover violation
    corrupt(lambda d: d["split"]["train"].append(d["split"]["train"][0]))  # listed twice
    corrupt(lambda d: d["split"]["test"].append(d["split"]["test"][0]))
    corrupt(lambda d: d.update(folds=[[0]]))  # version 3 dropped folds: an unknown field
    corrupt(lambda d: d["split"]["train"].__setitem__(0, "x"))
    corrupt(lambda d: d["split"]["train"].__setitem__(0, d["split"]["train"][0] + 0.5))
    corrupt(lambda d: d["split"]["train"].__setitem__(0, True))
    corrupt(lambda d: d["samples"][0]["flat"].__setitem__(0, "x"), 0)
    corrupt(lambda d: d["samples"][0]["flat"].__setitem__(0, True), 0)
    corrupt(lambda d: d["samples"][0]["flat"].__setitem__(0, float("nan")), 0)
    # a split node must be a legal split point of the sample's own source:
    # out of range, not an integer, or a node no tail may start at (the
    # FunctionDef, id 1)
    for split_node in (10**6, -1, True, 1.5, 1):
        corrupt(lambda d: d["samples"][positive].update(split_node=split_node), positive)
    # version 5 stores no graph: the old v4 encoding is an unknown field, on
    # a sample with source and on a copy alike
    graph_doc = emit_graph_doc(small_dataset.samples[0].graph)
    corrupt(lambda d: d["samples"][0].update(graph=graph_doc), 0)
    corrupt(lambda d: d["samples"][copy_at].update(graph=graph_doc), copy_at)
    # a source that does not parse
    corrupt(lambda d: d["samples"][0].update(source="def broken(:\n"), 0)
    corrupt(lambda d: d["samples"][0].update(source=7), 0)
    # a recipe names two samples with source, of the copy's own label
    for key in ("parent", "neighbor"):
        for bad in (True, -1, len(base["samples"]), 1.0, "0", other_copy, negative):
            corrupt(lambda d: d["samples"][copy_at].update({key: bad}), copy_at)
    # u is a number in [0, 1)
    for u in (float("nan"), -0.1, 1.0, 1.5, float("inf"), True, "0.5", None):
        corrupt(lambda d: d["samples"][copy_at].update(u=u), copy_at)
    # a copy carries its recipe and label only; a sample with source no recipe
    corrupt(lambda d: d["samples"][copy_at].update(source=PLAIN_SRC), copy_at)
    corrupt(lambda d: d["samples"][copy_at].update(flat=base["samples"][0]["flat"]), copy_at)
    corrupt(lambda d: d["samples"][copy_at].update(split_node=1), copy_at)
    corrupt(lambda d: d["samples"][copy_at].pop("u"), copy_at)
    corrupt(lambda d: d["samples"][0].update(parent=0), 0)


# --- manifest robustness ----------------------------------------------------------

# a valid source whose loop body holds one 3,000-term operator chain
CHAIN_SRC = (
    "def chain(a):\n"
    "    s = 0\n"
    "    for i in range(a):\n"
    "        s = " + " + ".join(["i"] * 3000) + "\n"
    "    return s\n"
)


@functools.cache
def _tiny_manifest_json() -> str:
    kept, prov = ingest_units(generate_units(12, 3))
    doc = dataset_to_doc(build_dataset(kept, seed=3, provenance=prov))
    assert sum("parent" in s for s in doc["samples"]) == 3
    return json.dumps(doc)


def tiny_manifest() -> dict:
    """A fresh copy of a 15-sample v5 manifest with 3 oversampled copies."""
    return json.loads(_tiny_manifest_json())


# values posing as the number, index, string or object a slot expects
_POSERS = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.integers(min_value=-(2**65), max_value=2**65),
    st.integers(min_value=-3, max_value=20),
    st.floats(),
    st.sampled_from([0.0, 1.0, 0.5, 10**6]),
    st.sampled_from([2, 5000]).map(nested_list),
    st.sampled_from([[], {}, {"a": 1}]),
)
_SAMPLE_KEYS = ("source", "path", "flat", "label", "split_node", "parent", "neighbor", "u", "graph")
_MUTATIONS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 99), st.sampled_from(_SAMPLE_KEYS), _POSERS),
    st.tuples(st.just("drop"), st.integers(0, 99), st.sampled_from(_SAMPLE_KEYS)),
    st.tuples(st.just("flat"), st.integers(0, 99), st.integers(0, 34), _POSERS),
    st.tuples(st.just("chain"), st.integers(0, 99)),
    st.tuples(
        st.just("set"),
        st.integers(0, 99),
        st.just("source"),
        st.one_of(
            st.text(max_size=12), st.sampled_from(["def broken(:\n", "x = 1\n", "\n", PLAIN_SRC])
        ),
    ),
    st.tuples(st.just("sample"), st.integers(0, 99), _POSERS),
    st.tuples(st.just("split"), st.sampled_from(["train", "test"]), st.integers(0, 99), _POSERS),
    st.tuples(
        st.just("top"),
        st.sampled_from(["version", "seed", "provenance", "samples", "split"]),
        _POSERS,
    ),
    st.tuples(
        st.just("provenance"), st.sampled_from(["ingested", "oversampled", "bogus"]), _POSERS
    ),
)


def _mutate(doc: dict, mutation: tuple) -> None:
    op, *args = mutation
    samples = doc["samples"] if isinstance(doc.get("samples"), list) else []
    if op == "top":
        doc[args[0]] = args[1]
    elif op == "provenance" and isinstance(doc.get("provenance"), dict):
        doc["provenance"][args[0]] = args[1]
    elif op == "split" and isinstance(doc.get("split"), dict):
        entries = doc["split"].get(args[0])
        if not isinstance(entries, list):
            return
        if args[1] < len(entries):
            entries[args[1]] = args[2]
        else:
            entries.append(args[2])
    elif op in ("set", "drop", "flat", "chain", "sample") and samples:
        i = args[0] % len(samples)
        sample = samples[i]
        if op == "sample":
            samples[i] = args[1]
        elif not isinstance(sample, dict):
            return
        elif op == "set":
            sample[args[1]] = args[2]
        elif op == "drop":
            sample.pop(args[1], None)
        elif op == "flat" and isinstance(sample.get("flat"), list) and sample["flat"]:
            sample["flat"][args[1] % len(sample["flat"])] = args[2]
        elif op == "chain":
            sample["source"] = CHAIN_SRC
            sample.pop("split_node", None)


@settings(max_examples=300, deadline=None)
@given(st.lists(_MUTATIONS, min_size=1, max_size=3))
@example([("chain", 0)])
@example([("set", 14, "parent", True), ("set", 13, "u", None)])
def test_manifest_loader_fails_only_at_load_with_its_own_errors(mutations):
    # any mutated manifest either loads or raises a RefactorLabError (exit
    # 3); a manifest that loads builds every graph on first read without a
    # failure, so deferring the build moves no error past the load
    doc = tiny_manifest()
    for mutation in mutations:
        _mutate(doc, mutation)
    try:
        dataset = dataset_from_doc(doc)
    except RefactorLabError:
        return
    for sample in dataset.samples:
        assert len(sample.graph.nodes) > 0


def test_manifest_with_a_3000_term_chain_loads_and_builds_its_graph():
    doc = tiny_manifest()
    _mutate(doc, ("chain", 0))
    sample = dataset_from_doc(doc).samples[0]
    assert sample.source == CHAIN_SRC
    direct = build_graph(parse_source(CHAIN_SRC))
    assert emit_graph_doc(sample.graph) == emit_graph_doc(direct)


def test_manifest_rejects_post_metrics_without_split(small_dataset):
    # version 2 dropped post_metrics; the old key is an unknown field
    doc = copy.deepcopy(dataset_to_doc(small_dataset))
    target = doc["samples"][0]
    target.pop("split_node", None)
    target["post_metrics"] = {"cyclomatic": 1.0, "coupling": 0.0}
    with pytest.raises(SchemaError):
        dataset_from_doc(doc)


def test_provenance_doc_round_trip():
    prov = Provenance(ingested=9, parse_failed=2, deduped=1, trivial_dropped=3, oversampled=4)
    assert Provenance.from_doc(prov.to_doc()).to_doc() == prov.to_doc()
    assert Provenance.from_doc({}).to_doc()["ingested"] == 0
