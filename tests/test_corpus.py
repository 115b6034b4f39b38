"""Corpus pipeline: ingest, dedup, labeling, balancing, partitioning, manifests."""

from __future__ import annotations

import copy
import json

import pytest

from refactorlab.corpus import (
    Provenance,
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
    SchemaError,
    SingleClassError,
    TooSmallError,
)
from refactorlab.corpus import LabeledSample
from refactorlab.graph import build_graph
from refactorlab.metrics import FLAT_DIM, FlatFeatures, cyclomatic
from refactorlab.minipy.parser import parse_source
from refactorlab.minipy.source import SourceUnit

from conftest import PLAIN_SRC, SPLITTABLE_SRC, UNSPLITTABLE_SRC

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
    units, prov = ingest_dir(tmp_path)
    assert prov.ingested == 3
    assert prov.parse_failed == 1
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
    kept, dropped = filter_trivial(units)
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
    graph = build_graph(parse_source(PLAIN_SRC))
    values = [float(i) + bump for i in range(FLAT_DIM)]
    return LabeledSample(graph=graph, flat=FlatFeatures(values), label=label)


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
        assert [n.kind for n in synth.graph.nodes] == [n.kind for n in base.nodes]
        assert len(synth.graph.edges) == len(base.edges)
        for got, src in zip(synth.graph.nodes, base.nodes):
            assert got.features[2] == src.features[2]  # type index untouched


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
    from refactorlab.synth import generate_units

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


def test_manifest_round_trip(small_dataset):
    doc = dataset_to_doc(small_dataset)
    wire = json.dumps(doc, sort_keys=True)
    back = dataset_from_doc(json.loads(wire))
    assert dataset_to_doc(back) == doc
    assert back.seed == small_dataset.seed
    assert back.provenance.to_doc() == small_dataset.provenance.to_doc()


def test_manifest_rejects_malformed_documents(small_dataset):
    base = dataset_to_doc(small_dataset)

    def corrupt(mutate):
        doc = copy.deepcopy(base)
        mutate(doc)
        with pytest.raises(SchemaError):
            dataset_from_doc(doc)

    corrupt(lambda d: d.update(extra=1))
    corrupt(lambda d: d.update(version="0"))
    corrupt(lambda d: d.update(seed="x"))
    corrupt(lambda d: d.update(provenance={"ingested": -1}))
    corrupt(lambda d: d.update(provenance={"bogus": 1}))
    corrupt(lambda d: d.update(samples={}))
    corrupt(lambda d: d["samples"][0].update(label=2))
    corrupt(lambda d: d["samples"][0].update(flat=[1.0, 2.0]))
    corrupt(lambda d: d["samples"][0].update(mystery=True))
    corrupt(lambda d: d["samples"][0].pop("graph"))
    corrupt(lambda d: d.update(split={"train": [0]}))
    corrupt(lambda d: d["split"]["train"].append(0))  # overlap/cover violation
    corrupt(lambda d: d["split"]["train"].append(d["split"]["train"][0]))  # listed twice
    corrupt(lambda d: d["split"]["test"].append(d["split"]["test"][0]))
    corrupt(lambda d: d.update(folds=[[0]]))  # version 3 dropped folds: an unknown field
    corrupt(lambda d: d["split"]["train"].__setitem__(0, "x"))
    corrupt(lambda d: d["split"]["train"].__setitem__(0, d["split"]["train"][0] + 0.5))
    corrupt(lambda d: d["split"]["train"].__setitem__(0, True))
    corrupt(lambda d: d["samples"][0]["flat"].__setitem__(0, "x"))
    corrupt(lambda d: d["samples"][0]["flat"].__setitem__(0, True))
    corrupt(lambda d: d["samples"][0]["flat"].__setitem__(0, float("nan")))
    for split_node in (10**6, -1, True, 1.5):  # not a node id of the sample's graph
        corrupt(lambda d: d["samples"][0].update(split_node=split_node))


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
