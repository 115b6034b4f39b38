"""Dataset construction: ingest, dedup, filter, label, cap, balance, split.

The pipeline turns a pile of source files into a labeled, balanced,
pre-split dataset ready for the rule engine, the decision tree, and the
graph network.  Every stage is deterministic given its inputs and seed,
and every stage records what it discarded in a Provenance tally.

Labels are structural: a program is marked ``refactor`` exactly when some
function body contains a loop enclosing at least two decision nodes and a
statement after that loop; the first such trailing statement is the
labeled split point.  This pattern is visible to a graph model but not to
any single flat threshold, which is what makes the model comparison an
actual experiment.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import (
    DataError,
    EmptyDatasetError,
    InvariantError,
    ParseError,
    LexError,
    SchemaError,
    SingleClassError,
    TooSmallError,
)
from .graph import (
    NODE_FEATURE_DIM,
    CodeGraph,
    build_graph,
    check_numbers,
    emit_graph_doc,
    ingest_graph_doc,
    is_int,
)
from .metrics import FLAT_DIM, FlatFeatures, cap_outliers, flat_features
from .minipy.nodes import AstNode, AstTree, count_decisions
from .minipy.parser import parse_source
from .minipy.source import SourceUnit
from .rng import Rng

log = logging.getLogger(__name__)

MANIFEST_VERSION = "3"
BUNDLE_VERSION = "1"

DEFAULT_TEST_FRACTION = 0.20
DEFAULT_TARGET_MINORITY = 0.40
DEFAULT_CAP_PERCENTILE = 99.0
SMOTE_NEIGHBORS = 5
# Relative amplitude of the node-feature jitter applied to oversampled
# graph copies; the interpolation coefficient u scales it.
JITTER_SCALE = 0.05

# Node-feature column holding type_index; it encodes the node kind and is
# the one discrete column jitter must not touch.
_TYPE_INDEX_COL = 2


# --- bookkeeping -------------------------------------------------------------


@dataclass
class Provenance:
    """Counts of what each pipeline stage consumed or discarded."""

    ingested: int = 0
    parse_failed: int = 0
    deduped: int = 0
    trivial_dropped: int = 0
    oversampled: int = 0

    def to_doc(self) -> dict:
        return {
            "ingested": self.ingested,
            "parse_failed": self.parse_failed,
            "deduped": self.deduped,
            "trivial_dropped": self.trivial_dropped,
            "oversampled": self.oversampled,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Provenance":
        if not isinstance(doc, dict):
            raise SchemaError("provenance must be an object")
        fields = ("ingested", "parse_failed", "deduped", "trivial_dropped", "oversampled")
        unknown = set(doc) - set(fields)
        if unknown:
            raise SchemaError(f"provenance has unknown field {sorted(unknown)[0]!r}")
        vals = {}
        for name in fields:
            v = doc.get(name, 0)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise SchemaError(f"provenance.{name} must be a non-negative integer")
            vals[name] = v
        return cls(**vals)


@dataclass
class LabeledSample:
    """One training example: graph + flat features + label.

    ``split_node`` is the graph node id of the labeled extraction point
    (first statement after the qualifying loop).  ``source`` is kept for
    samples that came from real text so downstream stages can re-run
    transforms; synthetic rows carry none.
    """

    graph: CodeGraph
    flat: FlatFeatures
    label: int
    split_node: int | None = None
    source: str | None = None
    path: str | None = None

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label!r}")


@dataclass
class Dataset:
    """Samples plus a train/test split and provenance."""

    samples: list[LabeledSample]
    split: dict[str, list[int]]
    seed: int
    provenance: Provenance

    def validate(self) -> None:
        n = len(self.samples)
        train = list(self.split.get("train", ()))
        test = list(self.split.get("test", ()))
        if len(set(train)) < len(train) or len(set(test)) < len(test):
            raise InvariantError("a split lists a sample more than once")
        if set(train) & set(test):
            raise InvariantError("train and test splits overlap")
        if set(train) | set(test) != set(range(n)):
            raise InvariantError("split does not cover all samples")


# --- ingest ------------------------------------------------------------------


def ingest_dir(path: str | Path) -> tuple[list[SourceUnit], Provenance]:
    """Read every *.mpy file under ``path``; parse failures are counted out.

    Unreadable files are logged and skipped without aborting the walk.
    Returned units are the parseable ones, in path order.
    """
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"not a directory: {root}")
    prov = Provenance()
    units: list[SourceUnit] = []
    for file in sorted(root.rglob("*.mpy")):
        try:
            body = file.read_text(encoding="utf-8")
        except OSError as exc:
            log.warning("skipping unreadable file %s: %s", file, exc)
            continue
        prov.ingested += 1
        rel = file.relative_to(root).as_posix()
        try:
            parse_source(body)
        except (LexError, ParseError):
            prov.parse_failed += 1
            continue
        units.append(SourceUnit.from_text(rel, body))
    return units, prov


def ingest_units(units: Iterable[SourceUnit]) -> tuple[list[SourceUnit], Provenance]:
    """Triage in-memory units the same way ingest_dir triages files."""
    prov = Provenance()
    kept: list[SourceUnit] = []
    for unit in units:
        prov.ingested += 1
        try:
            parse_source(unit.body)
        except (LexError, ParseError):
            prov.parse_failed += 1
            continue
        kept.append(unit)
    return kept, prov


def dedup(units: Sequence[SourceUnit]) -> tuple[list[SourceUnit], int]:
    """Keep the path-lexicographically-first unit per normalized digest."""
    seen: set[str] = set()
    kept: list[SourceUnit] = []
    removed = 0
    for unit in sorted(units, key=lambda u: u.path):
        if unit.digest in seen:
            removed += 1
            continue
        seen.add(unit.digest)
        kept.append(unit)
    return kept, removed


def _count_statements(node: AstNode) -> int:
    stmts = node.body() + node.orelse()
    total = len(stmts)
    for stmt in stmts:
        total += _count_statements(stmt)
    return total


def filter_trivial(units: Sequence[SourceUnit]) -> tuple[list[SourceUnit], int]:
    """Drop units with < 2 statements, or no functions and < 3 nodes."""
    kept: list[SourceUnit] = []
    dropped = 0
    for unit in units:
        tree = parse_source(unit.body)
        stmts = _count_statements(tree.root)
        has_fn = any(n.kind == "FunctionDef" for n in tree.nodes)
        if stmts < 2 or (not has_fn and len(tree.nodes) < 3):
            dropped += 1
            continue
        kept.append(unit)
    return kept, dropped


# --- labeling ----------------------------------------------------------------


def structural_label(tree: AstTree) -> tuple[int, int | None]:
    """Label a program by the loop-then-tail pattern.

    Returns (1, split_node_id) when some function body contains a loop
    with >= 2 decision nodes strictly inside it followed by at least one
    more statement; the split node is the first statement after the first
    such loop in the first such function.  Otherwise (0, None).

    A bare trailing Return does not count as work after the loop:
    extracting only a return statement is not a meaningful method split.
    """
    for fn in tree.functions():
        body = fn.body()
        for i, stmt in enumerate(body):
            if stmt.kind not in ("For", "While"):
                continue
            if count_decisions(stmt) - 1 < 2:
                continue
            if i + 1 < len(body) and body[i + 1].kind != "Return":
                return 1, body[i + 1].id
    return 0, None


def label_unit(unit: SourceUnit) -> LabeledSample:
    """Parse, label, and featurize one unit."""
    tree = parse_source(unit.body)
    label, split_node = structural_label(tree)
    graph = build_graph(tree, source_digest=unit.digest, label=label, split_node=split_node)
    flat = flat_features(tree, graph)
    return LabeledSample(
        graph=graph,
        flat=flat,
        label=label,
        split_node=split_node,
        source=unit.body,
        path=unit.path,
    )


# --- balancing ---------------------------------------------------------------


def _smote_target(n_minority: int, n_majority: int, target: float) -> int:
    """Smallest m >= n_minority with m / (n_majority + m) >= target."""
    if not 0.0 < target < 1.0:
        raise DataError(f"target minority fraction {target} outside (0, 1)")
    m = max(n_minority, math.ceil(target * n_majority / (1.0 - target)))
    while m / (n_majority + m) < target:  # guard against float round-down
        m += 1
    while m > n_minority and (m - 1) / (n_majority + m - 1) >= target:
        m -= 1
    return m


def _jitter_graph(graph: CodeGraph, u: float) -> CodeGraph:
    """Copy of ``graph`` with continuous node features scaled by (1 + s*u).

    Structure, edges, and the discrete type_index column are untouched,
    so the copy stays a valid attributed graph for the same shape.
    """
    out = copy.deepcopy(graph)
    factor = 1.0 + JITTER_SCALE * u
    for node in out.nodes:
        feats = list(node.features)
        for col in range(NODE_FEATURE_DIM):
            if col != _TYPE_INDEX_COL:
                feats[col] = feats[col] * factor
        node.features = feats
    return out


def oversample(
    samples: Sequence[LabeledSample],
    target_minority: float = DEFAULT_TARGET_MINORITY,
    seed: int = 0,
) -> tuple[list[LabeledSample], int]:
    """Raise the minority class to ``target_minority`` by interpolation.

    Flat features of synthetic rows are SMOTE interpolations
    x + u * (neighbor - x) against one of the k = 5 nearest minority
    neighbors (Euclidean on flat features); their graphs are jittered
    copies of the source sample.  Majority rows are never touched.
    """
    labels = [s.label for s in samples]
    n_pos = sum(labels)
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("oversampling requires both classes present")
    minority_label = 1 if n_pos < n_neg else 0
    n_min = min(n_pos, n_neg)
    n_maj = max(n_pos, n_neg)
    if n_min / (n_maj + n_min) >= target_minority:
        return list(samples), 0
    target = _smote_target(n_min, n_maj, target_minority)
    n_new = target - n_min

    minority_idx = [i for i, s in enumerate(samples) if s.label == minority_label]
    X = np.array([samples[i].flat.values for i in minority_idx], dtype=np.float64)
    k = min(SMOTE_NEIGHBORS, len(minority_idx) - 1)
    rng = Rng(seed)
    out = list(samples)
    for _ in range(n_new):
        src_pos = rng.randrange(len(minority_idx))
        src = samples[minority_idx[src_pos]]
        if k >= 1:
            dists = np.sqrt(((X - X[src_pos]) ** 2).sum(axis=1))
            dists[src_pos] = np.inf
            neighbor_pos = int(np.argsort(dists, kind="stable")[rng.randrange(k)])
            nb_vec = X[neighbor_pos]
        else:
            nb_vec = X[src_pos]
        u = rng.random()
        new_flat = FlatFeatures(list(X[src_pos] + u * (nb_vec - X[src_pos])))
        out.append(
            LabeledSample(
                graph=_jitter_graph(src.graph, u),
                flat=new_flat,
                label=minority_label,
                split_node=src.split_node,
            )
        )
    return out, n_new


# --- partitioning ------------------------------------------------------------


def _class_indices(labels: Sequence[int]) -> dict[int, list[int]]:
    by_class: dict[int, list[int]] = {}
    for i, y in enumerate(labels):
        by_class.setdefault(y, []).append(i)
    return by_class


def split_indices(
    labels: Sequence[int],
    test_fraction: float = DEFAULT_TEST_FRACTION,
    seed: int = 42,
) -> dict[str, list[int]]:
    """Stratified train/test split; test gets floor(test_fraction * n).

    Per-class test quotas are assigned by largest remainder, so class
    ratios in the two halves differ by at most one sample.  Shuffling is
    seeded; index lists come back sorted.
    """
    n = len(labels)
    if n < 2:
        raise TooSmallError(f"cannot split {n} samples")
    if not 0.0 <= test_fraction < 1.0:
        raise DataError(f"test fraction {test_fraction} outside [0, 1)")
    n_test = int(math.floor(test_fraction * n))
    by_class = _class_indices(labels)
    quotas = {c: test_fraction * len(idx) for c, idx in by_class.items()}
    base = {c: int(math.floor(q)) for c, q in quotas.items()}
    leftover = n_test - sum(base.values())
    order = sorted(by_class, key=lambda c: (-(quotas[c] - base[c]), c))
    for c in order[:leftover]:
        base[c] += 1

    rng = Rng(seed)
    train: list[int] = []
    test: list[int] = []
    for c in sorted(by_class):
        idx = list(by_class[c])
        rng.shuffle(idx)
        take = base[c]
        test.extend(idx[:take])
        train.extend(idx[take:])
    return {"train": sorted(train), "test": sorted(test)}


# --- full pipeline -----------------------------------------------------------


def build_dataset(
    units: Sequence[SourceUnit],
    seed: int = 42,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    target_minority: float = DEFAULT_TARGET_MINORITY,
    cap_percentile: float = DEFAULT_CAP_PERCENTILE,
    provenance: Provenance | None = None,
) -> Dataset:
    """Run the whole pipeline on triaged units.

    Stages, in order: dedup, trivial filter, structural labeling, outlier
    capping, minority oversampling, stratified split.
    ``provenance`` carries ingest counts from an earlier triage stage;
    when omitted the units are assumed all ingested and parseable.
    """
    prov = provenance or Provenance(ingested=len(units))
    units2, removed = dedup(units)
    prov.deduped = removed
    units3, dropped = filter_trivial(units2)
    prov.trivial_dropped = dropped
    if not units3:
        raise EmptyDatasetError("no samples survived dedup and filtering")
    samples = [label_unit(u) for u in units3]

    capped = cap_outliers([s.flat for s in samples], percentile=cap_percentile)
    for sample, flat in zip(samples, capped):
        sample.flat = flat

    master = Rng(seed)
    seed_smote = master.next_u64()
    seed_split = master.next_u64()

    labels = [s.label for s in samples]
    if 0 < sum(labels) < len(labels):
        samples, n_new = oversample(samples, target_minority, seed=seed_smote)
        prov.oversampled = n_new

    labels = [s.label for s in samples]
    split = split_indices(labels, test_fraction, seed=seed_split)
    ds = Dataset(samples=samples, split=split, seed=seed, provenance=prov)
    ds.validate()
    return ds


def synth_corpus(n: int, seed: int = 42, **kwargs: Any) -> Dataset:
    """Generate n programs and push them through the pipeline."""
    from .synth import generate_units

    if n < 10:
        raise DataError(f"synthetic corpus needs n >= 10, got {n}")
    units = generate_units(n, seed)
    kept, prov = ingest_units(units)
    return build_dataset(kept, seed=seed, provenance=prov, **kwargs)


# --- interchange documents ----------------------------------------------------


def units_to_bundle(units: Sequence[SourceUnit], seed: int) -> dict:
    """Source bundle document: the wire format between synth and build."""
    return {
        "version": BUNDLE_VERSION,
        "seed": seed,
        "units": [{"path": u.path, "body": u.body} for u in units],
    }


def units_from_bundle(doc: dict) -> tuple[list[SourceUnit], int]:
    """Parse a source bundle document; returns (units, seed)."""
    if not isinstance(doc, dict):
        raise SchemaError("source bundle must be an object")
    unknown = set(doc) - {"version", "seed", "units"}
    if unknown:
        raise SchemaError(f"source bundle has unknown field {sorted(unknown)[0]!r}")
    if doc.get("version") != BUNDLE_VERSION:
        raise SchemaError(f"source bundle version must be {BUNDLE_VERSION!r}")
    seed = doc.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError("source bundle seed must be an integer")
    raw = doc.get("units")
    if not isinstance(raw, list):
        raise SchemaError("source bundle units must be an array")
    units = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or set(entry) - {"path", "body"}:
            raise SchemaError(f"units[{i}] must be an object with path and body")
        path, body = entry.get("path"), entry.get("body")
        if not isinstance(path, str) or not isinstance(body, str):
            raise SchemaError(f"units[{i}] path and body must be strings")
        units.append(SourceUnit.from_text(path, body))
    return units, seed


def _sample_to_doc(sample: LabeledSample) -> dict:
    doc: dict[str, Any] = {
        "graph": emit_graph_doc(sample.graph),
        "flat": list(sample.flat.values),
        "label": sample.label,
    }
    if sample.split_node is not None:
        doc["split_node"] = sample.split_node
    if sample.source is not None:
        doc["source"] = sample.source
    if sample.path is not None:
        doc["path"] = sample.path
    return doc


_SAMPLE_KEYS = {"graph", "flat", "label", "split_node", "source", "path"}


def _sample_from_doc(doc: dict, where: str) -> LabeledSample:
    if not isinstance(doc, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(doc) - _SAMPLE_KEYS
    if unknown:
        raise SchemaError(f"{where} has unknown field {sorted(unknown)[0]!r}")
    if "graph" not in doc or "flat" not in doc or "label" not in doc:
        raise SchemaError(f"{where} needs graph, flat, and label")
    graph = ingest_graph_doc(doc["graph"])
    flat = check_numbers(doc["flat"], FLAT_DIM, f"{where}.flat")
    label = doc["label"]
    if label not in (0, 1) or isinstance(label, bool):
        raise SchemaError(f"{where}.label must be 0 or 1")
    split_node = doc.get("split_node")
    if split_node is not None and (
        not isinstance(split_node, int)
        or isinstance(split_node, bool)
        or not 0 <= split_node < len(graph.nodes)
    ):
        raise SchemaError(f"{where}.split_node must be a node id of its graph")
    source = doc.get("source")
    if source is not None and not isinstance(source, str):
        raise SchemaError(f"{where}.source must be a string")
    path = doc.get("path")
    if path is not None and not isinstance(path, str):
        raise SchemaError(f"{where}.path must be a string")
    try:
        return LabeledSample(
            graph=graph,
            flat=FlatFeatures(flat),
            label=label,
            split_node=split_node,
            source=source,
            path=path,
        )
    except DataError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def dataset_to_doc(dataset: Dataset) -> dict:
    """Versioned manifest with inline graph documents."""
    return {
        "version": MANIFEST_VERSION,
        "seed": dataset.seed,
        "provenance": dataset.provenance.to_doc(),
        "samples": [_sample_to_doc(s) for s in dataset.samples],
        "split": {"train": list(dataset.split["train"]), "test": list(dataset.split["test"])},
    }


_MANIFEST_KEYS = {"version", "seed", "provenance", "samples", "split"}


def dataset_from_doc(doc: dict) -> Dataset:
    """Validate and load a dataset manifest; raises SchemaError on violation."""
    if not isinstance(doc, dict):
        raise SchemaError("manifest must be an object")
    unknown = set(doc) - _MANIFEST_KEYS
    if unknown:
        raise SchemaError(f"manifest has unknown field {sorted(unknown)[0]!r}")
    if doc.get("version") != MANIFEST_VERSION:
        raise SchemaError(f"manifest version must be {MANIFEST_VERSION!r}")
    seed = doc.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise SchemaError("manifest seed must be an integer")
    prov = Provenance.from_doc(doc.get("provenance", {}))
    raw_samples = doc.get("samples")
    if not isinstance(raw_samples, list):
        raise SchemaError("manifest samples must be an array")
    samples = [_sample_from_doc(s, f"samples[{i}]") for i, s in enumerate(raw_samples)]
    raw_split = doc.get("split")
    if (
        not isinstance(raw_split, dict)
        or set(raw_split) != {"train", "test"}
        or not all(isinstance(v, list) for v in raw_split.values())
    ):
        raise SchemaError("manifest split must hold train and test arrays")
    if not all(is_int(i) for v in raw_split.values() for i in v):
        raise SchemaError("manifest split entries must be integers")
    split = {k: list(v) for k, v in raw_split.items()}
    ds = Dataset(samples=samples, split=split, seed=seed, provenance=prov)
    try:
        ds.validate()
    except InvariantError as exc:
        raise SchemaError(str(exc)) from exc
    return ds
