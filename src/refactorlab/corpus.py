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

A sample is defined once, by ``derive_samples``: from a source and the
corpus seed it gets its label, split node, capped flat features and, for
the minority class, its SMOTE copies.  The manifest therefore stores each
sample's source, path and label only, plus the split; loading it parses
every source and derives the rest again, as the build did.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
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
    check_fields,
    is_int,
)
from .graph import NODE_TYPE_INDEX, CodeGraph, build_graph
from .metrics import FlatFeatures, cap_outliers, flat_features
from .minipy.nodes import AstNode, AstTree, count_decisions
from .minipy.parser import parse_source
from .minipy.source import SourceUnit
from .minipy.split import split_points
from .rng import Rng

log = logging.getLogger(__name__)

MANIFEST_VERSION = "6"
BUNDLE_VERSION = "1"

DEFAULT_TEST_FRACTION = 0.20
DEFAULT_TARGET_MINORITY = 0.40
DEFAULT_CAP_PERCENTILE = 99.0
SMOTE_NEIGHBORS = 5
# Relative amplitude of the node-feature jitter applied to oversampled
# graph copies; the interpolation coefficient u scales it.
JITTER_SCALE = 0.05


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
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict) -> "Provenance":
        fields = cls().to_doc()
        check_fields(doc, set(fields), "provenance")
        for name in fields:
            v = doc.get(name)
            if not is_int(v) or v < 0:
                raise SchemaError(f"provenance.{name} must be a non-negative integer")
        return cls(**doc)


@dataclass
class LabeledSample:
    """One training example: flat features + label, and a code graph.

    ``split_node`` is the graph node id of the labeled extraction point
    (first statement after the qualifying loop).  A sample read from
    source keeps its ``source``, ``path`` and parsed ``tree``, so later
    stages replay splits without parsing again.  An oversampled copy has
    none of those; it keeps its ``recipe``, (parent, neighbor, u), and the
    ``parent`` sample itself.  Only a sample with source reaches the
    manifest, as its source, path and label; ``derive_samples`` makes
    every other field, and every copy, again on load.

    ``graph`` is built the first time a stage reads it, then kept: the
    tree's ``build_graph``, or for a copy its parent's graph jittered by
    u.  A stage that reads only ``flat`` and ``label`` builds none.  The
    graph is no field, so equality and repr do not depend on whether it
    has been built yet.
    """

    flat: FlatFeatures
    label: int
    split_node: int | None = None
    source: str | None = None
    path: str | None = None
    tree: AstTree | None = field(default=None, compare=False, repr=False)
    recipe: tuple[int, int, float] | None = None
    parent: LabeledSample | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label!r}")

    @cached_property
    def graph(self) -> CodeGraph:
        if self.parent is not None:
            return _jitter_graph(self.parent.graph, self.recipe[2])
        return build_graph(self.tree)


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


@dataclass(frozen=True)
class ParsedUnit(SourceUnit):
    """A unit that parsed, with its tree: no later stage parses it again."""

    tree: AstTree = field(compare=False, repr=False)


def ingest_dir(path: str | Path) -> tuple[list[ParsedUnit], Provenance]:
    """Read every *.mpy file under ``path`` and triage them with ``ingest_units``.

    Unreadable files are logged and skipped without aborting the walk.
    Bytes that are not UTF-8 read as U+FFFD, which the lexer rejects, so
    such a file counts as ingested and as a parse failure.
    """
    root = Path(path)
    if not root.is_dir():
        raise DataError(f"not a directory: {root}")
    units: list[SourceUnit] = []
    for file in sorted(root.rglob("*.mpy")):
        try:
            body = file.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            log.warning("skipping unreadable file %s: %s", file, exc)
            continue
        units.append(SourceUnit.from_text(file.relative_to(root).as_posix(), body))
    return ingest_units(units)


def ingest_units(units: Iterable[SourceUnit]) -> tuple[list[ParsedUnit], Provenance]:
    """Count every unit as ingested; keep those that parse, in order."""
    prov = Provenance()
    kept: list[ParsedUnit] = []
    for unit in units:
        prov.ingested += 1
        try:
            tree = parse_source(unit.body)
        except (LexError, ParseError):
            prov.parse_failed += 1
            continue
        kept.append(ParsedUnit(unit.path, unit.body, unit.digest, tree))
    return kept, prov


def dedup(units: Sequence[ParsedUnit]) -> tuple[list[ParsedUnit], int]:
    """Keep the path-lexicographically-first unit per normalized digest."""
    seen: set[str] = set()
    kept: list[ParsedUnit] = []
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


def filter_trivial(units: Sequence[ParsedUnit]) -> tuple[list[ParsedUnit], int]:
    """Drop units with < 2 statements, or no functions and < 3 nodes."""
    kept: list[ParsedUnit] = []
    dropped = 0
    for unit in units:
        tree = unit.tree
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
    such loop in the first such function.  Otherwise (0, None).  When a
    Return earlier in that body makes the split node no legal split point
    (``split_points``), the program is still labeled 1, without a split.

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
                split = body[i + 1].id
                return 1, split if split in split_points(tree) else None
    return 0, None


def label_unit(tree: AstTree, source: str, path: str | None) -> LabeledSample:
    """Label and featurize one parsed source; its graph waits for a reader."""
    label, split_node = structural_label(tree)
    return LabeledSample(
        flat=flat_features(tree),
        label=label,
        split_node=split_node,
        source=source,
        path=path,
        tree=tree,
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

    Structure and the discrete type_index column are untouched, so the
    copy stays a valid attributed graph for the same shape.  Only ``x`` is
    new; the copy shares every other field with ``graph``, all of them
    read-only or never written.
    """
    x = graph.x * (1.0 + JITTER_SCALE * u)
    x[:, NODE_TYPE_INDEX] = graph.x[:, NODE_TYPE_INDEX]
    return replace(graph, x=x)


def oversample(
    samples: Sequence[LabeledSample],
    target_minority: float = DEFAULT_TARGET_MINORITY,
    seed: int = 0,
) -> tuple[list[LabeledSample], int]:
    """Raise the minority class to ``target_minority`` by interpolation.

    Each new row pairs a random minority sample (the parent) with one of
    its k = 5 nearest minority neighbors (Euclidean on flat features).  Its
    flat features are the SMOTE interpolation x + u * (nb - x) (Chawla et
    al., JAIR 2002) and its graph, on first read, is the parent's jittered
    by u; it takes the parent's label and split node and carries no
    source.  Majority rows are never touched.
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
        src_pos = nb_pos = rng.randrange(len(minority_idx))
        if k >= 1:
            dists = np.sqrt(((X - X[src_pos]) ** 2).sum(axis=1))
            dists[src_pos] = np.inf
            nb_pos = int(np.argsort(dists, kind="stable")[rng.randrange(k)])
        u = rng.random()
        parent, neighbor = minority_idx[src_pos], minority_idx[nb_pos]
        src = samples[parent]
        pairs = zip(src.flat.values, samples[neighbor].flat.values)
        out.append(
            LabeledSample(
                flat=FlatFeatures([x + u * (nb - x) for x, nb in pairs]),
                label=src.label,
                split_node=src.split_node,
                recipe=(parent, neighbor, u),
                parent=src,
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


def derive_samples(
    parsed: Sequence[tuple[AstTree, str, str | None]], seed: int
) -> tuple[list[LabeledSample], int]:
    """Everything a sample holds besides its source, from the sources and the seed.

    ``parsed`` holds one (tree, source, path) per unit.  Each is labeled
    and featurized, the flat features are capped at the corpus's
    percentile, and the minority class is oversampled with the first draw
    of ``Rng(seed)`` as SMOTE seed.  Returns the samples, copies last, and
    the number of copies.  ``build_dataset`` and ``dataset_from_doc`` both
    call this, so a manifest need store none of it.
    """
    samples = [label_unit(*p) for p in parsed]
    capped = cap_outliers([s.flat for s in samples], percentile=DEFAULT_CAP_PERCENTILE)
    for sample, flat in zip(samples, capped):
        sample.flat = flat
    labels = [s.label for s in samples]
    if not 0 < sum(labels) < len(labels):
        return samples, 0
    return oversample(samples, DEFAULT_TARGET_MINORITY, seed=Rng(seed).next_u64())


def build_dataset(
    units: Sequence[ParsedUnit],
    seed: int = 42,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    provenance: Provenance | None = None,
) -> Dataset:
    """Run the whole pipeline on triaged units.

    Stages, in order: dedup, trivial filter, ``derive_samples`` (structural
    labeling, outlier capping, minority oversampling), stratified split
    seeded by the second draw of ``Rng(seed)``.  ``units`` come from
    ``ingest_units``, which parsed each one; no stage parses again.
    ``provenance`` carries ingest counts from that triage; when omitted
    every unit is counted as ingested.
    """
    prov = provenance or Provenance(ingested=len(units))
    units2, removed = dedup(units)
    prov.deduped = removed
    units3, dropped = filter_trivial(units2)
    prov.trivial_dropped = dropped
    if not units3:
        raise EmptyDatasetError("no samples survived dedup and filtering")
    samples, prov.oversampled = derive_samples([(u.tree, u.body, u.path) for u in units3], seed)
    master = Rng(seed)
    master.next_u64()  # the SMOTE seed, drawn in derive_samples
    split = split_indices([s.label for s in samples], test_fraction, seed=master.next_u64())
    ds = Dataset(samples=samples, split=split, seed=seed, provenance=prov)
    ds.validate()
    return ds


def synth_corpus(n: int, seed: int = 42) -> Dataset:
    """Generate n programs and push them through the pipeline."""
    from .synth import generate_units

    if n < 10:
        raise DataError(f"synthetic corpus needs n >= 10, got {n}")
    units = generate_units(n, seed)
    kept, prov = ingest_units(units)
    return build_dataset(kept, seed=seed, provenance=prov)


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
    check_fields(doc, {"version", "seed", "units"}, "source bundle")
    if doc.get("version") != BUNDLE_VERSION:
        raise SchemaError(f"source bundle version must be {BUNDLE_VERSION!r}")
    seed = doc.get("seed")
    if not is_int(seed):
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
        try:  # JSON escapes can spell a lone surrogate, which UTF-8 cannot hold
            (path + body).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise SchemaError(f"units[{i}] path and body must be UTF-8 text") from exc
        units.append(SourceUnit.from_text(path, body))
    return units, seed


def _sample_to_doc(sample: LabeledSample) -> dict:
    doc: dict[str, Any] = {"source": sample.source, "label": sample.label}
    if sample.path is not None:
        doc["path"] = sample.path
    return doc


def _parse_sample(doc: Any, where: str) -> tuple[AstTree, str, str | None]:
    """Check one manifest sample's fields and parse its source once."""
    check_fields(doc, {"source", "path", "label"}, where)
    for key in ("source", "label"):
        if key not in doc:
            raise SchemaError(f"{where} needs {key!r}")
    source, path = doc["source"], doc.get("path")
    if not isinstance(source, str):
        raise SchemaError(f"{where}.source must be a string")
    if path is not None and not isinstance(path, str):
        raise SchemaError(f"{where}.path must be a string")
    if not is_int(doc["label"]) or doc["label"] not in (0, 1):
        raise SchemaError(f"{where}.label must be 0 or 1")
    try:
        tree = parse_source(source)
    except (LexError, ParseError) as exc:
        raise SchemaError(f"{where}.source does not parse: {exc}") from exc
    return tree, source, path


def dataset_to_doc(dataset: Dataset) -> dict:
    """Versioned, source-first manifest.

    A sample is its source, its path and its label; ``derive_samples``
    makes everything else from the sources and the seed on load, the
    oversampled copies included, so none of that is written.  The label
    stays because a reader of the document alone may check it.
    """
    return {
        "version": MANIFEST_VERSION,
        "seed": dataset.seed,
        "provenance": dataset.provenance.to_doc(),
        "samples": [_sample_to_doc(s) for s in dataset.samples if s.recipe is None],
        "split": {"train": list(dataset.split["train"]), "test": list(dataset.split["test"])},
    }


_MANIFEST_KEYS = {"version", "seed", "provenance", "samples", "split"}


def dataset_from_doc(doc: dict) -> Dataset:
    """Validate and load a dataset manifest; raises SchemaError on violation.

    Every source is parsed here and ``derive_samples`` rebuilds the
    dataset from the sources and the seed as ``build_dataset`` made it.
    Each stored label must equal its source's, and
    ``provenance.oversampled`` the number of copies derived.  The copies
    follow the samples in ``oversample``'s order, so split indices
    ``len(samples)`` to ``len(samples) + oversampled - 1`` name them.  No
    graph is built until a stage reads it.
    """
    check_fields(doc, _MANIFEST_KEYS, "manifest")
    if doc.get("version") != MANIFEST_VERSION:
        raise SchemaError(f"manifest version must be {MANIFEST_VERSION!r}")
    seed = doc.get("seed")
    if not is_int(seed):
        raise SchemaError("manifest seed must be an integer")
    prov = Provenance.from_doc(doc.get("provenance"))
    raw_samples = doc.get("samples")
    if not isinstance(raw_samples, list) or not raw_samples:
        raise SchemaError("manifest samples must be a non-empty array")
    parsed = [_parse_sample(s, f"samples[{i}]") for i, s in enumerate(raw_samples)]
    samples, n_copies = derive_samples(parsed, seed)
    for i, (raw, sample) in enumerate(zip(raw_samples, samples)):
        if raw["label"] != sample.label:
            raise SchemaError(
                f"samples[{i}].label is {raw['label']}, but its source's is {sample.label}"
            )
    if prov.oversampled != n_copies:
        raise SchemaError(
            f"manifest provenance.oversampled is {prov.oversampled},"
            f" but its samples make {n_copies} copies"
        )
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
        raise SchemaError(
            f"manifest {exc}: {len(raw_samples)} samples and {n_copies} oversampled copies"
        ) from exc
    return ds
