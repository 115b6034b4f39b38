"""The seeded corpus: generated programs through the dataset pipeline.

The generator emits nine program families — true refactor patterns (a
loop enclosing two or more decisions, with real work after it), three
kinds of decoys that match them on flat statistics, and neutral filler.
Labels are recomputed structurally, never taken from the family tag.
The pipeline then dedups, filters, caps outliers, oversamples the
minority class, and produces a stratified train/test split.  The
manifest (version 6) stores each sample's source, path and label only;
loading derives the flat features, split nodes and SMOTE copies from the
sources and the seed again, and every graph on first read.
"""

import json
from collections import Counter

from refactorlab.corpus import (
    dataset_from_doc,
    dataset_to_doc,
    structural_label,
    synth_corpus,
)
from refactorlab.graph import emit_graph_doc
from refactorlab.minipy.parser import parse_source
from refactorlab.rng import Rng
from refactorlab.synth import generate_program, generate_units

# --- one program from the positive family ---------------------------------

src = generate_program(Rng(12), "pos_small")
label, split_node = structural_label(parse_source(src))
print(src)
print(f"structural label = {label}, suggested split at node #{split_node}\n")

# --- a seeded batch is deterministic ---------------------------------------

units = generate_units(300, seed=5)
assert [u.body for u in units] == [u.body for u in generate_units(300, seed=5)]
print(f"generated {len(units)} programs, deterministic under the seed")

# --- the full pipeline -------------------------------------------------------

ds = synth_corpus(300, seed=5)
ds.validate()
print("provenance:", ds.provenance.to_doc())
labels = Counter(s.label for s in ds.samples)
print(f"samples: {len(ds.samples)} "
      f"(refactor {labels[1]}, keep {labels[0]}, "
      f"minority share {labels[1] / len(ds.samples):.2f})")
print(f"split: {len(ds.split['train'])} train / {len(ds.split['test'])} test")

# --- the manifest stores sources, and loading derives the copies again ------

doc = dataset_to_doc(ds)
wire = json.dumps(doc, sort_keys=True)
print(f"manifest v{doc['version']}: {len(wire) / 1e6:.2f} MB, "
      f"{len(doc['samples'])} samples with source; "
      f"{doc['provenance']['oversampled']} SMOTE copies derived on load")
again = dataset_from_doc(json.loads(wire))
same_graphs = all(
    emit_graph_doc(a.graph) == emit_graph_doc(b.graph) and a.flat.values == b.flat.values
    for a, b in zip(ds.samples, again.samples)
)
print(f"derived {len(again.samples)} samples; graphs and flat features equal:", same_graphs)
print("manifest round trip exact:", dataset_to_doc(again) == doc)
