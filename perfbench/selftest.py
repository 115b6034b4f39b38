"""Shows that each correctness check of the benchmark passes on a real
output of the program and rejects one deliberately corrupted copy.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run  # noqa: F401  (pins BLAS threads before numpy loads)

run._import_program()

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import Round  # noqa: E402


class SmallPipeline(workloads.Pipeline):
    UNITS = 60
    GNN_ARGS = ("--epochs", "1")


class SmallIngest(workloads.Ingest):
    FILES, BROKEN, COPIES = 40, 24, 4


class SmallBigfile(workloads.Bigfile):
    NODES = (200,)


def _cases(tmp: Path) -> list[tuple[str, object, object]]:
    """(name, check on the good output, check on the corrupted output)."""
    seed = 3
    cases: list[tuple[str, object, object]] = []

    # labels and evaluation rates, from a small pipeline
    pipeline = SmallPipeline(seed, tmp)
    pipeline.setup()
    pipeline.write()
    rnd = pipeline.round()
    manifest = json.loads(rnd.calls[0].out)
    report = json.loads(rnd.calls[3].out)

    bad = copy.deepcopy(manifest)
    first = next(s for s in bad["samples"] if s.get("source"))
    first["label"] = 1 - first["label"]
    cases.append(("labels", checks.check_labels(manifest), checks.check_labels(bad)))

    bad = copy.deepcopy(report)
    bad["models"]["dtree"]["f1"] += 0.01
    cases.append(("rates", checks.check_rates(report), checks.check_rates(bad)))

    good = copy.deepcopy(report)
    for name, f1 in (("gnn", 0.95), ("dtree", 0.8), ("rules", 0.6)):
        good["models"][name]["f1"] = f1
    bad = copy.deepcopy(good)
    bad["models"]["dtree"]["f1"] = 0.97
    cases.append(("ordering", checks.check_ordering(good), checks.check_ordering(bad)))

    # ingest provenance
    ingest = SmallIngest(seed, tmp)
    ingest.setup()
    ingest.write()
    prov = json.loads(ingest.round().calls[0].out)
    bad = copy.deepcopy(prov)
    bad["provenance"]["deduped"] += 1
    sizes = (ingest.FILES, ingest.BROKEN, ingest.COPIES)
    cases.append(("provenance", checks.check_provenance(prov, *sizes),
                  checks.check_provenance(bad, *sizes)))

    # graph, metrics, suggestion and viz on one concatenated file
    big = SmallBigfile(seed, tmp)
    big.setup()
    big.write()
    rnd = big.round()
    path, source = big.files[0]
    graph = json.loads(rnd.calls[0].out)["graph"]
    metrics = json.loads(rnd.calls[1].out)["report"]
    suggestion = json.loads(rnd.calls[2].out)
    page = rnd.calls[3].out

    bad = copy.deepcopy(graph)
    bad["edges"] = [e for e in bad["edges"] if not (e["kind"] == "Parent" and e["dst"] == 5)]
    cases.append(("graph", checks.check_graph(source, graph), checks.check_graph(source, bad)))

    bad = copy.deepcopy(metrics)
    next(iter(bad["per_function"].values()))["cyclomatic"] += 1
    cases.append(("cyclomatic", checks.check_cyclomatic(source, metrics),
                  checks.check_cyclomatic(source, bad)))

    bad = dict(suggestion, node_id=0)
    cases.append(("suggestion", checks.check_suggestion(graph, suggestion),
                  checks.check_suggestion(graph, bad)))

    split = suggestion["node_id"] is not None
    cases.append(("viz", checks.check_viz(page, split), checks.check_viz(page, not split)))

    # a failed call other than the kept failure
    failed = Round([replace(rnd.calls[0], code=3), *rnd.calls[1:]])
    cases.append(("failed calls", big.check(rnd), big.check(failed)))

    # byte-identical rounds
    first = rnd.calls[0]
    text = first.out.replace('"Parent"', '"Parent" ', 1)
    corrupted = Round([replace(first, out=text, digest=workloads.text_digest(text)), *rnd.calls[1:]])
    cases.append(("byte-identical rounds", rnd.mismatches([Round(list(rnd.calls))]),
                  rnd.mismatches([corrupted])))
    return cases


def main() -> int:
    run.OUT_DIR.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR))
    try:
        cases = _cases(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    status = 0
    for name, good, bad in cases:
        ok = not good and bool(bad)
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: good output -> {good or 'pass'}; "
              f"corrupted -> {bad[0] if bad else 'pass (not rejected)'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
