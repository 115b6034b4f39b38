"""Timed and traced runs of one workload, and the metrics they report."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import FnStats, Tracer
from workloads import WORKLOADS, Round, Workload

# --- per-layer metrics -------------------------------------------------------

P = "refactorlab."
SETUP_REPEATS = 5

# function key -> the layer groups its calls are timed under
_GROUPS: dict[str, tuple[str, ...]] = {
    P + "minipy.parser.parse_source": ("minipy.parse",),
    P + "minipy.split.extract_split": ("minipy.split",),
    P + "graph.build_graph": ("graph.build",),
    P + "graph.emit_graph_doc": ("graph.doc.emit",),
    P + "graph.ingest_graph_doc": ("graph.doc.ingest",),
    P + "metrics.flat_features": ("metrics.flat",),
    P + "corpus.ingest_dir": ("corpus.ingest",),
    P + "corpus.ingest_units": ("corpus.ingest",),
    P + "corpus.dedup": ("corpus.dedup",),
    P + "corpus.filter_trivial": ("corpus.filter",),
    P + "corpus.label_unit": ("corpus.label",),
    P + "corpus.oversample": ("corpus.oversample",),
    P + "corpus.dataset_to_doc": ("corpus.manifest.encode",),
    P + "corpus.dataset_from_doc": ("corpus.manifest.decode",),
    P + "gcn.train": ("gcn.train",),
    P + "gcn.predict_graphs": ("gcn.predict",),
    P + "gcn.suggest_split": ("gcn.suggest",),
    P + "gcn.gcn_to_doc": ("gcn.checkpoint.encode",),
    P + "gcn.gcn_from_doc": ("gcn.checkpoint.decode",),
    P + "dtree.train_dtree": ("dtree.train",),
    P + "dtree.predict_batch": ("dtree.predict",),
    P + "dtree.predict_dtree": ("dtree.predict",),
    P + "evalreport.compare": ("evalreport.compare",),
}
# every public function of these modules counts toward the layer
_MODULE_GROUPS = {P + "rules.": "rules", P + "viz.": "viz.render", P + "synth.": "synth.generate"}


def groups_of(key: str) -> tuple[str, ...]:
    groups = _GROUPS.get(key, ())
    for prefix, group in _MODULE_GROUPS.items():
        if key.startswith(prefix):
            groups += (group,)
    return groups


def _carries_manifest(doc: object) -> bool:
    return isinstance(doc, dict) and ("samples" in doc or "dataset" in doc)


def make_hooks(tracer: Tracer) -> dict:
    """Per-call counts, and the layer each JSON document's time goes to."""

    def counter(name, measure):
        def hook(args, kwargs, result):
            tracer.count(name, measure(args, result))
            return ()

        return hook

    def text_len(args, result):
        return len(result)

    return {
        P + "minipy.parser.parse_source": counter("parse.nodes", lambda a, r: len(r.nodes)),
        P + "graph.build_graph": counter("graph.nodes", lambda a, r: len(r.nodes)),
        P + "gcn.train": counter("gcn.epochs", lambda a, r: a[2].epochs),
        P + "gcn.predict_graphs": counter("gcn.graphs", lambda a, r: len(a[1])),
        P + "viz.to_html": counter("viz.chars", text_len),
        P + "viz.to_dot": counter("viz.chars", text_len),
        P + "evalreport.compare": counter(
            "splits_applied", lambda a, r: sum(ev.n_split_applied for ev in r.models.values())
        ),
        "json.dumps": lambda args, kwargs, result: (
            ("corpus.manifest.encode",) if _carries_manifest(args[0]) else ("cli.json",)
        ),
        "json.loads": lambda args, kwargs, result: (
            ("corpus.manifest.decode",) if _carries_manifest(result) else ("cli.json",)
        ),
    }


def layer_metrics(
    tracer: Tracer, rounds: list[Round], units: int, synth_s: float, overhead_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per traced round."""
    n = len(rounds)

    def g(name: str) -> float:
        return tracer.group_s.get(name, 0.0) / n

    def calls(key: str) -> float:
        return tracer.fns.get(P + key, FnStats()).calls / n

    def count(name: str) -> float:
        return tracer.counts.get(name, 0.0) / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cli_self = sum(s.self_s for k, s in tracer.fns.items() if k.startswith(P + "cli."))
    return {
        "minipy.parse.calls": (calls("minipy.parser.parse_source"), "count"),
        "minipy.parse.s": (g("minipy.parse"), "s"),
        "minipy.parse.per_unit": (ratio(calls("minipy.parser.parse_source"), units), "calls/unit"),
        "minipy.parse.nodes_per_s": (ratio(count("parse.nodes"), g("minipy.parse")), "1/s"),
        "minipy.split.calls": (calls("minipy.split.extract_split"), "count"),
        "minipy.split.s": (g("minipy.split"), "s"),
        "graph.build.calls": (calls("graph.build_graph"), "count"),
        "graph.build.s": (g("graph.build"), "s"),
        "graph.build.us_per_node": (1e6 * ratio(g("graph.build"), count("graph.nodes")), "us"),
        "graph.doc.emit_s": (g("graph.doc.emit"), "s"),
        "graph.doc.ingest_s": (g("graph.doc.ingest"), "s"),
        "metrics.flat.s": (g("metrics.flat"), "s"),
        "metrics.cyclomatic.calls": (calls("metrics.cyclomatic"), "count"),
        "corpus.ingest.s": (g("corpus.ingest"), "s"),
        "corpus.dedup.s": (g("corpus.dedup"), "s"),
        "corpus.filter.s": (g("corpus.filter"), "s"),
        "corpus.label.s": (g("corpus.label"), "s"),
        "corpus.oversample.s": (g("corpus.oversample"), "s"),
        "corpus.manifest.encode_s": (g("corpus.manifest.encode"), "s"),
        "corpus.manifest.decode_s": (g("corpus.manifest.decode"), "s"),
        "corpus.manifest.decode.calls": (calls("corpus.dataset_from_doc"), "count"),
        "cli.self_s": (cli_self / n + g("cli.json"), "s"),
        "cli.bytes_in_mb": (sum(c.bytes_in for r in rounds for c in r.calls) / 1e6 / n, "MB"),
        "cli.bytes_out_mb": (sum(c.bytes_out for r in rounds for c in r.calls) / 1e6 / n, "MB"),
        "gcn.train.s": (g("gcn.train"), "s"),
        "gcn.train.s_per_epoch": (ratio(g("gcn.train"), count("gcn.epochs")), "s"),
        "gcn.predict.s": (g("gcn.predict"), "s"),
        "gcn.predict.graphs": (count("gcn.graphs"), "count"),
        "gcn.suggest.calls": (calls("gcn.suggest_split"), "count"),
        "gcn.suggest.s": (g("gcn.suggest"), "s"),
        "gcn.checkpoint.encode_s": (g("gcn.checkpoint.encode"), "s"),
        "gcn.checkpoint.decode_s": (g("gcn.checkpoint.decode"), "s"),
        "dtree.train.s": (g("dtree.train"), "s"),
        "dtree.predict.s": (g("dtree.predict"), "s"),
        "rules.s": (g("rules"), "s"),
        "evalreport.compare.s": (g("evalreport.compare"), "s"),
        "evalreport.splits_applied": (count("splits_applied"), "count"),
        "viz.render.s": (g("viz.render"), "s"),
        "viz.html_mb": (count("viz.chars") / 1e6, "MB"),
        "synth.generate.s": (synth_s, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


# --- runs ------------------------------------------------------------------------------


def _fits(start: float, done: int, more: int, seconds: float) -> bool:
    """Whether ``more`` rounds, at the mean wall time of the ``done`` rounds
    so far, end within ``seconds`` of ``start``."""
    elapsed = time.perf_counter() - start
    return elapsed + more * elapsed / done <= seconds


def _released(rnd: Round) -> Round:
    """The round with its printed text dropped once digested, so memory
    does not grow with the number of rounds."""
    rnd.release()
    return rnd


def _traced_round(workload: Workload, tracer: Tracer) -> Round:
    tracer.install(make_hooks(tracer))
    try:
        return _released(workload.round())
    finally:
        tracer.uninstall()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_table(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        shown = "—" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {shown:>12} {unit}")


def run_one(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    workdir = out_dir / f"work-{os.getpid()}"
    workload = WORKLOADS[name](seed, workdir)
    try:
        return _run(workload, seconds, trace, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cpu_timed(fn) -> float:
    gc.collect()  # the previous set-up's garbage is not this one's cost
    start = time.process_time()
    fn()
    return time.process_time() - start


def _as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _check(workload: Workload, rnd: Round) -> list[str]:
    """The workload's checks; output they cannot read is itself a problem."""
    try:
        return workload.check(rnd)
    except (ValueError, KeyError, TypeError, IndexError, SyntaxError) as exc:
        return [f"output not readable by the checks: {exc!r}"]


def _run(workload: Workload, seconds: float, trace: bool, out_dir: Path) -> int:
    tracer = Tracer(groups_of)
    if trace:
        tracer.install(make_hooks(tracer))
        workload.setup()
        tracer.uninstall()
        workload.write()
        synth_s = tracer.group_s.get("synth.generate", 0.0)
        tracer.reset()
        # untraced and traced rounds alternate, starting with the untraced
        # reference whose outputs are checked, so that both see the same
        # drift in the machine's speed
        start = time.perf_counter()
        reference = workload.round()
        problems = _check(workload, reference)
        failures = reference.failures()
        plain = [_released(reference)]
        rounds = [_traced_round(workload, tracer)]
        while _fits(start, len(plain) + len(rounds), 2, seconds):
            plain.append(_released(workload.round()))
            rounds.append(_traced_round(workload, tracer))
        problems += reference.mismatches(plain[1:] + rounds)
        checked = plain + rounds
    else:
        setup_times = [_cpu_timed(workload.setup) for _ in range(SETUP_REPEATS)]
        workload.write()
        start = time.perf_counter()
        rounds = [workload.round()]
        problems = _check(workload, rounds[0])
        failures = rounds[0].failures()
        rounds[0].release()
        while _fits(start, len(rounds), 1, seconds):
            rounds.append(_released(workload.round()))
        problems += rounds[0].mismatches(rounds[1:])
        checked = rounds

    for line in failures:
        print(f"failed call: {line}", file=sys.stderr)
    for line in problems:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    attempted = sum(len(r.calls) for r in checked)
    failed = sum(r.failed for r in checked)

    record: dict = {"workload": workload.name, "seed": workload.seed, "trace": trace,
                    "round_s": [r.seconds for r in rounds],
                    "round_wall_s": [r.wall_s for r in rounds], "problems": problems}
    if trace:
        overhead = (statistics.median(r.seconds for r in rounds)
                    - statistics.median(r.seconds for r in plain))
        metrics = layer_metrics(tracer, rounds, workload.units(), synth_s, overhead)
        _print_table(f"{workload.name} per-layer, {len(rounds)} traced rounds, per round", metrics)
        record["untraced_round_s"] = [r.seconds for r in plain]
        record["functions_per_round"] = {
            k: {"calls": s.calls / len(rounds), "incl_s": s.incl_s / len(rounds),
                "self_s": s.self_s / len(rounds)}
            for k, s in sorted(tracer.fns.items(), key=lambda kv: -kv[1].self_s)
        }
    else:
        metrics = {
            "round_s": (statistics.median(r.seconds for r in rounds), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
            "output_mb": (sum(c.bytes_out for c in rounds[0].calls) / 1e6, "MB"),
        }
        figures = {"round_wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
                   **workload.figures(rounds)}
        _print_table(f"{workload.name} end-to-end, {len(rounds)} rounds, medians",
                     {**metrics, **figures})
        record["figures"] = _as_json(figures)
        record["setup_s"] = setup_times
    print(f"  attempted {attempted}, failed {failed}, checks {'passed' if not problems else 'FAILED'}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": _as_json(metrics)}
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload.name}-{'trace' if trace else 'result'}.json"
    path.write_text(json.dumps({**result, **record}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a process of its own."""
    status = 0
    for name in WORKLOADS:
        for trace in ("0", "1"):
            argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
            status |= subprocess.run(argv, check=False).returncode
    return status
