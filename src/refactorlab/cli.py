"""Command-line front end.

Subcommands mirror the library surface: ``parse``, ``metrics``, ``graph``
and ``rules`` analyze a single source file; ``synth`` emits a source
bundle; ``corpus build`` turns a bundle or a directory into a dataset
manifest; ``train`` fits the graph network or the decision tree;
``eval`` produces a three-model comparison report; ``suggest`` and
``viz`` apply a trained network to one file.

The stages compose over pipes — each seeded stage writes a versioned
JSON document to stdout and the next stage reads it from stdin::

    refactorlab synth --n 2000 --seed 42 \\
        | refactorlab corpus build \\
        | refactorlab train --model gnn \\
        | refactorlab eval

Diagnostics go to stderr, data to stdout.  Exit codes: 0 success,
1 usage error, 2 source parse error, 3 data/schema error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys
import traceback
from collections import Counter
from pathlib import Path
from typing import Final, Sequence

import numpy as np

from .corpus import (
    DEFAULT_TEST_FRACTION,
    Dataset,
    build_dataset,
    dataset_from_doc,
    dataset_to_doc,
    ingest_dir,
    ingest_units,
    units_from_bundle,
    units_to_bundle,
)
from .dtree import (
    DTreeModel,
    dtree_from_doc,
    dtree_to_doc,
    train_dtree,
)
from .errors import (
    DataError,
    InvariantError,
    LexError,
    ParseError,
    RefactorLabError,
    SchemaError,
    check_fields,
    is_int,
)
from .evalreport import compare, pr_points_to_csv, report_to_csv, report_to_json
from .gcn import (
    GcnModel,
    TrainConfig,
    gcn_from_doc,
    gcn_to_doc,
    init_model,
    suggest_split,
    train,
)
from .graph import build_graph, edge_features, emit_graph_doc
from .metrics import metrics_report
from .minipy.astdoc import emit_ast_doc
from .minipy.parser import parse_source
from .minipy.printer import pretty_print
from .minipy.split import extract_split, split_points
from .rules import analyze_rules, classify_rules
from .synth import generate_units
from .viz import function_render_metrics, to_dot, to_html

EXIT_OK: Final = 0
EXIT_USAGE: Final = 1
EXIT_PARSE: Final = 2
EXIT_DATA: Final = 3
EXIT_INTERNAL: Final = 4

DEFAULT_SEED: Final = 42
WORKSPACE_VERSION: Final = "1"

PROG: Final = "refactorlab"

# numpy's wheels bundle OpenBLAS, with its symbols renamed, as
# numpy.libs/libscipy_openblas64_*.so beside the numpy package
BLAS_LIBRARY_GLOB: Final = "libscipy_openblas64_*.so"
BLAS_THREAD_SETTER: Final = "scipy_openblas_set_num_threads64_"


class _UsageError(Exception):
    """Bad flags or arguments; argparse errors are rerouted here."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# --------------------------------------------------------------------------
# small I/O helpers
# --------------------------------------------------------------------------


def _read_text(path: str | None) -> str:
    """A file's UTF-8 text or, when path is None, stdin's."""
    try:
        return Path(path).read_text(encoding="utf-8") if path else sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path or 'stdin'}: {exc}") from exc


def _read_json(path: str | None, kind: str) -> dict:
    """Load a JSON document from a file or, when path is None, stdin."""
    text = _read_text(path)
    if not text.strip():
        raise SchemaError(f"empty input; expected a {kind} document")
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past Python's 4,300-digit limit
        raise SchemaError(f"invalid JSON in {kind} document: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{kind} document nests too deeply") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{kind} document must be a JSON object")
    return doc


def _emit(payload: str, out: str | None) -> None:
    """Write payload to --out (file) or stdout; '-' means stdout."""
    if out and out != "-":
        try:
            Path(out).write_text(payload, encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {out}: {exc}") from exc
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _parse_file(path: str):
    return parse_source(_read_text(path))


# --------------------------------------------------------------------------
# workspace document: the dataset manifest (each sample's source and
# label; loading derives the rest, SMOTE copies included, and a graph is
# built when a stage first reads it) plus trained checkpoints
# --------------------------------------------------------------------------


def _load_workspace(doc: dict) -> tuple[Dataset, dict[str, GcnModel | DTreeModel]]:
    """Accept either a bare dataset manifest or a workspace wrapper, and
    decode each checkpoint a workspace carries, once: a stage that passes a
    checkpoint through refuses a corrupt one as ``eval`` would."""
    if "samples" in doc:
        return dataset_from_doc(doc), {}
    check_fields(doc, {"version", "seed", "dataset", "checkpoints"}, "workspace")
    if doc.get("version") != WORKSPACE_VERSION:
        raise SchemaError(f"workspace version must be {WORKSPACE_VERSION!r}")
    inner = doc.get("dataset")
    if not isinstance(inner, dict):
        raise SchemaError("workspace dataset must be an object")
    checkpoints = doc.get("checkpoints", {})
    if not isinstance(checkpoints, dict):
        raise SchemaError("workspace checkpoints must be an object")
    for name in checkpoints:
        if name not in ("gnn", "dtree"):
            raise SchemaError(f"workspace checkpoint {name!r} is not gnn or dtree")
    seed = doc.get("seed")
    if not is_int(seed) or seed != inner.get("seed"):
        raise SchemaError("workspace seed must be an integer equal to its manifest's seed")
    dataset = dataset_from_doc(inner)
    models = {
        name: gcn_from_doc(checkpoint) if name == "gnn" else dtree_from_doc(checkpoint)
        for name, checkpoint in checkpoints.items()
    }
    return dataset, models


def _workspace_doc(dataset: Dataset, models: dict[str, GcnModel | DTreeModel]) -> dict:
    checkpoints = {
        name: gcn_to_doc(model) if name == "gnn" else dtree_to_doc(model)
        for name, model in models.items()
    }
    return {
        "version": WORKSPACE_VERSION,
        "seed": dataset.seed,
        "dataset": dataset_to_doc(dataset),
        "checkpoints": checkpoints,
    }


def _train_gnn(dataset: Dataset, seed: int, config: TrainConfig) -> GcnModel:
    model = init_model(seed)
    fitted, history = train(model, dataset, config)
    if history.epochs:
        last = history.epochs[-1]
        val_acc = "n/a" if last["val_acc"] is None else f"{last['val_acc']:.4f}"
        print(
            f"trained gnn: {len(history.epochs)} epochs, "
            f"train_acc {last['train_acc']:.4f}, val_acc {val_acc}",
            file=sys.stderr,
        )
    return fitted


def _train_dtree(dataset: Dataset) -> DTreeModel:
    rows = [dataset.samples[i] for i in dataset.split["train"]]
    X = [s.flat.values for s in rows]
    y = [s.label for s in rows]
    model = train_dtree(X, y)
    print(f"trained dtree: {len(model.nodes)} nodes, depth {model.depth()}", file=sys.stderr)
    return model


# --------------------------------------------------------------------------
# per-file analysis subcommands
# --------------------------------------------------------------------------


def _cmd_parse(args: argparse.Namespace) -> int:
    tree = _parse_file(args.file)
    if args.format == "json":
        _emit(_dumps({"seed": args.seed, "path": args.file, "ast": emit_ast_doc(tree)}), args.out)
    else:
        _emit(pretty_print(tree), args.out)
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    tree = _parse_file(args.file)
    report = metrics_report(tree)
    if args.format == "json":
        doc = {"seed": args.seed, "path": args.file, "report": report.to_dict()}
        _emit(_dumps(doc), args.out)
        return EXIT_OK
    lines = [f"path: {args.file}", "functions:"]
    for name, vals in report.per_function.items():
        lines.append(f"  {name}: cyclomatic={vals['cyclomatic']} lines={vals['lines']}")
    if not report.per_function:
        lines.append("  (none)")
    lines.append("module:")
    for key, val in report.module.items():
        lines.append(f"  {key}={val}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    tree = _parse_file(args.file)
    graph = build_graph(tree)
    if args.format == "text":
        summary = " ".join(f"{k}={v}" for k, v in sorted(Counter(graph.nodes).items()))
        _emit(
            f"path: {args.file}\nnodes: {len(graph.nodes)}\nedges: {len(graph.src)}\n"
            f"kinds: {summary}\n",
            args.out,
        )
        return EXIT_OK
    graph_doc = emit_graph_doc(graph)
    for edge_doc, row in zip(graph_doc["edges"], edge_features(graph)):
        edge_doc["features"] = row
    doc = {"seed": args.seed, "path": args.file, "graph": graph_doc}
    _emit(_dumps(doc), args.out)
    return EXIT_OK


def _cmd_rules(args: argparse.Namespace) -> int:
    tree = _parse_file(args.file)
    findings = analyze_rules(tree)
    verdict = classify_rules(tree)
    if args.format == "json":
        doc = {
            "seed": args.seed,
            "path": args.file,
            "verdict": verdict,
            "findings": [f.to_dict() for f in findings],
        }
        _emit(_dumps(doc), args.out)
        return EXIT_OK
    lines = []
    for f in findings:
        lines.append(
            f"{f.rule} {f.target_name}: {f.measured:g} > {f.threshold:g} — {f.suggestion}"
        )
    lines.append(f"verdict: {'refactor' if verdict else 'keep'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# corpus and training subcommands
# --------------------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise _UsageError("--n must be >= 1")
    units = generate_units(args.n, args.seed)
    _emit(_dumps(units_to_bundle(units, args.seed)), args.out)
    print(f"synthesized {len(units)} programs, seed {args.seed}", file=sys.stderr)
    return EXIT_OK


def _cmd_corpus_build(args: argparse.Namespace) -> int:
    if args.indir:
        units, prov = ingest_dir(args.indir)
        seed = args.seed if args.seed is not None else DEFAULT_SEED
    else:
        bundle = _read_json(None, "source bundle")
        raw_units, bundle_seed = units_from_bundle(bundle)
        units, prov = ingest_units(raw_units)
        seed = args.seed if args.seed is not None else bundle_seed
    dataset = build_dataset(units, seed=seed, test_fraction=args.test_fraction, provenance=prov)
    labels = [s.label for s in dataset.samples]
    print(
        f"built corpus: {len(dataset.samples)} samples "
        f"({sum(labels)} refactor / {len(labels) - sum(labels)} keep), "
        f"train {len(dataset.split['train'])} / test {len(dataset.split['test'])}, "
        f"seed {seed}",
        file=sys.stderr,
    )
    _emit(_dumps(dataset_to_doc(dataset)), args.out)
    return EXIT_OK


def _cmd_train(args: argparse.Namespace) -> int:
    doc = _read_json(args.data, "dataset manifest")
    dataset, models = _load_workspace(doc)
    if args.model == "gnn":
        config = TrainConfig(
            learning_rate=args.lr,
            epochs=args.epochs,
            batch_size=args.batch_size,
            seed=args.seed,
        )
        models["gnn"] = _train_gnn(dataset, args.seed, config)
    else:
        models["dtree"] = _train_dtree(dataset)
    ws = _workspace_doc(dataset, models)
    if args.checkpoint_out:
        standalone = _dumps(ws["checkpoints"][args.model])
        try:
            Path(args.checkpoint_out).write_text(standalone + "\n", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {args.checkpoint_out}: {exc}") from exc
        print(f"wrote checkpoint {args.checkpoint_out}", file=sys.stderr)
    _emit(_dumps(ws), args.out)
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    doc = _read_json(args.data, "dataset manifest")
    dataset, models = _load_workspace(doc)
    gnn = models.get("gnn")
    if gnn is None:
        print("no gnn checkpoint; training with defaults", file=sys.stderr)
        gnn = _train_gnn(dataset, args.seed, TrainConfig(seed=args.seed))
    dtree = models.get("dtree")
    if dtree is None:
        print("no dtree checkpoint; training with defaults", file=sys.stderr)
        dtree = _train_dtree(dataset)
    report = compare(dataset, dtree, gnn)
    if args.pr_points:
        _emit(pr_points_to_csv(report, args.pr_points), args.out)
        return EXIT_OK
    if args.format == "json":
        _emit(report_to_json(report), args.out)
    elif args.format == "csv":
        _emit(report_to_csv(report), args.out)
    else:
        _emit(_report_text(report), args.out)
    return EXIT_OK


def _report_text(report) -> str:
    lines = [f"seed {report.seed}"]
    corpus = " ".join(f"{k}={v}" for k, v in sorted(report.corpus.items()))
    lines.append(f"corpus: {corpus}")
    header = f"{'model':<8}{'acc':>8}{'prec':>8}{'rec':>8}{'f1':>8}{'pr_auc':>8}{'cc_drop%':>10}"
    lines.append(header)
    for name in ("rules", "dtree", "gnn"):
        ev = report.models[name]
        row = ev.to_dict()

        def cell(key: str) -> str:
            val = row.get(key)
            return f"{val:>8.4f}" if isinstance(val, float) else f"{'—':>8}"

        drop = row.get("complexity_drop_pct")
        drop_s = f"{drop:>10.1f}" if isinstance(drop, float) else f"{'—':>10}"
        lines.append(
            f"{name:<8}{cell('accuracy')}{cell('precision')}{cell('recall')}"
            f"{cell('f1')}{cell('pr_auc')}{drop_s}"
        )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# model application subcommands
# --------------------------------------------------------------------------


def _cmd_suggest(args: argparse.Namespace) -> int:
    model = gcn_from_doc(_read_json(args.model, "gnn checkpoint"))
    tree = _parse_file(args.file)
    graph = build_graph(tree)
    suggestion = suggest_split(model, graph, split_points(tree))
    prob = suggestion.graph_prob
    if args.format == "json":
        doc = {
            "seed": args.seed,
            "path": args.file,
            "refactor_probability": prob,
            "node_id": suggestion.node_id,
            "score": suggestion.score,
            "eligible": suggestion.eligible,
        }
        _emit(_dumps(doc), args.out)
        return EXIT_OK
    if suggestion.node_id is None:
        _emit(f"path: {args.file}\nrefactor probability {prob:.4f}; no eligible split\n", args.out)
    else:
        fn = tree.nodes[tree.enclosing_function(suggestion.node_id)]
        k = next(i for i, stmt in enumerate(fn.children) if stmt.id == suggestion.node_id)
        _emit(
            f"path: {args.file}\nrefactor probability {prob:.4f}; "
            f"split at node {suggestion.node_id} ({fn.name} at statement {k}), "
            f"score {suggestion.score:.4f}\n",
            args.out,
        )
    return EXIT_OK


def _cmd_viz(args: argparse.Namespace) -> int:
    tree = _parse_file(args.file)
    before = build_graph(tree)
    split_node: int | None = args.split
    if split_node is None and args.model:
        model = gcn_from_doc(_read_json(args.model, "gnn checkpoint"))
        suggestion = suggest_split(model, before, split_points(tree))
        split_node = suggestion.node_id
        if split_node is None:
            print("model found no eligible split; rendering single panel", file=sys.stderr)
    after = None
    after_metrics = None
    if split_node is not None:
        after_tree = extract_split(tree, split_node)
        after = build_graph(after_tree)
        after_metrics = function_render_metrics(after_tree)
    metrics = function_render_metrics(tree)
    if args.out.endswith(".dot"):
        if after is not None:
            print("DOT output renders the pre-split graph only", file=sys.stderr)
        _emit(to_dot(before, metrics=metrics), args.out)
    else:
        _emit(
            to_html(before, after=after, before_metrics=metrics, after_metrics=after_metrics),
            args.out,
        )
    return EXIT_OK


# --------------------------------------------------------------------------
# argument wiring
# --------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
    sub.add_argument("--format", choices=formats, default=default)
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", metavar="command")

    for name, fn in (
        ("parse", _cmd_parse),
        ("metrics", _cmd_metrics),
        ("graph", _cmd_graph),
        ("rules", _cmd_rules),
    ):
        sub = subs.add_parser(name, help=f"{name} one source file")
        sub.add_argument("file")
        default = "json" if name == "graph" else "text"
        _add_common(sub, ("text", "json"), default)
        sub.set_defaults(func=fn)

    synth = subs.add_parser("synth", help="generate a synthetic source bundle")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    synth.add_argument("--out", default=None)
    synth.set_defaults(func=_cmd_synth)

    corpus = subs.add_parser("corpus", help="dataset construction")
    corpus_subs = corpus.add_subparsers(dest="corpus_command", metavar="action")
    build = corpus_subs.add_parser("build", help="bundle or directory -> dataset manifest")
    build.add_argument("--in", dest="indir", default=None, help="ingest a directory of .mpy files")
    build.add_argument("--out", default=None)
    build.add_argument("--seed", type=int, default=None, help="default: bundle seed, else 42")
    build.add_argument("--test-fraction", type=float, default=DEFAULT_TEST_FRACTION)
    build.set_defaults(func=_cmd_corpus_build)

    train_p = subs.add_parser("train", help="fit a model on a dataset manifest")
    train_p.add_argument("--model", choices=("gnn", "dtree"), required=True)
    train_p.add_argument("--data", default=None, help="manifest or workspace file; default stdin")
    train_p.add_argument("--out", default=None)
    train_p.add_argument("--checkpoint-out", default=None, help="also save the bare checkpoint")
    train_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    train_p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    train_p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    train_p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    train_p.set_defaults(func=_cmd_train)

    eval_p = subs.add_parser("eval", help="compare rules, dtree, and gnn on the test split")
    eval_p.add_argument("--data", default=None, help="workspace or manifest file; default stdin")
    eval_p.add_argument("--format", choices=("text", "json", "csv"), default="json")
    eval_p.add_argument("--out", default=None)
    eval_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    eval_p.add_argument(
        "--pr-points",
        choices=("rules", "dtree", "gnn"),
        default=None,
        help="emit one model's precision-recall points as CSV",
    )
    eval_p.set_defaults(func=_cmd_eval)

    suggest_p = subs.add_parser("suggest", help="model-ranked split point for one file")
    suggest_p.add_argument("file")
    suggest_p.add_argument("--model", required=True, help="gnn checkpoint file")
    _add_common(suggest_p, ("text", "json"), "text")
    suggest_p.set_defaults(func=_cmd_suggest)

    viz_p = subs.add_parser("viz", help="render a file's graph as DOT or HTML")
    viz_p.add_argument("file")
    viz_p.add_argument("--model", default=None, help="gnn checkpoint; picks the split point")
    viz_p.add_argument("--split", type=int, default=None, help="split at this node id")
    viz_p.add_argument("--out", required=True, help=".dot or .html path; '-' for stdout")
    viz_p.set_defaults(func=_cmd_viz)

    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv))
    if not getattr(args, "command", None):
        raise _UsageError("a subcommand is required (see --help)")
    if args.command == "corpus" and not getattr(args, "corpus_command", None):
        raise _UsageError("corpus requires an action (build)")
    return args.func(args)


@functools.cache
def _blas_thread_setter():
    """numpy's OpenBLAS thread setter, found by name in the ``numpy.libs``
    directory beside the numpy package, or None after one stderr line.
    numpy has loaded that library already, so ``ctypes.CDLL`` returns it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob(BLAS_LIBRARY_GLOB)):
        try:
            setter = getattr(ctypes.CDLL(str(path)), BLAS_THREAD_SETTER)
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return setter
    print(f"{PROG}: warning: no {BLAS_THREAD_SETTER} in {libs}; BLAS threads not pinned", file=sys.stderr)
    return None


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command, with numpy's BLAS pinned to one thread first: the
    thread count changes how matrix products round, and so the outputs."""
    setter = _blas_thread_setter()
    if setter is not None:
        setter(1)
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"{PROG}: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LexError, ParseError) as exc:
        print(f"{PROG}: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvariantError as exc:
        print(f"{PROG}: internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RefactorLabError as exc:
        print(f"{PROG}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        return EXIT_OK
    except Exception:  # pragma: no cover - last-resort diagnostics
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
