"""The three benchmark workloads: inputs made from a seed, one round of
CLI calls, and the checks on a round's outputs.

Every workload is single-client and closed-loop: it drives
``refactorlab.cli.main`` in-process, one call at a time, with stdin and
stdout held as strings.  A round is the same list of calls every time, so
the share of failed calls is fixed by the workload, not by the seed or
the run length.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import checks

# Two functions named "step"; the later one has a legal split point that
# the first one is too short to hold.  `viz --split` at that point is the
# kept failure: the split is planned by name and lands on the first def.
DUPLICATE_NAME_SOURCE = """\
def step(n):
    a = n + 1
    return a

def step(n):
    a = n
    for i in range(n):
        a = a + i
    b = a - 1
    c = b + 2
    return c

print(step(3))
"""
DUPLICATE_NAME_SPLIT_INDEX = 3  # body statement of the later `step`


# --- running the CLI in-process -----------------------------------------------------


@dataclass
class Call:
    name: str
    code: int
    out: str
    err: str
    seconds: float  # CPU time of this process
    wall_s: float
    bytes_in: int
    bytes_out: int
    digest: str


def run_cli(name: str, argv: list[str], stdin_text: str = "") -> Call:
    """One CLI call with stdin and stdout held as strings, timed in CPU
    time and in wall time."""
    from refactorlab import cli

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start, start_cpu = time.perf_counter(), time.process_time()
            code = cli.main(argv)
            seconds = time.process_time() - start_cpu
            wall_s = time.perf_counter() - start
    finally:
        sys.stdin = old_stdin
    text = out.getvalue()
    return Call(
        name, code, text, err.getvalue(), seconds, wall_s, len(stdin_text), len(text),
        text_digest(text),
    )


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Round:
    calls: list[Call] = field(default_factory=list)

    def call(self, name: str, argv: list[str], stdin_text: str = "") -> Call:
        c = run_cli(name, argv, stdin_text)
        self.calls.append(c)
        return c

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.calls)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.calls if c.code != 0)

    def failures(self, ignore: frozenset[str] = frozenset()) -> list[str]:
        """One line per failed call not named in ``ignore``: its name, exit
        code and diagnostic."""
        out = []
        for c in self.calls:
            if c.code != 0 and c.name not in ignore:
                tail = c.err.strip().splitlines()[-1:] or [""]
                out.append(f"{c.name} exited {c.code}: {tail[0]}")
        return out

    def stage_seconds(self, name: str) -> float:
        return sum(c.seconds for c in self.calls if c.name == name)

    def digests(self) -> list[str]:
        return [f"{c.name}:{c.code}:{c.digest}" for c in self.calls]

    def mismatches(self, others: list["Round"]) -> list[str]:
        """Rounds among ``others`` that printed other bytes than this one."""
        mine = self.digests()
        return [
            f"round {i} printed other bytes than the first round"
            for i, other in enumerate(others, 1)
            if other.digests() != mine
        ]

    def release(self) -> None:
        """Drop the printed text once checked; digests and sizes stay."""
        for c in self.calls:
            c.out = c.err = ""


# --- inputs ----------------------------------------------------------------------------


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Whole shares of ``total`` in proportion to ``weights``, by largest
    remainder, so they sum to ``total`` exactly."""
    quotas = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(len(quotas)), key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _mix() -> list[tuple[str, int]]:
    from refactorlab.synth import ARCHETYPES

    return list(ARCHETYPES)


def family_schedule(n: int) -> list[str]:
    """n family names in which every prefix keeps the generator's mix to
    within one program per family (smooth weighted round-robin)."""
    mix = _mix()
    total = sum(w for _, w in mix)
    current = [0] * len(mix)
    out: list[str] = []
    for _ in range(n):
        current = [c + w for c, (_, w) in zip(current, mix)]
        pick = max(range(len(mix)), key=lambda i: (current[i], -i))
        current[pick] -= total
        out.append(mix[pick][0])
    return out


def programs(families: list[str], seed: int) -> list[str]:
    """One distinct synthetic program per family name, in order."""
    from refactorlab.rng import Rng
    from refactorlab.synth import generate_program

    master = Rng(seed)
    seen: set[str] = set()
    out: list[str] = []
    for family in families:
        while True:
            body = generate_program(Rng(master.next_u64()), family)
            key = "\n".join(line.rstrip() for line in body.splitlines() if line.strip())
            if key not in seen:
                break
        seen.add(key)
        out.append(body)
    return out


def mixed_programs(n: int, seed: int) -> list[tuple[str, str]]:
    """n distinct (family, program) pairs in the generator's mix, each
    family within one program of its share, shuffled by the seed."""
    from refactorlab.rng import Rng

    families = family_schedule(n)
    rng = Rng(seed)
    rng.shuffle(families)
    return list(zip(families, programs(families, rng.next_u64())))


def break_source(source: str, how: int) -> str:
    """A copy of a program that neither MiniPy nor Python accepts."""
    lines = source.splitlines()
    if how == 0:  # drop the colon that opens the first block
        for i, line in enumerate(lines):
            if line.endswith(":"):
                lines[i] = line[:-1]
                return "\n".join(lines) + "\n"
    if how <= 1:  # drop the last closing parenthesis
        for i in range(len(lines) - 1, -1, -1):
            if ")" in lines[i]:
                j = lines[i].rindex(")")
                lines[i] = lines[i][:j] + lines[i][j + 1 :]
                return "\n".join(lines) + "\n"
    # a character outside both languages, at the end of the middle line
    mid = len(lines) // 2
    lines[mid] += " $"
    return "\n".join(lines) + "\n"


def _unique_function_names(source: str, tag: str) -> str:
    for name in re.findall(r"^\s*def (\w+)\(", source, flags=re.M):
        source = re.sub(rf"\b{name}\b", f"{name}_{tag}", source)
    return source


# --- workloads ------------------------------------------------------------------------------


class Workload:
    """Inputs from a seed, a round of CLI calls, and checks on a round."""

    name = ""
    # calls that fail today because of a known fault in the program
    KEPT_FAILURES: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Make the inputs from the seed, in memory.  This is what
        ``setup_s`` times: the program's own work (synthesis, parsing, the
        checkpoint) and the benchmark's, but not the file writes."""
        raise NotImplementedError

    def write(self) -> None:
        """Write the inputs that the calls read from files."""

    def units(self) -> int:
        """Source units one round feeds to the program."""
        raise NotImplementedError

    def round(self) -> Round:
        raise NotImplementedError

    def check(self, rnd: Round) -> list[str]:
        """Problems in ``rnd``: every failed call that is not a kept
        failure, and whatever the checks find in the outputs of the calls
        that succeeded.  Runs on the first round, before its printed text
        is dropped."""
        problems = [f"unexpected failure: {line}" for line in rnd.failures(self.KEPT_FAILURES)]
        return problems + self.check_outputs(rnd)

    def check_outputs(self, rnd: Round) -> list[str]:
        raise NotImplementedError

    def figures(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures, medians over rounds."""
        raise NotImplementedError

    def _stage(self, rounds: list[Round], name: str) -> tuple[float, str]:
        return median(r.stage_seconds(name) for r in rounds), "s"

    def _fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


class Pipeline(Workload):
    """corpus build | train gnn | train dtree | eval over one bundle."""

    name = "pipeline"
    # 400 programs with 40% held out give about 196 test samples, enough
    # that the F1 ordering of the three models holds on every seed tried.
    UNITS = 400
    BUILD_ARGS = ("--test-fraction", "0.4")
    # The CLI's batch size, so batches have the headline's make-up; fewer
    # epochs than its default, at a higher rate, so that a round fits the
    # run and the GCN still clears the 0.85 F1 gate.
    GNN_ARGS = ("--epochs", "60", "--lr", "0.01")

    def setup(self) -> None:
        units = [
            {"path": f"synth_{i:05d}.mpy", "body": body}
            for i, (_, body) in enumerate(mixed_programs(self.UNITS, self.seed))
        ]
        self.bundle = json.dumps({"version": "1", "seed": self.seed, "units": units})

    def units(self) -> int:
        return self.UNITS

    def round(self) -> Round:
        rnd = Round()
        seed = ("--seed", str(self.seed))
        manifest = rnd.call(
            "corpus_build", ["corpus", "build", *self.BUILD_ARGS, *seed], self.bundle
        )
        trained = rnd.call(
            "train_gnn", ["train", "--model", "gnn", *self.GNN_ARGS, *seed], manifest.out
        )
        both = rnd.call("train_dtree", ["train", "--model", "dtree", *seed], trained.out)
        rnd.call("eval", ["eval", "--format", "json", *seed], both.out)
        return rnd

    def check_outputs(self, rnd: Round) -> list[str]:
        build, _, _, evaluation = rnd.calls
        self.models: dict = {}
        problems: list[str] = []
        manifest = None
        if build.code == 0:
            manifest = json.loads(build.out)
            problems += checks.check_labels(manifest)
        if evaluation.code == 0:
            report = json.loads(evaluation.out)
            self.models = report["models"]  # for figures()
            problems += checks.check_rates(report)
            problems += checks.check_ordering(report)
            if manifest is not None and report["corpus"]["n_test"] != len(manifest["split"]["test"]):
                problems.append("report n_test differs from the manifest's test split")
        return problems

    def figures(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        build, _ = self._stage(rounds, "corpus_build")

        def model(name: str, key: str) -> float | None:
            return self.models.get(name, {}).get(key)

        return {
            "units_per_s": (self.UNITS / build, "1/s"),
            "corpus_build_s": (build, "s"),
            "manifest_mb": (rounds[0].calls[0].bytes_out / 1e6, "MB"),
            "train_gnn_s": self._stage(rounds, "train_gnn"),
            "train_dtree_s": self._stage(rounds, "train_dtree"),
            "eval_s": self._stage(rounds, "eval"),
            "f1_gnn": (model("gnn", "f1"), "ratio"),
            "f1_dtree": (model("dtree", "f1"), "ratio"),
            "f1_rules": (model("rules", "f1"), "ratio"),
            "cc_drop_gnn_pct": (model("gnn", "complexity_drop_pct"), "%"),
            "coupling_drop_gnn_pct": (model("gnn", "coupling_drop_pct"), "%"),
        }


class Ingest(Workload):
    """corpus build --in DIR over damaged files with planted copies."""

    name = "ingest"
    FILES = 600
    BROKEN = 360  # the paper's 60% of files with syntax errors
    COPIES = 60  # exact copies of valid files, under other names

    def setup(self) -> None:
        from refactorlab.rng import Rng

        rng = Rng(self.seed ^ 0x5EED)
        originals = mixed_programs(self.FILES - self.COPIES, self.seed)
        # break the same share of every family, so the survivors keep the mix
        by_family: dict[str, list[int]] = {}
        for i, (family, _) in enumerate(originals):
            by_family.setdefault(family, []).append(i)
        groups = list(by_family.values())
        broken: set[int] = set()
        for members, k in zip(groups, _apportion(self.BROKEN, [len(g) for g in groups])):
            broken.update(members[:k])
        bodies: list[str] = []
        valid: list[str] = []
        for i, (_, body) in enumerate(originals):
            if i in broken:
                body = break_source(body, i % 3)
            else:
                valid.append(body)
            bodies.append(body)
        bodies += [valid[i] for i in range(0, len(valid), len(valid) // self.COPIES)][: self.COPIES]
        rng.shuffle(bodies)
        self.bodies = bodies
        self.broken = sum(1 for body in bodies if not checks.is_valid_python(body))

    def write(self) -> None:
        self.dir = self._fresh_dir("ingest")
        for i, body in enumerate(self.bodies):
            (self.dir / f"file_{i:04d}.mpy").write_text(body, encoding="utf-8")

    def units(self) -> int:
        return self.FILES

    def round(self) -> Round:
        rnd = Round()
        argv = ["corpus", "build", "--in", str(self.dir), "--seed", str(self.seed)]
        rnd.call("corpus_build", argv)
        return rnd

    def check_outputs(self, rnd: Round) -> list[str]:
        problems: list[str] = []
        if self.broken != self.BROKEN:
            problems.append(f"{self.broken} files are broken, {self.BROKEN} were meant to be")
        if rnd.calls[0].code == 0:
            manifest = json.loads(rnd.calls[0].out)
            problems += checks.check_provenance(manifest, self.FILES, self.BROKEN, self.COPIES)
            problems += checks.check_labels(manifest)
        return problems

    def figures(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        build, _ = self._stage(rounds, "corpus_build")
        return {
            "units_per_s": (self.FILES / build, "1/s"),
            "corpus_build_s": (build, "s"),
            "manifest_mb": (rounds[0].calls[0].bytes_out / 1e6, "MB"),
        }


class Bigfile(Workload):
    """graph, metrics, suggest and viz on single large files."""

    name = "bigfile"
    KEPT_FAILURES = frozenset({"viz_split"})
    # node counts the concatenated files are grown to; graph build cost
    # grows faster than quadratically, so the largest file dominates
    NODES = (500, 2000)
    PER_FILE = ("graph", "metrics", "suggest", "viz")

    def setup(self) -> None:
        from refactorlab.gcn import gcn_to_doc, init_model
        from refactorlab.minipy.parser import parse_source
        from refactorlab.rng import Rng

        rng = Rng(self.seed)
        # every file keeps the family mix, so its cost depends little on the seed
        pool = iter(programs(family_schedule(sum(self.NODES) // 5), self.seed))
        self.sources: list[str] = []
        for target in self.NODES:
            parts: list[str] = []
            nodes = 1  # the shared Module root
            while nodes < target:
                body = _unique_function_names(next(pool), f"p{rng.randrange(1 << 30):x}")
                nodes += len(parse_source(body).nodes) - 1
                parts.append(body)
            self.sources.append("\n".join(parts))
        # an untrained network: suggestion cost does not depend on the weights
        self.checkpoint_text = json.dumps(gcn_to_doc(init_model(self.seed)))
        later = [f for f in parse_source(DUPLICATE_NAME_SOURCE).functions() if f.name == "step"][1]
        self.duplicate_split = later.body()[DUPLICATE_NAME_SPLIT_INDEX].id

    def write(self) -> None:
        self.dir = self._fresh_dir("bigfile")
        self.files: list[tuple[Path, str]] = []
        for target, source in zip(self.NODES, self.sources):
            path = self.dir / f"nodes_{target}.mpy"
            path.write_text(source, encoding="utf-8")
            self.files.append((path, source))
        self.checkpoint = self.dir / "gnn.json"
        self.checkpoint.write_text(self.checkpoint_text, encoding="utf-8")
        self.duplicate = self.dir / "duplicate_name.mpy"
        self.duplicate.write_text(DUPLICATE_NAME_SOURCE, encoding="utf-8")

    def units(self) -> int:
        return len(self.NODES) + 1

    def round(self) -> Round:
        rnd = Round()
        model = ("--model", str(self.checkpoint))
        for path, _ in self.files:
            f = str(path)
            rnd.call("graph", ["graph", f, "--format", "json"])
            rnd.call("metrics", ["metrics", f, "--format", "json"])
            rnd.call("suggest", ["suggest", f, *model, "--format", "json"])
            rnd.call("viz", ["viz", f, *model, "--out", "-"])
        split = ("--split", str(self.duplicate_split), "--out", "-")
        rnd.call("viz_split", ["viz", str(self.duplicate), *split])
        return rnd

    def check_outputs(self, rnd: Round) -> list[str]:
        problems: list[str] = []
        step = len(self.PER_FILE)
        for i, (path, source) in enumerate(self.files):
            graph_c, metrics_c, suggest_c, viz_c = rnd.calls[step * i : step * (i + 1)]
            found: list[str] = []
            if metrics_c.code == 0:
                found += checks.check_cyclomatic(source, json.loads(metrics_c.out)["report"])
            if graph_c.code == 0:
                graph = json.loads(graph_c.out)["graph"]
                found += checks.check_graph(source, graph)
                if suggest_c.code == 0:
                    suggestion = json.loads(suggest_c.out)
                    found += checks.check_suggestion(graph, suggestion)
                    if viz_c.code == 0:
                        split = suggestion["node_id"] is not None
                        found += checks.check_viz(viz_c.out, split=split)
            problems += [f"{path.name}: {p}" for p in found]
        split_c = rnd.calls[-1]
        if split_c.code == 0:
            problems += [f"duplicate_name: {p}" for p in checks.check_viz(split_c.out, split=True)]
        return problems

    def figures(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        out = {f"{name}_s": self._stage(rounds, name) for name in self.PER_FILE}
        step = len(self.PER_FILE)
        for i, (path, _) in enumerate(self.files):
            out[f"graph_s.{path.stem}"] = (median(r.calls[step * i].seconds for r in rounds), "s")
        return out


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Pipeline, Ingest, Bigfile)}
