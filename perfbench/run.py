"""refactorlab benchmark: one workload per process, closed loop, in-process CLI.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the run sets up its inputs several times (``setup_s``
is the median), then repeats whole rounds of the workload's CLI calls for
about ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it runs untraced and traced rounds in turn, and reports
the per-layer metrics and the tracing overhead.  Either way
it checks every output apart from the program, checks that every round
printed the same bytes, and prints a table followed by one JSON line.
``--workload all`` runs each workload in a child process, untraced and
traced, and prints what they print.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# One BLAS thread: steadier timings on a small shared machine, and within
# the two cores the workloads may use.  Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

OUT_DIR = BENCH_DIR / "out"


def _import_program() -> None:
    """Import the program from the checkout's sources; refuse any other copy."""
    if not (SRC / "refactorlab" / "cli.py").is_file():
        raise SystemExit(f"error: no refactorlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import refactorlab

    if Path(refactorlab.__file__).resolve().parent != SRC / "refactorlab":
        raise SystemExit(f"error: refactorlab imported from {refactorlab.__file__}")
    # the CLI imports every module, so all are loaded before any set-up is
    # timed and before the tracer looks for functions to wrap
    import refactorlab.cli  # noqa: F401


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    import measure

    if args.workload == "all":
        return measure.run_all(args.seed, args.seconds)
    if args.workload not in measure.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(measure.WORKLOADS)}")
    return measure.run_one(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
