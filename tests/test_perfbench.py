"""The benchmark's own correctness checks still work on today's outputs.

``perfbench/checks.py`` reads fields of the manifest, the graph document
and the report, so a change to any of those formats can leave a check
reading a key that is gone.  The self-test runs each check on a real
output and on a corrupted copy, and one round of the ``pipeline``
workload runs every check on the program's current outputs.  A traced
``bigfile`` round also runs the tracer's hooks, which read attributes of
the library's results (``len(build_graph(...).nodes)`` among them).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pipeline_round_passes_its_checks():
    # gnn F1 gate, the F1 order, labels, rates and byte-identical reruns
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "pipeline", "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stdout


def test_traced_bigfile_round_passes_its_checks():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "bigfile", "--seed", "3", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stdout
