"""The benchmark's own correctness checks still work on today's outputs.

``perfbench/checks.py`` reads fields of the manifest, the graph document
and the report, so a change to any of those formats can leave a check
reading a key that is gone.  The self-test runs each check on a real
output and on a corrupted copy.
"""

from __future__ import annotations

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
