"""The benchmark's own self-test, run against the library in this tree.

``perfbench`` calls the public functions (``read_coo``, ``build_store``,
``rmse``, the solver paths) and rebinds module names to trace layers; a
library change that breaks either shows up here, not only when the
benchmark next runs.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    passes = [line for line in proc.stdout.splitlines() if line.startswith("PASS ")]
    assert len(passes) == 4, proc.stdout
