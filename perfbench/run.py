"""Seeded benchmark of every ``sals`` solver path.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The script writes the workload's COO files (``workloads.py``), then starts
``child.py`` in a fresh process that sets up, runs and checks every path
and measures it.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``metrics.py`` with ``--trace 0``, the per-layer ones with
``--trace 1``.  Generated files live under ``perfbench/_work`` and are
removed at the end, except the latest span file of each workload.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import ALL_WORKLOADS, WORKLOADS, generate  # noqa: E402

WORK = HERE / "_work"
DEADLINE_S = 170.0
RUN_SECONDS = 30


def run_once(workload: str, seed: int, seconds: float, trace: int,
             inject: str | None = None, deadline: float = DEADLINE_S) -> dict:
    """Generate inputs, run the timed child process, return the result line."""
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "sals" / "__init__.py").is_file():
        raise SystemExit(f"error: no src/sals under {root}; run from the repository root")
    run_dir = WORK / f"{workload}-s{seed}-t{trace}-{time.time_ns()}"
    inputs = run_dir / "inputs"
    out = run_dir / "result.json"
    try:
        generate(ALL_WORKLOADS[workload], seed, inputs)
        cmd = [
            sys.executable, str(HERE / "child.py"), "--root", str(root),
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--inputs", str(inputs), "--out", str(out),
        ]
        if inject:
            cmd += ["--inject", inject]
        remaining = deadline - (time.monotonic() - started)
        # The child's output is diagnostics only; keep stdout for the result.
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=remaining)
        child = json.loads(out.read_text())
        if trace:
            (run_dir / "trace.npz").replace(WORK / f"trace-{workload}.npz")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    table = PER_LAYER if trace else END_TO_END
    values = child["values"]
    missing = [name for name, *_ in table if name not in values]
    if missing:
        print(f"missing metrics: {missing}", file=sys.stderr)
    return {
        "correct": bool(child["correct"]) and not missing,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, *_ in table if name in values
        },
        "environment": child["environment"],
    }


def self_test() -> int:
    """Every path on a tiny instance, then each injected fault must be caught."""
    cases = [
        ("clean, untraced", 0, None, lambda r: r["correct"] and r["failed"] == 0),
        ("clean, traced", 1, None, lambda r: r["correct"] and r["failed"] == 0
         and r["metrics"]["cluster.exchange_ratio"]["value"] == 1.0),
        ("perturbed cluster model", 0, "cluster-model",
         lambda r: not r["correct"] and r["failed"] >= 1),
        ("off-by-one exchange count", 0, "exchange",
         lambda r: not r["correct"] and r["failed"] >= 1),
    ]
    ok = True
    for label, trace, inject, expect in cases:
        result = run_once("tiny", 7, 0.5, trace, inject)
        passed = expect(result)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {label}: attempted={result['attempted']} "
              f"failed={result['failed']} metrics={len(result['metrics'])}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded benchmark of every sals solver path.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    result = run_once(args.workload, args.seed, args.seconds, args.trace)
    env = result.pop("environment")
    print(f"environment: {json.dumps(env)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
