"""Repeat the benchmark over seeds, report its spread, record the baseline.

Run from the repository root:

    python3 perfbench/record.py --runs 10                   # spreads only
    python3 perfbench/record.py --runs 10 --write           # + baseline files
    python3 perfbench/record.py --runs 5 --workloads sparse

Each run is ``run.py`` in its own process, exactly as a user would call it,
with seeds 1..runs.  For every end-to-end metric it prints the median and
the spread (third minus first quartile, as a share of the median) beside
the metric's bound; a spread should stay below a third of the bound.
``--write`` adds one traced run per workload and writes ``BENCHMARK.json``
(from the tables in ``metrics.py`` and ``workloads.py``) and
``perfbench/baseline.json`` (environment, medians, quartiles and traced
per-layer values of this commit).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import RUN_SECONDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)

    bounds = {n: bound for n, _, _, bound in END_TO_END}
    baseline = {"run_seconds": RUN_SECONDS, "seeds": list(range(1, args.runs + 1)),
                "workloads": {}}
    steady = True
    for name in args.workloads:
        results = [run(name, seed, 0) for seed in baseline["seeds"]]
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        print(f"{name}: {len(results)} runs, correct={correct}, failed operations={failed}")
        table = {}
        for metric, bound in bounds.items():
            s = table[metric] = spread([r["metrics"][metric]["value"] for r in results])
            ok = metric == "setup_s" or s["spread"] < bound / 3
            steady &= ok and correct
            print(f"  {metric:20s} median {s['median']:<12.6g} spread {s['spread']:7.4f}"
                  f"  bound/3 {bound / 3:.4f} {'ok' if ok else 'WIDE'}")
        baseline["workloads"][name] = {"correct": correct, "failed": failed, "end_to_end": table}
        if args.write:
            traced = run(name, baseline["seeds"][0], 1)
            baseline["workloads"][name]["per_layer"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
            baseline["workloads"][name]["per_layer_correct"] = traced["correct"]
    if args.write:
        env = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--environment"],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout
        baseline["environment"] = json.loads(env)
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
        (HERE.parent / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
