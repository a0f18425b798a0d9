#!/usr/bin/env python3
"""Run every workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1]

One run.py process per (workload, seed), one after another, for every
workload of BENCHMARK.json at its run_seconds with tracing off.  For each
workload and metric it prints the median, the quartiles as Python's
statistics.quantiles(values, n=4) gives them, the spread (Q3 - Q1) / median,
the bound from BENCHMARK.json, and the failed/attempted operation counts;
the raw wall_s that norm_wall_s is normalized from is printed too, unbounded.
The result lines go to perfbench/out/spread-seed<first>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    for workload in names:
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = json.loads(
                (HERE / "out" / f"{workload}-seed{seed}-trace0.json")
                .read_text())
            result["metrics"]["wall_s"] = {"value": record["wall_s"],
                                           "unit": "s"}
            raw.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                file=sys.stderr)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-seed{args.first_seed}.json").write_text(
        json.dumps(raw, indent=1) + "\n")
    print(f"{'workload':14s} {'metric':48s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s} unit")
    for workload, results in raw.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = f"{bounds[name]:.2f}" if name in bounds else "-"
            print(f"{workload:14s} {name:48s} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.2%} {bound:>6s} {m['unit']}")
        print(f"{workload:14s} failed {failed} of {attempted} operations "
              f"(error_rate {failed / attempted:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
