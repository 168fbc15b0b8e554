"""Run the benchmark over several seeds and print one row per metric.

Usage, from the root of a checkout:

    python3 perfbench/report.py [--seeds 10] [--first-seed 1] [--seconds S]
                                [--workload NAME ...] [--trace]

For each workload it runs ``perfbench/run.py`` once per seed, one run at
a time, and prints every end-to-end metric by name and unit in its own
row: median, first and third quartile, sample count, spread (the
quartile distance as a share of the median) and the metric's bound from
BENCHMARK.json, then the workload's error rate over all commands
attempted. With ``--trace`` it prints the per-layer table instead, with
the same columns. Counts differ between seeds; each run checks that its
own traced repetitions gave identical counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--trace", action="store_true", help="print the per-layer table")
    args = parser.parse_args()

    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    status = 0
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                if not lines:
                    continue
            runs.append(json.loads(lines[-1]))
            print(f"{name} seed {seed}: {lines[-1]}", file=sys.stderr)
        if not runs:
            continue
        print(f"\n{name}  ({len(runs)} runs; items are {WORKLOADS[name].item})")
        print(f"  {'metric':<44} {'unit':<16} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}"
              + ("" if args.trace else "  spread   bound"))
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs
                      if metric["name"] in r["metrics"]]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            row = (f"  {metric['name']:<44} {metric['unit']:<16} {q2:>12.6g} {q1:>12.6g}"
                   f" {q3:>12.6g} {len(values):>3}")
            if not args.trace:
                spread = (q3 - q1) / q2 if q2 else float("inf")
                row += f"  {spread:6.3f}  {metric['bound']:6.3f}"
            print(row)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  {'error_rate':<44} {'failed/attempted':<16} {failed / attempted:>12.6g}"
              f"   ({failed} of {attempted} commands)")
    return status


if __name__ == "__main__":
    sys.exit(main())
