#!/usr/bin/env python3
"""Run one workload N times with different seeds and report its spread.

Usage (from the repository root):

    python3 perfbench/steady.py --workload compile [--runs 10] [--first-seed 1]

For each end-to-end metric in BENCHMARK.json it prints the median, the
first and third quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, the metric's bound and spread / bound, plus the
share of failed operations. Every run uses another seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
        row = []
        for name in values:
            v = res["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(row), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, failed shares {sorted(map(str, shares))}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'spread/bound':>14}")
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        print(f"{m['name']:<14}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}"
              f"{m['bound']:>7.2f}{spread / m['bound']:>14.2f}")


if __name__ == "__main__":
    main()
