#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--out FILE] [WORKLOAD ...]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, from the current directory, and prints for every
end-to-end metric the median and the spread: the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. With --out, the
raw per-run results are written there as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False}
            result["seed"] = seed
            runs.append(result)
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})")
        raw[workload] = runs
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs
                      if name in r.get("metrics", {})]
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "OVER BOUND")
            print(f"{workload:14s} {name:14s} median {median:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound:.2f}  {flag}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(raw, handle, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
