#!/usr/bin/env python3
"""Runs one SparkScore benchmark workload and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--gen-seed N]

Run from the root of a source checkout. The first call builds the harness
(perfbench/CMakeLists.txt, which compiles the program from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Each call runs the workload in a fresh process with
a private TMPDIR under the build directory, which holds its store and
spill directories and is removed afterwards.

--seed is the resampling seed (Monte Carlo multipliers / permutations).
The cohort is generated from --gen-seed, which defaults to each
workload's pinned cohort seed (see perfbench/record.json): the hybrid
workload's cost follows the size of the generator's remainder SNP-set, so
a fixed cohort keeps runs comparable.

Human-readable lines come first. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1). Exit status: 0 when
every check passed, 1 on a correctness failure, 2 when the harness could
not be built or run (no result line is printed then).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "record.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, env):
    """Configures once and builds the harness; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, env=env)
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j",
             str(min(4, os.cpu_count() or 1))],
            check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gen-seed", type=int, default=None)
    args = parser.parse_args()

    root = os.getcwd()
    with open(RECORD) as handle:
        record = json.load(handle)
    cohort = record["cohorts"].get(args.workload)
    if cohort is None:
        fail(f"unknown workload '{args.workload}'")
    gen_seed = cohort["gen_seed"] if args.gen_seed is None else args.gen_seed

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(root, build_dir, env)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    # The run's private TMPDIR holds its store and spill directories.
    workdir = os.path.join(build_dir, "runs", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env["TMPDIR"] = workdir
    command = [binary, "--workload", args.workload, "--gen-seed", str(gen_seed),
               "--mc-seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)

    correct = result["correct"] and proc.returncode == 0
    attempted = result["attempted"]
    failed = result["failed"]
    # The result hash is bitwise-invariant across threads, batch, kernel
    # tier, prefetch and budget, so a pinned (cohort, seed) pair must
    # reproduce it exactly.
    pinned = cohort["result_hash"].get(str(args.seed))
    if pinned is not None and gen_seed == cohort["gen_seed"]:
        attempted += 1
        if result["result_hash"] != pinned:
            failed += 1
            correct = False
            print(f"perfbench: result_hash {result['result_hash']} != pinned "
                  f"{pinned} for seed {args.seed}", file=sys.stderr)
    print(f"  error_rate = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
