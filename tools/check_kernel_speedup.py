#!/usr/bin/env python3
"""Gate on the bench_kernels datapoint (BENCH_kernels.json).

Always enforced:
  * cross-level outputs were bitwise identical while timing (batched MAC,
    factored genotype MAC and Cox scan);
  * the datapoint timed the genotype MAC at every level it lists;
  * 2-bit genotype packing shrank the payload by ~4x (>= 3.5x allows for
    the per-block ceil(n/4) rounding at small n).

Enforced only on a meaningful host (optimized build, no sanitizers, AVX2
present) — skipped cleanly otherwise:
  * the AVX2 batched-MAC kernel is >= 1.5x faster than scalar.

Usage: check_kernel_speedup.py <BENCH_kernels.json>
"""
import json
import sys

MIN_MAC_SPEEDUP = 1.5
MIN_PACK_RATIO = 3.5


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        data = json.load(f)

    failures = []

    if not data.get("bitwise_identical", False):
        failures.append("cross-level kernel outputs were not bitwise identical")

    ratio = data.get("pack", {}).get("ratio", 0.0)
    if ratio < MIN_PACK_RATIO:
        failures.append(
            f"genotype packing ratio {ratio:.2f}x < required {MIN_PACK_RATIO}x"
        )
    else:
        print(f"[kernel-smoke] packing ratio {ratio:.2f}x >= {MIN_PACK_RATIO}x")

    levels = data.get("levels", {})
    untimed = [name for name, level in levels.items()
               if level.get("genotype_mac_seconds", 0.0) <= 0.0]
    if untimed:
        failures.append("genotype MAC not timed at " + ", ".join(untimed))

    optimized = data.get("optimized", False)
    sanitized = data.get("sanitized", False)
    if "avx2" not in levels:
        print("[kernel-smoke] AVX2 unavailable on this host; speedup gate skipped")
    elif not optimized or sanitized:
        print(
            "[kernel-smoke] non-timing build (optimized=%s sanitized=%s); "
            "speedup gate skipped" % (optimized, sanitized)
        )
    else:
        speedup = levels["avx2"].get("mac_speedup", 0.0)
        if speedup < MIN_MAC_SPEEDUP:
            failures.append(
                f"AVX2 MAC speedup {speedup:.2f}x < required {MIN_MAC_SPEEDUP}x"
            )
        else:
            print(
                f"[kernel-smoke] AVX2 MAC speedup {speedup:.2f}x >= "
                f"{MIN_MAC_SPEEDUP}x"
            )

    for failure in failures:
        print(f"[kernel-smoke] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
