#!/usr/bin/env python3
"""Scaling gate: per-arrival cost of the serving engine must not grow with
the length of the trace.

Runs the sched-on single-server sweep (`bench_churn --seed 1 --tightness
0.5`) at a short and a 16x longer horizon, takes the best wall time of
three runs each, and divides it by the arrivals in the report. The gate
fails when the long run's microseconds per arrival exceed twice the short
run's. Both runs happen on the same machine, so the ratio does not depend
on its speed; an engine that rescans the whole job table per decision
reads several times over the limit at the long horizon.

Usage:
  check_arrival_scaling.py build/bench/bench_churn

Exit status: 0 within the limit, 1 over it.
"""

import json
import subprocess
import sys
import time

SHORT_HORIZON_S = 1200
LONG_HORIZON_S = 19200
RUNS = 3
MAX_RATIO = 2.0


def us_per_arrival(binary, horizon_s):
    best = None
    for _ in range(RUNS):
        start = time.perf_counter()
        done = subprocess.run(
            [binary, "--seed", "1", "--tightness", "0.5",
             "--horizon", str(horizon_s)],
            check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    report = json.loads(done.stdout)["runs"][0]["report"]
    arrivals = sum(c["arrivals"] for c in report["classes"])
    return best / arrivals * 1e6, arrivals


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    binary = sys.argv[1]
    short_us, short_arrivals = us_per_arrival(binary, SHORT_HORIZON_S)
    long_us, long_arrivals = us_per_arrival(binary, LONG_HORIZON_S)
    ratio = long_us / short_us
    print(f"horizon {SHORT_HORIZON_S} s: {short_arrivals} arrivals, "
          f"{short_us:.1f} us/arrival")
    print(f"horizon {LONG_HORIZON_S} s: {long_arrivals} arrivals, "
          f"{long_us:.1f} us/arrival")
    print(f"ratio {ratio:.2f} (limit {MAX_RATIO:.1f})")
    if ratio > MAX_RATIO:
        print("FAIL: per-arrival cost grows with the trace", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
