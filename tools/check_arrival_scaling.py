#!/usr/bin/env python3
"""Scaling gates: per-arrival cost of the serving engine must not grow with
the length of the trace, and scheduling must not multiply it.

Runs the sched-on single-server sweep (`bench_churn --seed 1 --tightness
0.5`) at a short and a 16x longer horizon, takes the best wall time of
three runs each, and divides it by the arrivals in the report. The first
gate fails when the long run's microseconds per arrival exceed twice the
short run's: an engine that rescans the whole job table per decision
reads several times over the limit at the long horizon. The second gate
also runs the same trace with scheduling off (`bench_churn --seed 1`) at
the long horizon and fails when the sched-on figure exceeds 2.5 times the
sched-off one: a sched path that copies or hashes what it could read
reads over that limit. All runs happen on the same machine, so the ratios
do not depend on its speed.

Usage:
  check_arrival_scaling.py build/bench/bench_churn

Exit status: 0 within both limits, 1 over either.
"""

import json
import subprocess
import sys
import time

SHORT_HORIZON_S = 1200
LONG_HORIZON_S = 19200
RUNS = 3
MAX_RATIO = 2.0
MAX_SCHED_RATIO = 2.5
SCHED_ON = ["--tightness", "0.5"]


def us_per_arrival(binary, horizon_s, sched_flags):
    best = None
    for _ in range(RUNS):
        start = time.perf_counter()
        done = subprocess.run(
            [binary, "--seed", "1", *sched_flags,
             "--horizon", str(horizon_s)],
            check=True, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
    # A sweep (sched on) wraps its one report; a plain run is the report.
    output = json.loads(done.stdout)
    report = output["runs"][0]["report"] if "runs" in output else output
    arrivals = sum(c["arrivals"] for c in report["classes"])
    return best / arrivals * 1e6, arrivals


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    binary = sys.argv[1]
    short_us, short_arrivals = us_per_arrival(binary, SHORT_HORIZON_S,
                                              SCHED_ON)
    long_us, long_arrivals = us_per_arrival(binary, LONG_HORIZON_S, SCHED_ON)
    off_us, _ = us_per_arrival(binary, LONG_HORIZON_S, [])
    ratio = long_us / short_us
    sched_ratio = long_us / off_us
    print(f"sched on, horizon {SHORT_HORIZON_S} s: {short_arrivals} "
          f"arrivals, {short_us:.1f} us/arrival")
    print(f"sched on, horizon {LONG_HORIZON_S} s: {long_arrivals} arrivals, "
          f"{long_us:.1f} us/arrival")
    print(f"sched off, horizon {LONG_HORIZON_S} s: {off_us:.1f} us/arrival")
    print(f"horizon ratio {ratio:.2f} (limit {MAX_RATIO:.1f})")
    print(f"sched on/off ratio {sched_ratio:.2f} "
          f"(limit {MAX_SCHED_RATIO:.1f})")
    failed = 0
    if ratio > MAX_RATIO:
        print("FAIL: per-arrival cost grows with the trace", file=sys.stderr)
        failed = 1
    if sched_ratio > MAX_SCHED_RATIO:
        print("FAIL: scheduling multiplies the per-arrival cost",
              file=sys.stderr)
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
