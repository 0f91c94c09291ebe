#!/usr/bin/env python3
"""Scaling gates: per-arrival cost of the serving engine must not grow with
the length of the trace, scheduling must not multiply it, and its memory
must follow the live jobs, not the trace.

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

The third gate runs the sched-on sweep once more at 76,800 s and divides
the run's peak resident set size by its arrivals. It fails above 1 KiB per
arrival: the report must keep every latency sample for its exact
percentiles (about 25 samples, 200 bytes, per arrival), but an engine that
keeps a settled job's name, plan and task until the end of the run reads
about 2.1 KiB per arrival.

Usage:
  check_arrival_scaling.py build/bench/bench_churn

Exit status: 0 within all limits, 1 over any.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

SHORT_HORIZON_S = 1200
LONG_HORIZON_S = 19200
MEMORY_HORIZON_S = 76800
RUNS = 3
MAX_RATIO = 2.0
MAX_SCHED_RATIO = 2.5
MAX_KIB_PER_ARRIVAL = 1.0
SCHED_ON = ["--tightness", "0.5"]


def run_once(binary, horizon_s, sched_flags):
    """Returns (wall seconds, peak RSS in KiB, arrivals) of one run."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [binary, "--seed", "1", *sched_flags,
             "--horizon", str(horizon_s)],
            stdout=out, stderr=subprocess.DEVNULL)
        # wait4 reports this child's peak RSS (ru_maxrss, KiB on Linux).
        # Linux starts it from this process's RSS at the spawn, so main()
        # takes the memory figure first, before any report is loaded here.
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
        out.seek(0)
        output = json.load(out)
    # A sweep (sched on) wraps its one report; a plain run is the report.
    report = output["runs"][0]["report"] if "runs" in output else output
    arrivals = sum(c["arrivals"] for c in report["classes"])
    return wall, usage.ru_maxrss, arrivals


def us_per_arrival(binary, horizon_s, sched_flags):
    runs = [run_once(binary, horizon_s, sched_flags) for _ in range(RUNS)]
    arrivals = runs[0][2]
    return min(wall for wall, _, _ in runs) / arrivals * 1e6, arrivals


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    binary = sys.argv[1]
    wall, rss_kib, mem_arrivals = run_once(binary, MEMORY_HORIZON_S, SCHED_ON)
    kib_per_arrival = rss_kib / mem_arrivals
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
    print(f"sched on, horizon {MEMORY_HORIZON_S} s: {mem_arrivals} arrivals, "
          f"{wall / mem_arrivals * 1e6:.1f} us/arrival, peak RSS "
          f"{rss_kib / 1024:.1f} MiB ({kib_per_arrival:.2f} KiB/arrival, "
          f"limit {MAX_KIB_PER_ARRIVAL:.1f})")
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
    if kib_per_arrival > MAX_KIB_PER_ARRIVAL:
        print("FAIL: memory grows with settled jobs", file=sys.stderr)
        failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
