#!/usr/bin/env python3
"""Builds the benchmark driver from source, then runs one workload.

    python3 perfbench/run.py --workload cell_deadline --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works; paths resolve from this
file). The build goes to .bench_build/perfbench; build output goes to
stderr, so stdout carries only the driver's lines, the last of which is the
result object.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("cell_deadline", "fleet_probe", "substrate_profile")
# Every run must end within 180 s; the build has its own, longer budget.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configures (once) and incrementally builds the driver."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("library sources (src/) are missing beside "
                           "the benchmark")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return BINARY


def clean_env():
    """The program's own ODN_* channels stay off and the pool size comes
    from the driver, so no ODN_* variable of the caller may leak in."""
    return {k: v for k, v in os.environ.items() if not k.startswith("ODN_")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # The first spans of the latest traced run of each workload.
        command += ["--span-out",
                    os.path.join(BUILD_DIR, f"spans-{args.workload}.jsonl")]
    try:
        result = subprocess.run(command, env=clean_env(), cwd=ROOT,
                                stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    if result.returncode != 0:
        print(f"perfbench: driver exited with {result.returncode}",
              file=sys.stderr)
        return result.returncode if result.returncode > 0 else 4
    sys.stdout.write(result.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
