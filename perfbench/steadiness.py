#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports how steady each metric is.

    python3 perfbench/steadiness.py --workloads cell_deadline fleet_probe \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 25 [--out runs.json]

For every workload and end-to-end metric it prints the median over the
seeds and the spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median. It also
prints the Pearson correlation between the host-noise probe recorded
before each run and that run's op_p50_ms. Runs are sequential.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], check=True, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "info": info,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def pearson(xs, ys):
    if len(xs) < 3 or statistics.pstdev(xs) == 0 or statistics.pstdev(ys) == 0:
        return float("nan")
    return statistics.correlation(xs, ys)


def summarize(runs):
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    summary = {}
    for workload, group in by_workload.items():
        rows = {}
        for name in group[0]["metrics"]:
            values = [r["metrics"][name] for r in group]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            rows[name] = {"median": med, "spread": spread}
        probes = [r["info"]["host_probe_ns"] for r in group]
        p50s = [r["metrics"].get("op_p50_ms", 0.0) for r in group]
        summary[workload] = {
            "runs": len(group),
            "failed_ops": sum(r["failed"] for r in group),
            "all_correct": all(r["correct"] for r in group),
            "metrics": rows,
            "probe_vs_op_p50_corr": pearson(probes, p50s),
        }
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="also write every run and the summary")
    args = parser.parse_args()
    runs = []
    for workload in args.workloads:
        for seed in args.seeds:
            run = run_once(workload, seed, args.seconds, args.trace)
            runs.append(run)
            print(json.dumps(run), file=sys.stderr, flush=True)
    summary = summarize(runs)
    for workload, block in summary.items():
        print(f"{workload}: {block['runs']} runs, failed ops "
              f"{block['failed_ops']}, probe/op_p50 correlation "
              f"{block['probe_vs_op_p50_corr']:.3f}")
        for name, row in block["metrics"].items():
            print(f"  {name:28s} median {row['median']:.6g}  "
                  f"spread {row['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump({"runs": runs, "summary": summary}, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
