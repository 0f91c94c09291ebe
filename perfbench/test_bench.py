#!/usr/bin/env python3
"""The benchmark's own tests: report digests and the op checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the driver through run.py, then runs it directly with short runs.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own launcher)

# Report digests of seed 1, the default seed of the steadiness runs. A
# change to either runtime that alters any report byte changes these.
PINNED_DIGESTS = {
    "cell_deadline": "91faae658860baf4",
    "fleet_probe": "8afc2229b2ff3104",
}


def drive(workload, *extra):
    command = [run.build(), "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", "0", *extra]
    out = subprocess.run(command, env=run.clean_env(), check=True,
                         stdout=subprocess.PIPE, text=True, timeout=170)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


class ReportDigestTest(unittest.TestCase):
    def test_digest_is_pinned_and_independent_of_pool_size(self):
        for workload, pinned in PINNED_DIGESTS.items():
            for pool in ("1", "2"):
                with self.subTest(workload=workload, pool=pool):
                    info, result = drive(workload, "--pool", pool)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(info["report_digest"], pinned)


class OpCheckTest(unittest.TestCase):
    def test_corrupted_report_counts_as_failed_op(self):
        for workload in ("cell_deadline", "fleet_probe", "substrate_profile"):
            with self.subTest(workload=workload):
                info, result = drive(workload, "--corrupt")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])
                self.assertIn("first_error", info)

    def test_result_lines_match_the_declared_metrics(self):
        spec_path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(spec_path, encoding="utf-8") as spec_file:
            spec = json.load(spec_file)
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            with self.subTest(trace=trace):
                _, result = drive("substrate_profile", "--trace", trace)
                declared = {m["name"]: m["unit"] for m in spec[key]}
                printed = {name: metric["unit"]
                           for name, metric in result["metrics"].items()}
                self.assertEqual(printed, declared)
        _, result = drive("substrate_profile")
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)


if __name__ == "__main__":
    unittest.main()
