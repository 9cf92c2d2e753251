#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

Runs every workload briefly, untraced and traced, through run.py and
asserts that the result line carries exactly the metrics BENCHMARK.json
names for that mode with their units, that the run is correct with no
failed operation (error_rate 0 in the report), and that the set-up truth
gate and the post-run exact-join checks passed.

Usage, from anywhere: python3 perfbench/smoke_test.py [-v]
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5
SECONDS = 1  # each run still records the 100 joins p90 needs


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    out_root = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                     or ".bench_build"))
    report_path = os.path.join(
        out_root, "perfbench-results",
        f"{workload}-seed{SEED}-trace{trace}.json")
    with open(report_path) as f:
        report = json.load(f)
    return proc.returncode, result, report


class SmokeTest(unittest.TestCase):
    spec = load_spec()

    def check(self, workload, trace):
        code, result, report = run(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])

        self.assertEqual(report["seed"], SEED)
        self.assertEqual(report["metrics"]["error_rate"]["value"], 0)
        failed_checks = [c["check"] for c in report["checks"] if not c["ok"]]
        self.assertEqual(failed_checks, [])
        names = " ".join(c["check"] for c in report["checks"])
        self.assertIn("equals Stack-Tree-Desc", names)
        self.assertIn("post-run exact join equals the truth", names)
        self.assertIn("CheckConsistency", names)


def add_case(workload, trace):
    def test(self):
        self.check(workload, trace)
    mode = "traced" if trace else "untraced"
    name = f"test_{workload.replace('-', '_')}_{mode}"
    setattr(SmokeTest, name, test)


for w in SmokeTest.spec["workloads"]:
    for t in (0, 1):
        add_case(w["name"], t)


if __name__ == "__main__":
    unittest.main()
