#!/usr/bin/env python3
"""Tests of the benchmark command itself.

    python3 perfbench/test_perfbench.py

Builds perfbench/ (as run.py does), runs the metric unit tests, checks
that the metric names and units the command prints are exactly those
BENCHMARK.json declares, and that a failed correctness check fails the
command. Takes about a minute on a 4-core machine.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's own build step)

#: The quickest workload, for the tests that need only one.
QUICK = "tatp-uniform"


class PerfbenchCommand(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build("all")
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def bench(self, *args):
        """Run the benchmark binary; returns (exit code, result or None)."""
        p = subprocess.run(
            [os.path.join(self.out, "hades_perfbench"), *args],
            capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
        lines = p.stdout.strip().splitlines()
        return p.returncode, json.loads(lines[-1]) if lines else None

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)

    def test_metric_unit_tests_pass(self):
        subprocess.run([os.path.join(self.out, "perfbench_test")],
                       check=True, capture_output=True)

    def test_timed_pass_prints_the_end_to_end_metrics(self):
        for w in self.spec["workloads"]:
            code, result = self.bench("--workload", w["name"],
                                      "--seconds", "1")
            self.assertEqual(code, 0, w["name"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.check_metrics(result, self.spec["end_to_end"])
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, name)

    def test_layer_pass_prints_the_per_layer_metrics(self):
        code, result = self.bench("--workload", QUICK, "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.check_metrics(result, self.spec["per_layer"])

    def test_failed_check_fails_the_command(self):
        for trace in ("0", "1"):
            code, result = self.bench("--workload", QUICK, "--seconds",
                                      "1", "--trace", trace,
                                      "--break-check")
            self.assertNotEqual(code, 0)
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], result["attempted"])

    def test_unknown_workload_is_refused_without_a_result(self):
        code, result = self.bench("--workload", "no-such-workload")
        self.assertEqual(code, 2)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
