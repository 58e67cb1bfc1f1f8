#!/usr/bin/env python3
"""Tests of the benchmark itself (about a minute):

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The short mode of a workload is --seconds 1: every workload still sets up,
runs at least one checked round, verifies and prints every named metric.
"""
import json
import math
import os
import subprocess
import sys
import unittest
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def bench(self, *args):
        out = subprocess.run([self.binary, *args], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=300)
        self.assertEqual(out.returncode, 0, args)
        return json.loads(out.stdout.splitlines()[-1])

    def short(self, workload, trace, *extra):
        return self.bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), *extra)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(WORKLOADS), sorted(run.WORKLOADS))

    def test_bad_arguments_exit_2(self):
        good = ["--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "0"]
        bad = [
            good + ["--threads=x"],
            good + ["--bogus", "1"],
            ["--workload", "fleet", "--seed", "x1", "--seconds", "1", "--trace", "0"],
            ["--workload", "fleet", "--seed", "-1", "--seconds", "1", "--trace", "0"],
            ["--workload", "fleet", "--seed", "1", "--seconds", "0", "--trace", "0"],
            ["--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "2"],
            ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            ["--workload", "fleet", "--seed", "1", "--seconds", "1"],
        ]
        for argv in bad:
            for cmd in ([self.binary], [sys.executable, os.path.join(HERE, "run.py")]):
                out = subprocess.run(cmd + argv, capture_output=True, text=True, timeout=120)
                self.assertEqual(out.returncode, 2, (cmd, argv, out.stderr))
                self.assertEqual(out.stdout, "", (cmd, argv))

    def check_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in specs})
        for m in specs:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(metrics[m["name"]]["value"]), m["name"])
        return metrics

    def test_short_mode_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_metrics(self.short(workload, 0), BENCH["end_to_end"])
                for name, m in metrics.items():
                    self.assertGreater(m["value"], 0, name)

    def test_short_traced_mode_prints_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_metrics(self.short(workload, 1), BENCH["per_layer"])
                self.assertAlmostEqual(metrics["trace.self_sum_ratio"]["value"], 1.0, places=12)

    def test_wrong_expected_digest_fails_steps(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = self.short(workload, 0, "--fault", "digest")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_leaked_frame_fails_steps(self):
        result = self.short("ctr_churn", 0, "--fault", "leak")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_self_times_sum_to_step_wall_time(self):
        for workload in ("ctr_churn", "svc_chain"):
            with self.subTest(workload=workload):
                path = os.path.join(os.path.dirname(self.binary), f"test-spans-{workload}.json")
                self.short(workload, 1, "--spans-out", path)
                with open(path) as f:
                    spans = json.load(f)
                child_ns = defaultdict(int)
                for s in spans:
                    if s["parent"] >= 0:
                        parent = spans[s["parent"]]
                        self.assertLessEqual(parent["start_ns"], s["start_ns"])
                        self.assertLessEqual(s["end_ns"], parent["end_ns"])
                        self.assertEqual(parent["step"], s["step"])
                        child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
                self_by_step = defaultdict(int)
                wall_by_step = {}
                for s in spans:
                    self_by_step[s["step"]] += s["end_ns"] - s["start_ns"] - child_ns[s["id"]]
                    if s["parent"] < 0:
                        self.assertNotIn(s["step"], wall_by_step)
                        wall_by_step[s["step"]] = s["end_ns"] - s["start_ns"]
                self.assertGreater(len(wall_by_step), 10)
                self.assertEqual(dict(self_by_step), wall_by_step)


if __name__ == "__main__":
    unittest.main()
