#!/usr/bin/env python3
"""The benchmark's own test: tiny-size smoke runs of every workload.

    python3 perfbench/test_bench.py

Checks that the untraced run prints exactly the end-to-end metrics of
BENCHMARK.json and the traced run exactly its per-layer metrics, each with
its unit; that a deliberately corrupted output trips the correctness gate;
and that perfbench/design.json covers the same workloads and metrics.
"""
import json
import math
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
with open(os.path.join(ROOT, "perfbench", "design.json")) as f:
    DESIGN = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "0.3", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = done.stdout.strip().split("\n")
    return done.returncode, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, declared, nonzero):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if nonzero:
                self.assertGreater(got["value"], 0, m["name"])

    def test_untraced_run_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0)
                self.assertEqual(code, 0)
                self.check_metrics(result, BENCHMARK["end_to_end"], True)

    def test_traced_run_emits_exactly_the_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 1)
                self.assertEqual(code, 0)
                self.check_metrics(result, BENCHMARK["per_layer"], False)
                path = os.path.join(ROOT, ".bench_out",
                                    "spans-%s-seed7.json" % workload)
                with open(path) as f:
                    spans = json.load(f)
                self.assertTrue(spans)
                for span in spans:
                    self.assertLessEqual(span["start_s"], span["end_s"])
                    if span["parent"] >= 0:
                        parent = spans[span["parent"]]
                        self.assertEqual(parent["job"], span["job"])
                        self.assertEqual(parent["layer"], "bench")

    def test_corrupted_output_trips_the_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_design_covers_the_declared_workloads_and_metrics(self):
        self.assertEqual([w["name"] for w in DESIGN["workloads"]], WORKLOADS)
        predicted = [m for p in DESIGN["predictions"] for m in p["metrics"]]
        self.assertEqual(sorted(predicted),
                         sorted(m["name"] for m in BENCHMARK["per_layer"]))
        for p in DESIGN["predictions"]:
            ends = {m["name"] for m in BENCHMARK["end_to_end"]}
            self.assertTrue(set(p["moves"]) <= ends, p["moves"])
            self.assertTrue(set(p["on"]) <= set(WORKLOADS), p["on"])


if __name__ == "__main__":
    unittest.main()
