#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs a shortened version of every workload twice on one seed, plus one
traced run each, and checks that:
  - the simulated-output hash repeats exactly, and matches between the
    untraced and traced runs;
  - every printed metric name matches [A-Za-z0-9_.-]+ and is declared in
    BENCHMARK.json, and each run prints exactly its declared set;
  - the traced run writes a Chrome trace-event file;
  - the statistics helpers match hand-computed values.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SEED = 3


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "0.1", "--trace",
         str(trace), "--quick"],
        cwd=REPO, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    hashes = [ln.split()[-1] for ln in lines
              if ln.strip().startswith("simulated hash")]
    return json.loads(lines[-1]), hashes[0]


class StatisticsHelpers(unittest.TestCase):
    def test_median(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(run.median([7.5]), 7.5)

    def test_percentile(self):
        # Linear interpolation between closest ranks.
        self.assertAlmostEqual(run.percentile([1, 2, 3, 4, 5], 90), 4.6)
        self.assertAlmostEqual(run.percentile([10, 20], 50), 15.0)
        self.assertAlmostEqual(run.percentile([5, 1, 3], 0), 1.0)
        self.assertAlmostEqual(run.percentile([5, 1, 3], 100), 5.0)


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.e2e = {m["name"] for m in cls.spec["end_to_end"]}
        cls.layer = {m["name"] for m in cls.spec["per_layer"]}

    def check_result(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), declared)
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(metric), {"value", "unit"})

    def test_each_workload(self):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"]):
                first, h1 = bench(w["name"], 0)
                second, h2 = bench(w["name"], 0)
                traced, h3 = bench(w["name"], 1)
                self.check_result(first, self.e2e)
                self.check_result(second, self.e2e)
                self.check_result(traced, self.layer)
                self.assertEqual(h1, h2)
                self.assertEqual(h1, h3)
                for name in ("fr.sim_latency_p99_cycles",
                             "vc.sim_latency_p99_cycles"):
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name])
                trace_file = os.path.join(
                    run.build_dir(), "traces",
                    "%s-seed%d.json" % (w["name"], SEED))
                with open(trace_file) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                self.assertTrue(all(e["ph"] == "X" for e in events))


if __name__ == "__main__":
    unittest.main()
