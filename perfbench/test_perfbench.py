#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds perfbench through run.py's build step, then checks:
  * perfbench --self-test: the digest changes when one measurement changes,
    the traced forwarding layers and the benchmark's campaign builder give
    the same digests as exp::run_repetition, and the paper-invariant checks
    reject violations;
  * every metric the program prints has the name and unit BENCHMARK.json
    gives it, both in the program's table and in a real (short) run;
  * BENCHMARK.json stays within the benchmark contract's limits.
"""

import json
import os
import re
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_self_test(self):
        done = subprocess.run([run.BINARY, "--self-test"], cwd=ROOT)
        self.assertEqual(done.returncode, 0)

    def test_metric_table_matches_benchmark_json(self):
        out = subprocess.run([run.BINARY, "--list-metrics"], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, check=True)
        table = json.loads(out.stdout)
        s = spec()
        for section in ("end_to_end", "per_layer"):
            self.assertEqual([tuple(row) for row in table[section]],
                             [(m["name"], m["unit"]) for m in s[section]])

    def test_short_runs_print_every_metric(self):
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", "paper_sweep", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            run.validate(result, trace == 1)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_benchmark_json_limits(self):
        s = spec()
        self.assertEqual(set(s), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        self.assertTrue(2 <= len(s["workloads"]) <= 8)
        self.assertTrue(1 <= s["run_seconds"] <= 60)
        names = [w["name"] for w in s["workloads"]]
        names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, name)
        for w in s["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in s["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in s["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], unit)
            self.assertIn(m["better"], ("higher", "lower"))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
