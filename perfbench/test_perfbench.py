#!/usr/bin/env python3
"""The benchmark's own tests: seeded inputs, metric names, and a smoke run.

    python3 perfbench/test_perfbench.py

Builds the perfbench binary through run.py first (the first build takes
about a minute).
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()


def describe(workload, seed):
    out = subprocess.run([BINARY, "--workload", workload, "--seed", str(seed),
                          "--seconds", "12", "--describe", "1"],
                         cwd=run.ROOT, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


def smoke(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                           "--workload", workload, "--seed", "7",
                           "--seconds", "0.3", "--trace", str(trace), "--smoke"],
                          cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout.strip().splitlines()


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            self.assertEqual(describe(workload, 3), describe(workload, 3),
                             workload)

    def test_different_seed_different_stream(self):
        for workload in run.WORKLOADS:
            self.assertNotEqual(describe(workload, 3), describe(workload, 4),
                                workload)
        a = describe("train_spill", 3)["plan_fingerprints"]
        b = describe("train_spill", 4)["plan_fingerprints"]
        same_position = sum(x == y for x, y in zip(a, b))
        self.assertLess(same_position, len(a) // 20)

    def test_a_third_of_the_stream_repeats(self):
        fingerprints = describe("train_spill", 5)["plan_fingerprints"]
        self.assertNotIn("invalid", fingerprints)
        repeated = 1 - len(set(fingerprints)) / len(fingerprints)
        self.assertAlmostEqual(repeated, 1 / 3, delta=0.01)

    def test_train_config_is_the_issue_shape(self):
        longctx = describe("train_longctx", 1)
        self.assertEqual((longctx["layers"], longctx["hidden"], longctx["heads"],
                          longctx["ffn"], longctx["seq"], longctx["alpha"]),
                         (4, 128, 8, 512, 1024, 0.5))
        spill = describe("train_spill", 1)
        self.assertEqual((spill["layers"], spill["hidden"], spill["seq"],
                          spill["alpha"], spill["ram_cap_bytes"]),
                         (8, 64, 256, 0.75, 1 << 20))
        self.assertEqual(spill["disk_bytes_per_s"], 0.25e9)


class Declaration(unittest.TestCase):
    def test_metric_names_and_bounds(self):
        s = spec()
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in s["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in s["end_to_end"]))
        self.assertEqual([w["name"] for w in s["workloads"]],
                         list(run.WORKLOADS))


class Smoke(unittest.TestCase):
    def test_every_workload_runs_end_to_end(self):
        s = spec()
        for trace, declared in ((0, s["end_to_end"]), (1, s["per_layer"])):
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, lines = smoke(workload, trace)
                    self.assertEqual(code, 0, lines)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        [(n, m["unit"]) for n, m in result["metrics"].items()],
                        [(m["name"], m["unit"]) for m in declared])
                    host = json.loads(lines[-2])["host"]
                    self.assertEqual(set(host), {"cpu", "nproc", "simd",
                                                 "pool_lanes", "commit"})


if __name__ == "__main__":
    unittest.main()
