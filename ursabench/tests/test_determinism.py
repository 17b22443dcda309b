#!/usr/bin/env python3
"""Determinism test for the benchmark program.

Two short runs of a workload with the same seed must simulate bit-identical
results: every simulated metric ("sim") and every registry count ("counts"),
whether the run is traced (one Step at a time, tracer sampling on) or not.
This is the exact oracle a pure refactor of the program must keep.

Run from the root of a checkout (builds the program first if needed):

    python3 ursabench/tests/test_determinism.py
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

SCALE = "0.1"  # a tenth of every op count: seconds per run, same code paths


def run_once(exe, workload, seed, traced):
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--scale", SCALE,
         "--trace", "1" if traced else "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d failed: %s" % (workload, seed, proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        cls.exe = run.build(BENCH_DIR, os.path.abspath(os.path.join(build_root, "ursabench")))

    def test_same_seed_simulates_the_same(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = run_once(self.exe, workload, 7, traced=False)
                b = run_once(self.exe, workload, 7, traced=False)
                t = run_once(self.exe, workload, 7, traced=True)
                self.assertTrue(a["correct"])
                self.assertEqual(a["sim"], b["sim"])
                self.assertEqual(a["counts"], b["counts"])
                self.assertEqual(a["sim"], t["sim"])
                self.assertEqual(a["counts"], t["counts"])

    def test_seed_changes_the_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = run_once(self.exe, workload, 7, traced=False)
                b = run_once(self.exe, workload, 8, traced=False)
                self.assertNotEqual(a["sim"], b["sim"])


if __name__ == "__main__":
    unittest.main()
