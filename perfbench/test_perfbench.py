#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 -m unittest perfbench/test_perfbench.py

They build gw_perfbench like run.py does and run every workload at a small
--seconds (operation counts have floors, so each run stays short):
  * the work fingerprint (operation and failure counts, WorkMeter totals,
    repair-rung counts) repeats exactly across runs with one seed, and for
    churn-poisson across 1 and 2 pool workers;
  * a run reports exactly the end-to-end (--trace 0) or per-layer
    (--trace 1) metric names BENCHMARK.json lists, with their units;
  * in a traced run the layer self times cover the timed phase's wall time
    to within 5% (the remainder is bench.other);
  * run.py exits non-zero without a result when the library sources are
    missing.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's build helper)

WORKLOADS = run.WORKLOADS
SECONDS = "0.2"


def spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def invoke(self, workload, seed=7, trace="0", workers=2):
        proc = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed),
             "--seconds", SECONDS, "--trace", trace, "--workers",
             str(workers)], capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        fingerprint = next(l for l in lines if l.startswith("fingerprint"))
        return fingerprint, json.loads(lines[-1])

    def test_fingerprint_repeats_for_a_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, a = self.invoke(workload)
                second, b = self.invoke(workload)
                self.assertEqual(first, second)
                self.assertEqual((a["attempted"], a["failed"]),
                                 (b["attempted"], b["failed"]))

    def test_churn_fingerprint_independent_of_workers(self):
        one, _ = self.invoke("churn-poisson", workers=1)
        two, _ = self.invoke("churn-poisson", workers=2)
        self.assertEqual(one, two)

    def test_metric_names_and_units_match_benchmark_json(self):
        expected = {
            "0": {m["name"]: m["unit"] for m in spec()["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec()["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace, names in expected.items():
                with self.subTest(workload=workload, trace=trace):
                    _, result = self.invoke(workload, trace=trace)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, names)

    def test_layer_self_times_cover_the_timed_phase(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = self.invoke(workload, trace="1")
                metrics = result["metrics"]
                self.assertGreaterEqual(metrics["bench.coverage"]["value"],
                                        0.95)
                self.assertLessEqual(
                    metrics["bench.other_s"]["value"],
                    0.05 * metrics["bench.wall_s"]["value"])

    def test_run_fails_without_library_sources(self):
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(HERE, os.pardir, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solve-cold",
             "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare,
            env=env, capture_output=True, text=True, check=False, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
