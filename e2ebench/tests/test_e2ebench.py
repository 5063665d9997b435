#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself. Run from the repository root:

    python3 e2ebench/tests/test_e2ebench.py

They build the benchmark like run.py does, then check that the workload and
metric names it prints match BENCHMARK.json, and that a deliberately broken
output (a perturbed adjoint gradient, a dropped results row) is reported as
a failed operation. Each benchmark run here is one short round of
campaign_mix (about ten seconds).
"""

import json
import os
import subprocess
import sys
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(TESTS_DIR)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402  (the benchmark's driver module)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

# Operations in one campaign_mix round: setup, run, fdfd_residual,
# adjoint_gradient, metrics_in_unit_range, monte_carlo_stats,
# committed_once_with_row, bit_identical_to_one_thread.
CAMPAIGN_MIX_OPS_PER_ROUND = 8


def bench(*extra, trace="0"):
    """One short campaign_mix run; returns (result, stderr)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "campaign_mix",
         "--seed", "5", "--seconds", "1", "--trace", trace, *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py failed:\n" + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


class catalogue(unittest.TestCase):
    def test_list_matches_benchmark_json(self):
        run.build(run.clean_env())
        listed = json.loads(subprocess.check_output(
            [os.path.join(run.BUILD_DIR, "e2e_bench"), "list"], text=True))
        self.assertEqual(listed["workloads"], [w["name"] for w in BENCHMARK["workloads"]])
        self.assertEqual(list(run.WORKLOADS), listed["workloads"])
        for key in ("end_to_end", "per_layer"):
            self.assertEqual([(m["name"], m["unit"]) for m in listed[key]],
                             [(m["name"], m["unit"]) for m in BENCHMARK[key]], key)


class runs(unittest.TestCase):
    def rounds(self, result):
        self.assertEqual(result["attempted"] % CAMPAIGN_MIX_OPS_PER_ROUND, 0)
        return result["attempted"] // CAMPAIGN_MIX_OPS_PER_ROUND

    def test_clean_run_fails_only_the_determinism_operation(self):
        result, err = bench()
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCHMARK["end_to_end"]))
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(result["metrics"][m["name"]]["value"], 0.0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], self.rounds(result))
        self.assertIn("operation 'bit_identical_to_one_thread' failed (known fault)", err)

    def test_dropped_results_row_is_a_failed_operation(self):
        result, err = bench("--inject", "drop_row")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2 * self.rounds(result))
        self.assertIn("operation 'committed_once_with_row' failed", err)

    def test_perturbed_gradient_is_a_failed_operation_in_a_traced_run(self):
        result, err = bench("--inject", "gradient", trace="1")
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCHMARK["per_layer"]))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2 * self.rounds(result))
        self.assertIn("operation 'adjoint_gradient' failed", err)


if __name__ == "__main__":
    unittest.main()
