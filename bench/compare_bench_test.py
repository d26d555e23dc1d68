#!/usr/bin/env python3
"""Tests compare_bench.py's counter directions on synthetic records.

Usage:
    python3 bench/compare_bench_test.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "compare_bench.py")


def op_record(counters, lower_is_better=()):
    record = {"n": 1, "us_per_op": 0.0, "counters": counters}
    if lower_is_better:
        record["lower_is_better"] = list(lower_is_better)
    return record


class CounterDirectionTest(unittest.TestCase):
    def compare(self, base_counters, run_counters, lower_is_better=()):
        """Exit status of compare_bench.py for one op under a 25% gate."""
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            with open(baseline, "w") as f:
                json.dump({"synthetic": {"ops": {
                    "restart": op_record(base_counters)}}}, f)
            run = os.path.join(tmp, "BENCH_synthetic.json")
            with open(run, "w") as f:
                json.dump({"bench": "synthetic", "fast": True, "ops": {
                    "restart": op_record(run_counters, lower_is_better)}}, f)
            return subprocess.run(
                [sys.executable, COMPARE, "--baseline", baseline,
                 "--threshold", "0.25", run],
                capture_output=True, text=True).returncode

    def test_lowered_lower_is_better_counter_passes(self):
        self.assertEqual(self.compare({"restart_passes": 7.0},
                                      {"restart_passes": 4.0},
                                      ["restart_passes"]), 0)

    def test_raised_lower_is_better_counter_fails(self):
        self.assertEqual(self.compare({"restart_passes": 4.0},
                                      {"restart_passes": 7.0},
                                      ["restart_passes"]), 1)

    def test_lowered_higher_is_better_counter_fails(self):
        self.assertEqual(self.compare({"appends_per_sec": 1000.0},
                                      {"appends_per_sec": 500.0}), 1)


if __name__ == "__main__":
    unittest.main()
