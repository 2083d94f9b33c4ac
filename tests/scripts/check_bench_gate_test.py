#!/usr/bin/env python3
"""Verdicts of scripts/check_bench_regression.py on small gate files.

Each case writes a gate file and bench results to a temporary directory
and runs the script on them: it must exit 0 when every check holds, and
exit 1 naming the path when a check fails. The committed
bench/gate.json must load with no problem.

    python3 tests/scripts/check_bench_gate_test.py
"""

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SCRIPT = os.path.join(ROOT, "scripts", "check_bench_regression.py")

RESULTS = {
    "bench_x": {"suite": "bench_x", "metrics": [
        {"name": "a", "metric": "ok", "value": 1.0, "unit": "bool"},
        {"name": "a", "metric": "rss", "value": 10.0, "unit": "MB"},
    ]},
}


class GateVerdicts(unittest.TestCase):
    def run_gate(self, checks, results=RESULTS):
        with tempfile.TemporaryDirectory() as tmp:
            gate = os.path.join(tmp, "gate.json")
            with open(gate, "w") as f:
                json.dump({"checks": checks}, f)
            for suite, body in results.items():
                with open(os.path.join(tmp, suite + ".json"), "w") as f:
                    json.dump(body, f)
            done = subprocess.run(
                [sys.executable, SCRIPT, "--gate", gate, "--current", tmp],
                capture_output=True, text=True)
        return done.returncode, done.stdout + done.stderr

    def assert_fails_naming(self, checks, path):
        code, out = self.run_gate(checks)
        self.assertEqual(code, 1, out)
        self.assertIn("FAILED", out)
        self.assertIn(path, out.split("FAILED", 1)[1])

    def test_every_check_holds(self):
        code, out = self.run_gate([
            {"path": "bench_x.a.ok", "exact_min": 1.0, "why": "identity"},
            {"path": "bench_x.a.rss", "max_abs": 16.0},
        ])
        self.assertEqual(code, 0, out)
        self.assertIn("passed (2 check(s)", out)

    def test_exact_min_miss(self):
        self.assert_fails_naming(
            [{"path": "bench_x.a.rss", "exact_min": 11.0}], "bench_x.a.rss")

    def test_max_abs_miss(self):
        self.assert_fails_naming(
            [{"path": "bench_x.a.rss", "max_abs": 9.5}], "bench_x.a.rss")

    def test_missing_suite_file(self):
        self.assert_fails_naming(
            [{"path": "bench_y.a.ok", "exact_min": 1.0}], "bench_y.a.ok")

    def test_missing_metric(self):
        self.assert_fails_naming(
            [{"path": "bench_x.a.gone", "exact_min": 1.0}], "bench_x.a.gone")

    def test_misspelled_bound(self):
        # A bound the script does not know must not leave the check
        # silently empty, whatever the metric reads.
        zero = {"bench_x": {"metrics": [
            {"name": "a", "metric": "ok", "value": 0.0}]}}
        code, out = self.run_gate(
            [{"path": "bench_x.a.ok", "exact-min": 1.0}], zero)
        self.assertEqual(code, 1, out)
        self.assertIn("bench_x.a.ok: unknown key(s) exact-min", out)
        code, out = self.run_gate([{"path": "bench_x.a.ok"}], zero)
        self.assertEqual(code, 1, out)
        self.assertIn("bench_x.a.ok: no bound", out)

    def test_committed_gate_loads(self):
        spec = importlib.util.spec_from_file_location("gate", SCRIPT)
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        checks, problems = gate.load_checks(
            os.path.join(ROOT, "bench", "gate.json"))
        self.assertEqual(problems, [])
        self.assertEqual(len(checks), 16)


if __name__ == "__main__":
    unittest.main()
