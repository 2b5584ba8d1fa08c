"""End-to-end checks of the benchmark command.

    python3 -m unittest discover -s vsbench/tests -v

Builds the benchmark with its unit tests (into $CARGO_TARGET_DIR, default
.bench_build), runs them, then runs every workload briefly, untraced and
traced, and checks that the metric names the command prints are exactly
the ones BENCHMARK.json declares, with the same units.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)$")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class UnitTests(unittest.TestCase):
    def test_unit_tests_pass(self):
        for cmd in (["cmake", "-S", os.path.join(ROOT, "vsbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", "-DVSBENCH_TESTS=ON"],
                    ["cmake", "--build", BUILD, "-j", "4", "--target",
                     "vsbench_test"]):
            subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        result = subprocess.run([os.path.join(BUILD, "vsbench_test")], cwd=ROOT)
        self.assertEqual(result.returncode, 0)


class MetricNames(unittest.TestCase):
    def run_workload(self, workload, trace):
        result = subprocess.run(
            [sys.executable, os.path.join(ROOT, "vsbench", "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        lines = result.stdout.strip().splitlines()
        return lines, json.loads(lines[-1])

    def test_printed_names_match_benchmark_json(self):
        spec = bench_spec()
        declared = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = self.run_workload(workload, trace)
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    reported = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(reported, declared[trace])
                    printed = {m.group(1): m.group(3)
                               for m in map(METRIC_LINE.match, lines) if m}
                    self.assertEqual(printed, declared[trace])


if __name__ == "__main__":
    unittest.main()
