#!/usr/bin/env python3
"""Tests of the data-prep benchmark itself, on tiny inputs.

Run from the root of a checkout (builds the driver on first use):

    python3 -m unittest discover -s prepbench -p 'test_*.py'
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SCRATCH = os.path.join(run.build_dir(), "test")


def bench(workload, *extra, trace=0, seed=7):
    """Runs one tiny workload; returns (exit code, stdout and stderr, parsed
    result, the metric names in the driver's table)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(p.stdout.strip().split("\n")[-1])
    except (ValueError, IndexError):
        result = None
    table = set(re.findall(r"^  (\S+) ", p.stdout, re.M))
    return p.returncode, p.stdout + p.stderr, result, table


def digest(output):
    m = re.search(r"digest ([0-9a-f]{16})", output)
    return m.group(1) if m else None


class PrepBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if run.build() is None:
            raise RuntimeError("benchmark build failed")

    def test_outputs_identical_at_one_and_many_threads(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                digests = []
                for threads in ("1", "4"):
                    code, out, result, _ = bench(wl, "--threads", threads)
                    self.assertEqual(code, 0, out)
                    self.assertTrue(result["correct"], out)
                    self.assertEqual(result["failed"], 0, out)
                    digests.append(digest(out))
                self.assertIsNotNone(digests[0])
                self.assertEqual(digests[0], digests[1])

    def test_every_metric_named_in_benchmark_json_is_printed(self):
        # End-to-end metrics come from the driver on every workload; a
        # per-layer metric on at least one (a bypassed layer reads 0).
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            printed = set()
            for wl in WORKLOADS:
                with self.subTest(workload=wl, trace=trace):
                    code, out, result, table = bench(wl, trace=trace)
                    self.assertEqual(code, 0, out)
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)
                    if trace == 0:
                        self.assertLessEqual(set(want), table)
                    printed |= table
            self.assertLessEqual(set(want), printed, section)

    def test_missing_output_directory_is_created(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        out_dir = os.path.join(SCRATCH, "not", "yet", "there")
        for trace in (0, 1):
            with self.subTest(trace=trace):
                code, out, result, _ = bench("gate_scored", "--out-dir", out_dir,
                                          trace=trace)
                self.assertEqual(code, 0, out)
                self.assertTrue(result["correct"], out)
                self.assertTrue(os.path.isfile(os.path.join(out_dir, "gate_scored.oas")))
        self.assertTrue(os.path.isfile(os.path.join(out_dir, "trace_gate_scored.json")))
        with open(os.path.join(out_dir, "trace_gate_scored.json")) as f:
            spans = json.load(f)["traceEvents"]
        names = {s["name"] for s in spans}
        self.assertTrue({"job", "layout", "fracture", "pec.baseline", "pec",
                         "machine.partition", "sim.simulate", "sim.score"} <= names,
                        names)
        for s in spans:
            self.assertEqual(s["args"]["parent"] == -1, s["name"] == "job", s)

    def test_fails_without_the_program_sources(self):
        # A directory holding only BENCHMARK.json and the benchmark: the
        # build must fail and no result line may be printed.
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "prepbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        p = subprocess.run(BENCHMARK["command"] + ["--workload", WORKLOADS[0],
                                                   "--seed", "1", "--seconds", "1",
                                                   "--trace", "0"],
                           cwd=bare, env=env, capture_output=True, text=True,
                           timeout=180)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
