#!/usr/bin/env python3
"""The benchmark's own tests, at reduced input size.

    python3 perfbench/test_perfbench.py

For every workload: the untraced and the traced run print every metric
BENCHMARK.json names, with its unit, and no output fails its check; with
a deliberately wrong reference every checker fires.  Finally the
benchmark must refuse to run, without printing a result, from a
directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--seed", "7", "--seconds", "0.2", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfBenchTest(unittest.TestCase):
    def check_metrics(self, res, key):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        self.assertEqual(set(res["metrics"]), set(want))
        for name, unit in want.items():
            self.assertEqual(res["metrics"][name]["unit"], unit, name)
            self.assertIsInstance(res["metrics"][name]["value"],
                                  (int, float), name)

    def test_every_metric_and_no_errors(self):
        for wl in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=wl, trace=trace):
                    res = result(bench("--workload", wl, "--trace",
                                       str(trace), "--small"))
                    self.check_metrics(res, key)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)  # error_rate 0
                    self.assertTrue(res["correct"])
                    if trace == 0:
                        for name, m in res["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_wrong_reference_fires_every_checker(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                res = result(bench("--workload", wl, "--trace", "0",
                                   "--small", "--wrong-reference"))
                self.assertGreater(res["failed"], 0)
                self.assertFalse(res["correct"])

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "apps",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
