"""Smoke tests of the benchmark itself, on tiny configs.

Run from the root of the repository::

    python3 perfbench/smoke.py

They check that the printed metric names match ``BENCHMARK.json``, that
the exact work counters of the traced pass repeat across two runs, and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")


def _bench(workload: str, trace: int, cwd: str = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSmoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") \
                as fh:
            cls.spec = json.load(fh)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def _units(self, key: str) -> dict:
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_end_to_end_names_and_checks(self):
        units = self._units("end_to_end")
        for workload in self.workloads:
            with self.subTest(workload=workload):
                res = _result(_bench(workload, 0))
                self.assertEqual(set(res), {"correct", "attempted",
                                            "failed", "metrics"})
                self.assertTrue(res["correct"], res)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in res["metrics"].items()}, units)
                for name, metric in res["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_counts_repeat(self):
        units = self._units("per_layer")
        counted = [name for name, unit in units.items() if unit == "count"]
        for workload in self.workloads:
            with self.subTest(workload=workload):
                first = _result(_bench(workload, 1))
                second = _result(_bench(workload, 1))
                self.assertTrue(first["correct"], first)
                self.assertEqual(
                    {k: v["unit"] for k, v in first["metrics"].items()},
                    units)
                for name in counted + ["gap_rel"]:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                self.assertGreater(
                    first["metrics"]["conic.iterations"]["value"], 0)
                self.assertGreater(
                    first["metrics"]["atoms.gram.pairs"]["value"], 0)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = _bench(self.workloads[0], 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
