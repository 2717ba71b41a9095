"""Tests of the benchmark itself: python3 -m unittest discover -s perfbench

The hull_oracle cross-check takes about half a minute; the rest is quick.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
SCRATCH = ROOT / ".perfbench_work"

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Runner, draw, judge  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_items(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = draw(workload, 7, ROOT)[0]
                self.assertEqual(first, draw(workload, 7, ROOT)[0])
                self.assertNotEqual(first, draw(workload, 8, ROOT)[0])

    def test_sizes_and_recorded_pool(self):
        minimum = {"search": 200, "hull": 20000, "check": 200, "axioms": 200}
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                items, expected = draw(workload, 3, ROOT)
                self.assertGreaterEqual(len(items), minimum[workload])
                self.assertEqual(len({it.key for it in items}), len(items))
                self.assertTrue(all(it.key in expected for it in items))

    def test_hull_sets_are_distinct(self):
        items = draw("hull", 5, ROOT)[0]
        self.assertEqual(len({(it.alphabet, it.words) for it in items}), len(items))


class MetricNameTest(unittest.TestCase):
    def test_names_and_units(self):
        for name, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
            self.assertRegex(unit, r"[A-Za-z0-9_/%.-]{1,16}")

    def test_benchmark_json_lists_the_emitted_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class GateTest(unittest.TestCase):
    def _run_some(self, workload: str, keys: list[str]):
        items, expected = draw(workload, 1, ROOT)
        items = [it for it in items if it.key in keys]
        SCRATCH.mkdir(exist_ok=True)
        tmp = tempfile.TemporaryDirectory(dir=SCRATCH)
        self.addCleanup(tmp.cleanup)
        runner = Runner(Path(tmp.name))
        runner.prepare(items)
        raws = []
        for it in items:
            try:
                raws.append(runner.run(it))
            except Exception as exc:
                raws.append(f"traceback:{type(exc).__name__}")
        return runner, items, raws, expected

    def test_corrupted_digest_is_failed(self):
        keys = ["fixed/xyz_zyx_table", "error/product_guard"]
        runner, items, raws, expected = self._run_some("search", keys)
        self.assertEqual(judge(runner, items, raws, expected, True), (0, []))
        outcome, dig, cost = expected["fixed/xyz_zyx_table"]
        expected["fixed/xyz_zyx_table"] = (outcome, "0" * len(dig), cost)
        failed, errors = judge(runner, items, raws, expected, True)
        self.assertEqual(failed, 1)
        self.assertTrue(errors and errors[0].startswith("fixed/xyz_zyx_table"))

    def test_known_defect_fails_without_mismatch(self):
        runner, items, raws, expected = self._run_some("check", ["error/max_len_minus"])
        failed, errors = judge(runner, items, raws, expected, True)
        self.assertEqual(failed, 1 if raws[0] == items[0].known_defect else 0)
        self.assertEqual(errors, [])

    def test_wrong_hull_basis_breaks_invariants(self):
        runner, items, raws, _ = self._run_some("hull", ["binary/100"])
        verdict, free, hulls, facts = raws[0]
        wq = runner.wq
        bogus = wq.Basis(tuple(w for w in free.words[:-1]))
        self.assertNotEqual(runner.semantic_errors(items[0], (verdict, bogus, hulls, facts)), [])


class OracleTest(unittest.TestCase):
    def test_binary_hulls_match_hull_oracle(self):
        """All 4525 binary sets: free hull equals hull_oracle, and the recording agrees."""
        from wordeq import hull_oracle

        items, expected = draw("hull", 1, ROOT)
        items = [it for it in items if it.alphabet == "ab"]
        self.assertEqual(len(items), 4525)
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            runner = Runner(Path(tmp))
            runner.prepare(items)
            for it in items:
                raw = runner.run(it)
                ws = runner.hull_inputs[it.key]
                self.assertEqual(raw[1], hull_oracle(ws), it.key)
                self.assertEqual(runner.finish(it, raw), expected[it.key][:2], it.key)


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        SCRATCH.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "search", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
