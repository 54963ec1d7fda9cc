"""Self-tests of the benchmark itself (not of the package it measures).

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py -q

Each test but the calibration one drives ``perfbench/run.py --quick`` in a
child process, so the benchmark is exercised exactly as it is invoked for real.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: A quick run of any workload must finish well inside this many seconds.
QUICK_LIMIT_S = 60.0


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as stream:
        return json.load(stream)


def quick_run(workload: str, trace: int, *extra: str) -> tuple[int, dict | None, float]:
    """Run the benchmark in quick mode; returns (exit code, last-line JSON, wall seconds)."""
    with tempfile.TemporaryDirectory() as out:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
             "--seconds", "0.5", "--trace", str(trace), "--quick", "--out", out, *extra],
            capture_output=True, text=True, timeout=QUICK_LIMIT_S * 2, cwd=ROOT,
        )
        wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, wall


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed(self) -> None:
        spec = declared()
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_printed_names_equal_declared_names(self) -> None:
        spec = declared()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for workload in (w["name"] for w in spec["workloads"]):
                with self.subTest(workload=workload, trace=trace):
                    code, result, wall = quick_run(workload, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    self.assertLess(wall, QUICK_LIMIT_S)


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_reference_fails_the_run(self) -> None:
        for workload in ("dftno-dense", "campaign-mixed"):
            with self.subTest(workload=workload):
                code, result, _ = quick_run(workload, 0, "--corrupt-reference")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])


class Calibration(unittest.TestCase):
    def test_samples_are_left_out_of_the_wall(self) -> None:
        sys.path.insert(0, str(ROOT))
        from perfbench.calibrate import Calibration

        with Calibration(interval=0.05) as calibration:
            started = time.perf_counter()
            while time.perf_counter() - started < 0.5:
                pass
            ended = time.perf_counter()
        self.assertGreaterEqual(len(calibration.samples), 3)
        inside = sum(s for s, at in zip(calibration.samples, calibration.starts)
                     if started <= at < ended)
        self.assertGreater(inside, 0.0)
        self.assertAlmostEqual(calibration.wall(started, ended), ended - started - inside)
        self.assertGreater(calibration.factor(), 0.0)


class StandAlone(unittest.TestCase):
    def test_fails_without_the_package_under_test(self) -> None:
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dftno-dense",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, timeout=QUICK_LIMIT_S, cwd=bare,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
