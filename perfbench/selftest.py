"""Tests of the benchmark itself.

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

They run the benchmark at the small preset, so they take about half a
minute.  The file is not named ``test_*.py`` on purpose: the repository's
own test suite does not collect it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402


def run_bench(*args: str, cwd: Path = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


class SmokeTest(unittest.TestCase):
    """Every workload prints every declared metric, with its unit."""

    def test_every_metric_on_every_workload(self):
        declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in declared["workloads"]], list(bench.WORKLOADS))
        for trace, section, table in ((0, "end_to_end", bench.END_TO_END),
                                      (1, "per_layer", bench.PER_LAYER)):
            units = {m["name"]: m["unit"] for m in declared[section]}
            self.assertEqual(units, table)
            for workload in bench.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                                     "--trace", str(trace), "--small")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()}, units
                    )

    def test_refuses_to_run_without_the_program(self):
        bench.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.WORK) as empty:
            shutil.copy(bench.ROOT / "BENCHMARK.json", empty)
            shutil.copytree(bench.HERE, Path(empty) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("--workload", "paper_cold", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=Path(empty))
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


class OutputCheckTest(unittest.TestCase):
    """A doctored output trips the output check."""

    @classmethod
    def setUpClass(cls):
        bench.WORK.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(dir=bench.WORK))
        grid = cls.workdir / "grid.json"
        grid.write_text(json.dumps({
            "schema_version": 1,
            "base": {"scale": "small"},
            "axes": [{"field": "dataset.topology.seed", "values": [7]},
                     {"field": "dataset.seed", "values": [7]},
                     {"field": "top", "values": [3]}],
        }), encoding="utf-8")
        h = bench.Harness(cls.workdir, "small", bench.OutputBook(None), deadline=1e12)
        cls.reports = {}
        for args in (["section3", "--small", "--seed", "7"],
                     ["figure2", "--small", "--seed", "7", "--top", "3"],
                     ["sweep", "--grid", str(grid), "--executor", "serial"]):
            output = h.path(f"{args[0]}.json")
            op = bench.Op([*args, "--json", str(output)], output)
            h.warm_up(op)
            cls.reports[args[0]] = (op.args, json.loads(output.read_text(encoding="utf-8")))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir)

    def check_all(self, book, *commands):
        for command in commands:
            args, payload = self.reports[command]
            for key, value in bench.report_outputs("small", args, payload):
                book.check(key, value)

    def test_untouched_outputs_pass_and_sweep_cells_match_standalone_runs(self):
        self.check_all(bench.OutputBook(None), "section3", "figure2", "sweep")

    def test_doctored_section3_is_caught(self):
        book = bench.OutputBook(None)
        self.check_all(book, "section3")
        args, payload = self.reports["section3"]
        doctored = copy.deepcopy(payload)
        doctored["section3"]["hybrid_links"] += 1
        with self.assertRaises(bench.OutputMismatch):
            for key, value in bench.report_outputs("small", args, doctored):
                book.check(key, value)

    def test_doctored_sweep_cell_is_caught_against_the_standalone_run(self):
        book = bench.OutputBook(None)
        self.check_all(book, "figure2")
        args, payload = self.reports["sweep"]
        doctored = copy.deepcopy(payload)
        cell = next(iter(doctored["scenarios"].values()))
        cell["correction"]["averages"][-1] += 0.5
        with self.assertRaises(bench.OutputMismatch):
            for key, value in bench.report_outputs("small", args, doctored):
                book.check(key, value)

    def test_doctored_output_is_caught_in_a_later_run(self):
        ledger = self.workdir / "ledger.json"
        first = bench.OutputBook(ledger)
        self.check_all(first, "section3")
        first.save()
        args, payload = self.reports["section3"]
        doctored = copy.deepcopy(payload)
        doctored["section3"]["ipv6_paths"] -= 1
        with self.assertRaises(bench.OutputMismatch):
            for key, value in bench.report_outputs("small", args, doctored):
                bench.OutputBook(ledger).check(key, value)

    def test_provenance_block_is_not_compared(self):
        book = bench.OutputBook(None)
        self.check_all(book, "section3")
        args, payload = self.reports["section3"]
        changed = copy.deepcopy(payload)
        changed["provenance"]["ipv4"]["backend"] = "array"
        for key, value in bench.report_outputs("small", args, changed):
            book.check(key, value)


if __name__ == "__main__":
    unittest.main()
