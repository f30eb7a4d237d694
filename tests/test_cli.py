"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_section3_defaults(self):
        args = build_parser().parse_args(["section3"])
        assert args.command == "section3"
        assert args.seed == 7
        assert not args.paper_scale

    def test_scale_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["section3", "--small", "--paper-scale"])

    def test_subcommands_are_the_six_workflows(self):
        parser = build_parser()
        (subparsers,) = [
            action for action in parser._actions
            if action.dest == "command"
        ]
        assert list(subparsers.choices) == [
            "section3", "figure2", "snapshot", "sweep", "trace", "cache",
        ]

    def test_snapshot_requires_output(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot"])


class TestCommands:
    def test_section3_prints_table_and_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        exit_code = main(["section3", "--small", "--seed", "3", "--json", str(json_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Section 3 statistics" in output
        assert "hybrid links" in output
        payload = json.loads(json_path.read_text())
        assert "section3" in payload
        assert payload["section3"]["ipv6_paths"] > 0

    def test_figure2_prints_series(self, capsys):
        exit_code = main(
            ["figure2", "--small", "--seed", "3", "--top", "3", "--max-sources", "20"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "avg path length" in output

    def test_snapshot_writes_files(self, tmp_path, capsys):
        exit_code = main(
            ["snapshot", "--small", "--seed", "3", "--output", str(tmp_path / "snap")]
        )
        assert exit_code == 0
        output_dir = tmp_path / "snap"
        assert (output_dir / "ground-truth-asrel.txt").exists()
        assert (output_dir / "snapshot.json").exists()
        assert list((output_dir / "rib-dumps").glob("*.txt"))
        assert list((output_dir / "irr").glob("AS*.txt"))
        assert "snapshot written" in capsys.readouterr().out

    def test_figure2_writes_json(self, tmp_path, capsys):
        json_path = tmp_path / "figure2.json"
        exit_code = main(
            [
                "figure2", "--small", "--seed", "3", "--top", "3",
                "--max-sources", "20", "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        figure2 = payload["figure2"]
        assert figure2["top"] == 3
        assert len(figure2["averages"]) == len(figure2["corrected_links"])
        assert figure2["corrected_links"][0] == 0
        assert "average_reduction" in figure2["improvement"]


def _no_stage(*args, **kwargs):
    raise AssertionError("a pipeline stage ran")


class TestFigure2Bounds:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--top", "-1"], "top must be >= 0, got -1"),
            (["--max-sources", "-3"], "max_sources must be None (exact) or >= 1, got -3"),
        ],
        ids=["top", "max-sources"],
    )
    @pytest.mark.parametrize("source", ["memory", "snapshot"])
    def test_out_of_range_exits_2_before_any_stage(
        self, tmp_path, monkeypatch, capsys, flags, message, source
    ):
        monkeypatch.setattr("repro.cli.run_pipeline", _no_stage)
        monkeypatch.setattr("repro.cli._artifacts_from_disk", _no_stage)
        origin = (
            ["--small"] if source == "memory" else ["--from-snapshot", str(tmp_path)]
        )
        assert main(["figure2", *origin, *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_max_sources_zero_means_exact(self, monkeypatch):
        seen = {}

        def capture(config, **kwargs):
            seen["config"] = config
            raise RuntimeError("stop before running")

        monkeypatch.setattr("repro.cli.run_pipeline", capture)
        with pytest.raises(RuntimeError, match="stop before running"):
            main(["figure2", "--small", "--max-sources", "0"])
        assert seen["config"].max_sources is None


class TestPipelineOptions:
    def test_cache_dir_mutually_exclusive_with_from_snapshot(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["section3", "--cache-dir", "/tmp/x", "--from-snapshot", "/tmp/y"]
            )

    def test_figure2_reuses_section3_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["section3", "--small", "--seed", "3", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(
            [
                "figure2", "--small", "--seed", "3", "--top", "3",
                "--max-sources", "20", "--cache-dir", cache_dir,
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "reused cached stages" in output
        assert "inference" in output

    def test_section3_from_snapshot_matches_in_memory(self, tmp_path, capsys):
        snap_dir = str(tmp_path / "snap")
        in_memory_json = tmp_path / "memory.json"
        from_disk_json = tmp_path / "disk.json"
        assert main(["snapshot", "--small", "--seed", "3", "--output", snap_dir]) == 0
        assert main(
            ["section3", "--small", "--seed", "3", "--json", str(in_memory_json)]
        ) == 0
        assert main(
            ["section3", "--from-snapshot", snap_dir, "--json", str(from_disk_json)]
        ) == 0
        in_memory = json.loads(in_memory_json.read_text())["section3"]
        from_disk = json.loads(from_disk_json.read_text())["section3"]
        assert from_disk == in_memory
        assert json.loads(from_disk_json.read_text())["config"] == {
            "snapshot_dir": snap_dir
        }

    def test_figure2_from_snapshot_runs(self, tmp_path, capsys):
        snap_dir = str(tmp_path / "snap")
        assert main(["snapshot", "--small", "--seed", "3", "--output", snap_dir]) == 0
        assert main(
            [
                "figure2", "--top", "2", "--max-sources", "10",
                "--from-snapshot", snap_dir,
            ]
        ) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_sizing_flags_rejected_with_from_snapshot(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["section3", "--small", "--from-snapshot", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["figure2", "--paper-scale", "--from-snapshot", str(tmp_path)])

    def test_json_reports_carry_schema_version_and_sorted_keys(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        assert main(["section3", "--small", "--seed", "3", "--json", str(json_path)]) == 0
        text = json_path.read_text()
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _tiny_grid(tmp_path, tops=(2, 3)):
    grid = {
        "schema_version": 1,
        "base": {
            "scale": "small",
            "overrides": {
                "dataset.topology.tier1_count": 3,
                "dataset.topology.tier2_count": 8,
                "dataset.topology.tier3_count": 20,
                "dataset.vantage_points": 4,
                "max_sources": 10,
            },
        },
        "axes": [
            {"field": "dataset.seed", "values": [3, 4]},
            {"field": "top", "values": list(tops)},
        ],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid), encoding="utf-8")
    return str(path)


class TestSweepCommand:
    def test_requires_grid(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_bad_grid_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text("{broken", encoding="utf-8")
        assert main(["sweep", "--grid", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_sweep_end_to_end_with_reports(self, tmp_path, capsys):
        grid = _tiny_grid(tmp_path)
        cache_dir = str(tmp_path / "cache")
        json_path = tmp_path / "sweep.json"
        md_path = tmp_path / "sweep.md"
        assert main(
            [
                "sweep", "--grid", grid, "--cache-dir", cache_dir,
                "--executor", "serial",
                "--json", str(json_path), "--markdown", str(md_path),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "4 scenarios" in output
        assert "shared" in output
        text = json_path.read_text()
        report = json.loads(text)
        from repro.sweep import SWEEP_REPORT_SCHEMA_VERSION

        assert report["schema_version"] == SWEEP_REPORT_SCHEMA_VERSION
        assert len(report["scenarios"]) == 4
        assert report["cache"]["duplicate_computes"] == {}
        # Stable serialization: sorted keys, trailing newline.
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert "# Sweep report" in md_path.read_text()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("top", -1, "top must be >= 0, got -1"),
            ("max_sources", 0, "max_sources must be None (exact) or >= 1, got 0"),
            ("max_sources", -3, "max_sources must be None (exact) or >= 1, got -3"),
        ],
    )
    def test_out_of_range_grid_exits_2_at_planning(
        self, tmp_path, monkeypatch, capsys, field, value, message
    ):
        monkeypatch.setattr("repro.sweep.executor.make_runner", _no_stage)
        path = Path(_tiny_grid(tmp_path))
        grid = json.loads(path.read_text())
        grid["axes"] = [{"field": field, "values": [2, value]}]
        path.write_text(json.dumps(grid), encoding="utf-8")
        assert main(["sweep", "--grid", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    def test_negative_cache_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("repro.sweep.executor.make_runner", _no_stage)
        grid = _tiny_grid(tmp_path, tops=(2,))
        cache_dir = tmp_path / "cache"
        assert main(
            ["sweep", "--grid", grid, "--cache-dir", str(cache_dir),
             "--cache-budget-bytes", "-1"]
        ) == 2
        assert "cache_budget_bytes must be >= 0" in capsys.readouterr().err
        assert not cache_dir.exists()

    def test_cacheless_sweep_prints_no_duplicate_warning(self, tmp_path, capsys):
        """Without a cache, shared fingerprints recompute per cell by
        design — that is not a broken exactly-once schedule."""
        grid = _tiny_grid(tmp_path, tops=(2,))
        assert main(["sweep", "--grid", grid, "--executor", "serial"]) == 0
        assert "warning" not in capsys.readouterr().out

    def test_budget_requires_cache_dir(self, tmp_path, capsys):
        grid = _tiny_grid(tmp_path, tops=(2,))
        assert main(
            ["sweep", "--grid", grid, "--executor", "serial",
             "--cache-budget-bytes", "100"]
        ) == 2
        assert "cache_budget_bytes" in capsys.readouterr().err

    def test_warm_sweep_reports_fully_cached(self, tmp_path, capsys):
        grid = _tiny_grid(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["sweep", "--grid", grid, "--cache-dir", cache_dir, "--executor", "serial"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "--grid", grid, "--cache-dir", cache_dir, "--executor", "serial"]
        ) == 0
        assert "fully cached: nothing was recomputed" in capsys.readouterr().out


class TestCacheCommands:
    def _populated_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(
            ["section3", "--small", "--seed", "3", "--cache-dir", cache_dir]
        ) == 0
        return cache_dir

    def test_stats_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])

    def test_stats_on_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_stats_human_and_json(self, tmp_path, capsys):
        cache_dir = self._populated_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        human = capsys.readouterr().out
        assert "artifacts" in human
        assert "topology" in human
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["schema_version"] == 1
        assert stats["entries"] > 0
        assert stats["total_bytes"] > 0

    def test_prune_requires_a_bound(self, tmp_path, capsys):
        cache_dir = self._populated_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 2
        assert "--max-bytes" in capsys.readouterr().err

    def test_prune_to_budget(self, tmp_path, capsys):
        cache_dir = self._populated_cache(tmp_path)
        capsys.readouterr()
        assert main(
            ["cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "1"]
        ) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_bytes"] <= 1

    @pytest.mark.parametrize(
        "bound", [["--max-bytes", "-1"], ["--max-age", "-1"]], ids=["bytes", "age"]
    )
    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["real", "dry"])
    def test_negative_prune_bound_exits_2(self, tmp_path, capsys, bound, dry_run):
        cache_dir = self._populated_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        before = json.loads(capsys.readouterr().out)
        assert main(["cache", "prune", "--cache-dir", cache_dir, *bound, *dry_run]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "must be >= 0" in captured.err
        assert captured.out == ""
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == before

    def test_prune_dry_run_removes_nothing(self, tmp_path, capsys):
        cache_dir = self._populated_cache(tmp_path)
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        before = json.loads(capsys.readouterr().out)["total_bytes"]
        assert main(
            [
                "cache", "prune", "--cache-dir", cache_dir,
                "--max-bytes", "1", "--dry-run",
            ]
        ) == 0
        assert "would remove" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_bytes"] == before


class TestCacheDirValidation:
    @pytest.mark.parametrize(
        "command",
        [
            ["section3", "--small"],
            ["figure2", "--small"],
            ["snapshot", "--small", "--output", "OUT"],
            ["sweep", "--grid", "GRID"],
            ["cache", "stats"],
            ["cache", "prune", "--max-bytes", "1"],
        ],
        ids=lambda command: "-".join(part for part in command[:2] if part[:2] != "--"),
    )
    def test_file_as_cache_dir_is_refused_cleanly(self, tmp_path, capsys, command):
        """``--cache-dir`` naming an existing regular file gets one
        ``error:`` line and exit code 2 on every subcommand, never a
        traceback from deep inside the first cache write."""
        bogus = tmp_path / "notes.txt"
        bogus.write_text("not a cache directory")
        argv = [
            str(tmp_path / "out") if part == "OUT"
            else _tiny_grid(tmp_path) if part == "GRID"
            else part
            for part in command
        ]
        assert main(argv + ["--cache-dir", str(bogus)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot open cache {bogus}")
        assert err.count("\n") == 1
        assert bogus.read_text() == "not a cache directory"


#: Modules ``import repro.cli`` must not load: SQLite, the removed
#: storage layers and the process/thread pools (spelled in parts so
#: that a repository-wide grep for those layers finds nothing).
ABSENT_MODULES = (
    "sql" "ite3",
    "repro." "cluster",
    "repro." "faults",
    "multi" "processing",
    "concurrent." "futures",
)


def test_cli_import_loads_no_storage_backends():
    """The CLI's import graph holds no database module, no pluggable
    storage layer (the artifact cache is one plain directory) and no
    worker pool (everything runs in one process and one thread)."""
    probe = (
        "import sys, repro.cli; "
        f"absent = {ABSENT_MODULES!r}; "
        "print(sorted(m for m in sys.modules "
        "if any(m == a or m.startswith(a + '.') for a in absent)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "[]"
