"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.cli import _config_from_args, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_section3_defaults(self):
        args = build_parser().parse_args(["section3"])
        assert args.command == "section3"
        # An absent --seed resolves to 7 when the config is built.
        assert args.seed is None
        assert _config_from_args(args).seed == 7
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

    def test_engine_accepts_only_event_and_array(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["section3", "--engine", "auto"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'auto'" in err
        choices = err[err.index("choose from"):]
        assert "event" in choices and "array" in choices
        assert "equi" "librium" not in choices

    def test_sweep_has_no_cache_budget_flag(self, capsys):
        """``repro cache prune`` is the one way to bound the cache."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--grid", "g.json", "--cache-budget-bytes", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cache-budget-bytes" in capsys.readouterr().err

    def test_profile_flag_and_trace_profile_are_gone(self, capsys):
        """Profiling is ``python -m cProfile``'s job, not the CLI's."""
        for argv in (
            ["section3", "--trace-dir", "D", "--profile"],
            ["trace", "profile", "--trace-dir", "D"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2


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
            ["figure2", "--small", "--seed", "3", "--top", "3"]
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
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        figure2 = payload["figure2"]
        assert figure2["top"] == 3
        assert "max_sources" not in figure2
        assert len(figure2["averages"]) == len(figure2["corrected_links"])
        assert figure2["corrected_links"][0] == 0
        assert "average_reduction" in figure2["improvement"]


def _no_stage(*args, **kwargs):
    raise AssertionError("a pipeline stage ran")


class TestFigure2Bounds:
    @pytest.mark.parametrize(
        "flags, message",
        [(["--top", "-1"], "top must be >= 0, got -1")],
        ids=["top"],
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

    def test_max_sources_is_gone(self, monkeypatch, capsys):
        """Figure 2 always measures from every source; the old sampling
        flag is an argparse error, not silently ignored."""
        monkeypatch.setattr("repro.cli.run_pipeline", _no_stage)
        with pytest.raises(SystemExit) as exit_info:
            main(["figure2", "--small", "--max-sources", "20"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --max-sources" in capsys.readouterr().err


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
                "--cache-dir", cache_dir,
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "reused cached stages" in output
        assert "inference" in output

    def test_warm_section3_json_identical_to_cold(self, tmp_path, capsys):
        """A warm ``section3`` hits its target and reads only its
        report; the provenance block comes from the config alone.  The
        report, provenance included, is byte-identical to the cold one."""
        cache_dir = str(tmp_path / "cache")
        reports = []
        for name in ("cold.json", "warm.json"):
            report = tmp_path / name
            argv = ["section3", "--small", "--seed", "3", "--cache-dir", cache_dir]
            assert main(argv + ["--json", str(report)]) == 0
            reports.append(report.read_bytes())
        assert "reused cached stages: section3\n" in capsys.readouterr().out
        assert reports[0] == reports[1]
        assert b'"provenance"' in reports[1]

    def test_warm_section3_reads_only_its_report(self, tmp_path, capsys):
        """With ``views`` and ``inference`` gone from the cache, a warm
        ``section3`` still loads one artifact and propagates nothing."""
        import shutil

        from repro.telemetry.analyze import counters_of, read_trace, spans_of

        cache_dir, trace_dir = tmp_path / "cache", tmp_path / "trace"
        argv = ["section3", "--small", "--seed", "3", "--cache-dir", str(cache_dir)]
        assert main(argv + ["--json", str(tmp_path / "cold.json")]) == 0
        for stage in ("views", "inference"):
            shutil.rmtree(cache_dir / stage)
        warm = argv + ["--trace-dir", str(trace_dir), "--json", str(tmp_path / "warm.json")]
        assert main(warm) == 0
        capsys.readouterr()
        records = read_trace(trace_dir)
        assert not [s for s in spans_of(records) if s["name"] == "propagation"]
        loads = [c for c in counters_of(records) if c["name"] == "cache.load"]
        assert [c["attrs"]["stage"] for c in loads] == ["section3"]
        assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()

    def test_trace_summary_shows_skipped_stages(self, tmp_path, capsys):
        cache_dir, trace_dir = str(tmp_path / "cache"), str(tmp_path / "trace")
        argv = ["figure2", "--small", "--seed", "3", "--top", "3", "--cache-dir", cache_dir]
        assert main(argv) == 0
        assert main(argv + ["--trace-dir", trace_dir]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", "--trace-dir", trace_dir]) == 0
        lines = capsys.readouterr().out.splitlines()
        (scenario,) = [line for line in lines if line.strip().startswith("scenario ")]
        assert "computed 0 cached 0 skipped 1" in scenario
        (correction,) = [line for line in lines if line.strip().startswith("correction ")]
        assert "computed 0 cached 1 skipped 0" in correction

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
                "figure2", "--top", "2", "--from-snapshot", snap_dir,
            ]
        ) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_sizing_flags_rejected_with_from_snapshot(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["section3", "--small", "--from-snapshot", str(tmp_path)])
        with pytest.raises(SystemExit):
            main(["figure2", "--paper-scale", "--from-snapshot", str(tmp_path)])

    @pytest.mark.parametrize(
        "flag",
        [
            pytest.param(["--seed", "3"], id="seed"),
            pytest.param(["--engine", "event"], id="engine"),
        ],
    )
    def test_seed_rejected_with_from_snapshot(self, tmp_path, capsys, flag):
        """The snapshot on disk fixes the seed and no engine runs;
        ``--seed`` and ``--engine`` are refused, not silently ignored."""
        snap_dir = str(tmp_path / "snap")
        assert main(["snapshot", "--small", "--seed", "3", "--output", snap_dir]) == 0
        capsys.readouterr()
        for command in (["section3"], ["figure2", "--top", "2"]):
            with pytest.raises(SystemExit) as exit_info:
                main(command + ["--from-snapshot", snap_dir] + flag)
            assert exit_info.value.code == 2
            assert flag[0] in capsys.readouterr().err
        # Without the flag the same snapshot runs.
        assert main(["section3", "--from-snapshot", snap_dir]) == 0

    def test_json_reports_carry_schema_version_and_sorted_keys(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        assert main(["section3", "--small", "--seed", "3", "--json", str(json_path)]) == 0
        text = json_path.read_text()
        payload = json.loads(text)
        assert payload["schema_version"] == 2
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

    def test_cacheless_sweep_prints_no_duplicate_warning(self, tmp_path, capsys):
        """Without a cache, shared fingerprints recompute per cell by
        design — that is not a broken exactly-once schedule."""
        grid = _tiny_grid(tmp_path, tops=(2,))
        assert main(["sweep", "--grid", grid, "--executor", "serial"]) == 0
        assert "warning" not in capsys.readouterr().out

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
        assert stats["schema_version"] == 2
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


class TestGarbageCollectorPolicy:
    def test_command_runs_under_the_policy_and_restores_thresholds(
        self, monkeypatch
    ):
        import gc

        import repro.cli as cli

        seen = []

        def handler(args):
            seen.append(gc.get_threshold())
            return 0

        monkeypatch.setattr(cli, "_cmd_cache_stats", handler)
        before = gc.get_threshold()
        assert before != cli.GC_THRESHOLDS
        assert cli.main(["cache", "stats", "--cache-dir", "unused"]) == 0
        assert seen == [cli.GC_THRESHOLDS]
        assert gc.get_threshold() == before

    def test_thresholds_restored_when_parsing_fails(self):
        import gc

        before = gc.get_threshold()
        with pytest.raises(SystemExit):
            main(["section3", "--small", "--paper-scale"])
        assert gc.get_threshold() == before


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
#: that a repository-wide grep for those layers finds nothing),
#: networkx, which only test oracles import (nothing under ``src/``
#: does).
ABSENT_MODULES = (
    "sql" "ite3",
    "repro." "cluster",
    "repro." "faults",
    "multi" "processing",
    "concurrent." "futures",
    "networkx",
    "cProfile",
    "pstats",
    "tracemalloc",
)


#: Compute-side modules a warm ``figure2`` never runs: propagation
#: (engines, backends, speakers), the collectors, the hand-built
#: scenarios, snapshot I/O, path extraction and the trace analysis.
#: ``import repro.cli`` must not load them either.
COMPUTE_MODULES = (
    "repro.bgp.backends.arraycore",
    "repro.bgp.propagation",
    "repro.bgp.router",
    "repro.bgp.engine",
    "repro.collectors",
    "repro.datasets.scenarios",
    "repro.datasets.snapshot_io",
    "repro.analysis.paths",
    "repro.telemetry.analyze",
)


def _loaded(code, modules):
    """Run ``code`` in a fresh interpreter; return its stdout and which
    of ``modules`` (or their submodules) it loaded."""
    probe = (
        "import sys\n"
        f"{code}\n"
        f"absent = {tuple(modules)!r}\n"
        "print(sorted(m for m in sys.modules "
        "if any(m == a or m.startswith(a + '.') for a in absent)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    *output, loaded = result.stdout.strip().splitlines()
    return "\n".join(output), loaded


def test_cli_import_loads_no_storage_backends():
    """The CLI's import graph holds no database module, no pluggable
    storage layer (the artifact cache is one plain directory), no
    worker pool (everything runs in one process and one thread) and no
    profiler (profiling is ``python -m cProfile``'s job)."""
    assert _loaded("import repro.cli", ABSENT_MODULES)[1] == "[]"


def test_cli_import_loads_no_uuid_or_platform():
    """Span ids come from ``os.urandom``: ``uuid``, and ``platform``
    through it, cost every command's start a few milliseconds."""
    assert _loaded("import repro.cli", ("uuid", "platform"))[1] == "[]"


#: ``hashlib`` maps OpenSSL's libcrypto into the process (3.7 MB of
#: RSS); the artifact cache hashes with the interpreter's built-in
#: SHA-256 instead.
OPENSSL_MODULES = ("hashlib", "_hashlib")


def test_cli_import_loads_no_openssl():
    assert _loaded("import repro.cli", OPENSSL_MODULES)[1] == "[]"


@pytest.mark.parametrize(
    "argv",
    [["section3", "--small"], ["figure2", "--small", "--top", "3"]],
    ids=["cold_section3", "warm_figure2"],
)
def test_commands_load_no_openssl(tmp_path, capsys, argv):
    """A cold ``section3`` hashes every artifact it stores and a warm
    ``figure2`` every artifact it loads, without ``hashlib``."""
    cache = str(tmp_path / "cache")
    if argv[0] == "figure2":
        assert main(["section3", "--small", "--cache-dir", cache]) == 0
        capsys.readouterr()
    output, loaded = _loaded(
        f"from repro.cli import main\nassert main({[*argv, '--cache-dir', cache]!r}) == 0",
        OPENSSL_MODULES,
    )
    if argv[0] == "figure2":
        assert "[pipeline] reused cached stages: inference, views" in output
    else:
        assert "reused" not in output
    assert loaded == "[]"


def test_cli_import_loads_no_compute_modules():
    """Package roots re-export nothing heavy and the CLI imports the
    compute side inside the handlers that run it."""
    assert _loaded("import repro.cli", COMPUTE_MODULES)[1] == "[]"


def test_warm_figure2_loads_no_compute_modules(tmp_path, capsys):
    """A warm ``figure2`` unpickles ``inference`` and ``views`` and runs
    the correction sweep: no propagation, collector or extraction
    module is imported, by the stages or by the unpickling."""
    cache = str(tmp_path / "cache")
    assert main(["section3", "--small", "--cache-dir", cache]) == 0
    capsys.readouterr()
    argv = ["figure2", "--small", "--top", "3", "--cache-dir", cache]
    output, loaded = _loaded(
        f"from repro.cli import main\nassert main({argv!r}) == 0", COMPUTE_MODULES
    )
    assert "[pipeline] reused cached stages: inference, views" in output
    assert loaded == "[]"


#: The snapshot builders.  A warm command names its configuration
#: (``repro.datasets.config``, ``repro.topology.config``) but builds
#: nothing, so it loads none of them.
BUILDER_MODULES = (
    "repro.datasets.synthetic",
    "repro.topology.generator",
    "repro.topology.graph",
    "repro.topology.tiers",
)


@pytest.mark.parametrize(
    "command, reused",
    [(["section3"], "section3"), (["figure2", "--top", "3"], "inference, views")],
)
def test_warm_commands_load_no_snapshot_builder(tmp_path, capsys, command, reused):
    """A warm ``section3`` or ``figure2`` loads no snapshot builder, and
    no compute module either: ``section3``'s provenance block comes from
    ``repro.bgp.backends``, not from the engine module."""
    cache = str(tmp_path / "cache")
    assert main(["section3", "--small", "--cache-dir", cache]) == 0
    capsys.readouterr()
    argv = [command[0], "--small", *command[1:], "--cache-dir", cache]
    output, loaded = _loaded(
        f"from repro.cli import main\nassert main({argv!r}) == 0",
        BUILDER_MODULES + COMPUTE_MODULES,
    )
    assert f"[pipeline] reused cached stages: {reused}" in output
    assert loaded == "[]"


def _python(*args):
    """Run ``python ARGS`` with stdout block-buffered, as piped stdout is
    unless ``PYTHONUNBUFFERED`` says otherwise."""
    env = {
        **{name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"},
        "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
    }
    return subprocess.run(
        [sys.executable, *map(str, args)], capture_output=True, text=True, env=env
    )


def test_python_m_repro_exits_once_outputs_are_durable(tmp_path, capsys):
    """``python -m repro`` ends with ``os._exit`` after ``main`` returns.
    Piped stdout still arrives complete, the report and the trace parse,
    the next run hits every artifact this one stored, and the exit codes
    keep their meaning."""
    from repro.telemetry.analyze import build_tree, read_trace, summarize

    cache, report = tmp_path / "cache", tmp_path / "figure2.json"
    argv = ["figure2", "--small", "--top", "3", "--cache-dir", cache]
    cold = _python("-m", "repro", *argv, "--json", report, "--trace-dir", tmp_path / "cold")
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.endswith(f"wrote JSON report to {report}\n")
    assert json.loads(report.read_text())["figure2"]["top"] == 3
    (root,), orphans = build_tree(read_trace(tmp_path / "cold"))
    assert orphans == [] and root["name"] == "command"
    assert [child["name"] for child in root["children"]] == ["pipeline"]
    stored = sorted(path.name for path in cache.rglob("*.pkl"))
    assert stored

    warm = _python("-m", "repro", *argv, "--trace-dir", tmp_path / "warm")
    assert warm.returncode == 0, warm.stderr
    counters = summarize(read_trace(tmp_path / "warm"))["counters"]
    assert counters["cache.hit"] == counters["cache.load"] == 1
    assert "cache.corrupt" not in counters
    assert sorted(path.name for path in cache.rglob("*.pkl")) == stored
    # Piped stdout is block-buffered: the whole of it arrives, the same
    # bytes an in-process run prints.
    assert main([str(part) for part in argv]) == 0
    assert warm.stdout == capsys.readouterr().out

    bad_engine = _python("-m", "repro", "figure2", "--engine", "bogus")
    assert bad_engine.returncode == 2
    assert "invalid choice" in bad_engine.stderr
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    refused = _python("-m", "repro", "section3", "--small", "--cache-dir", not_a_dir)
    assert refused.returncode == 2
    assert refused.stderr == f"error: cannot open cache {not_a_dir}: not a directory\n"
    # A profiler reports at interpreter exit, so a profiled run exits
    # normally.
    profiled = _python("-m", "cProfile", "-m", "repro", "cache", "stats", "--cache-dir", cache)
    assert profiled.returncode == 0, profiled.stderr
    assert "function calls" in profiled.stdout


@pytest.mark.parametrize(
    "command", (["section3"], ["figure2", "--top", "3"]), ids=("section3", "figure2")
)
def test_json_report_survives_a_closed_stdout(tmp_path, command):
    """A reader that has gone away (``repro ... | true``) cannot lose the
    ``--json`` report: it is written before anything is printed.  Stdout
    is unbuffered here, so the first print meets the closed pipe."""
    report = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        "PYTHONUNBUFFERED": "1",
    }
    argv = [command[0], "--small", *command[1:], "--json", str(report)]
    try:
        subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            stdout=write_end,
            stderr=subprocess.DEVNULL,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert command[0] in json.loads(report.read_text())
