"""Telemetry: span/counter correctness, zero overhead off, provenance.

The acceptance criteria of the observability work:

* the disabled path is provably cheap (no-op tracer, no allocation on
  the hot path, benchmark-guarded) and **fingerprint-neutral** —
  tracing a run never changes a stage fingerprint or an output byte,
* a traced pipeline run yields one coherent span tree with per-stage
  cache status, and cache hit/miss counters that match the run,
* a traced sweep yields one tree: every scenario's pipeline span nests
  under the sweep span, under one run id, with no orphans,
* ``summarize`` reproduces the sweep's per-stage compute counts
  exactly, and accounts the root span's wall time outside every stage.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.datasets.config import DatasetConfig
from repro.pipeline import PipelineConfig, run_pipeline
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.stages import full_stages
from repro.sweep import GridAxis, SweepGrid, run_sweep
from repro.telemetry.analyze import (
    SUMMARY_SCHEMA_VERSION,
    build_tree,
    read_trace,
    render_tree,
    summarize,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    Tracer,
    activated,
    get_tracer,
)
from repro.topology.config import TopologyConfig


def tiny_base(seed: int = 5) -> PipelineConfig:
    return PipelineConfig(
        dataset=DatasetConfig(
            topology=TopologyConfig(
                seed=seed, tier1_count=3, tier2_count=8, tier3_count=20
            ),
            seed=seed,
            vantage_points=4,
        ),
        top=3,
    )


@contextlib.contextmanager
def tracing(trace_dir):
    """Run the block under a fresh tracer writing to ``trace_dir`` and
    flush it afterwards — what ``repro --trace-dir`` does around a
    command."""
    tracer = Tracer(trace_dir)
    try:
        with activated(tracer):
            yield tracer
    finally:
        tracer.flush()


def spans_named(records, name):
    return [r for r in records if r.get("kind") == "span" and r.get("name") == name]


def counters_named(records, name):
    return [r for r in records if r.get("kind") == "counter" and r.get("name") == name]


# ----------------------------------------------------------------------
# tracer unit behaviour
# ----------------------------------------------------------------------
class TestTracerBasics:
    def test_nesting_follows_thread_stack(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span_id() == inner.span_id
            with tracer.span("sibling") as sibling:
                pass
        records = {r["name"]: r for r in tracer.records()}
        assert records["outer"]["parent_id"] is None
        assert records["inner"]["parent_id"] == outer.span_id
        assert records["sibling"]["parent_id"] == outer.span_id
        assert sibling.span_id != inner.span_id

    def test_exception_marks_span_error_and_rethrows(self, tmp_path):
        tracer = Tracer(tmp_path)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = tracer.records()
        assert record["status"] == "error"
        assert "RuntimeError" in record["attrs"]["error"]

    def test_counters_attach_to_current_span(self, tmp_path):
        tracer = Tracer(tmp_path)
        with tracer.span("work") as span:
            tracer.counter("widgets", 3, kind="round")
        counters = [r for r in tracer.records() if r["kind"] != "span"]
        assert {r["name"] for r in counters} == {"widgets"}
        assert all(r["span_id"] == span.span_id for r in counters)

    def test_flush_writes_sorted_key_jsonl_and_appends(self, tmp_path):
        tracer = Tracer(tmp_path, run_id="r1")
        with tracer.span("a"):
            pass
        path = tracer.flush()
        with tracer.span("b"):
            tracer.counter("c")
        assert tracer.flush() == path
        lines = Path(path).read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert record["schema_version"] == TRACE_SCHEMA_VERSION
            assert record["run_id"] == "r1"
            assert list(record) == sorted(record)
            assert "_started" not in record
        # Nothing buffered twice: a second flush with no records is a no-op.
        assert tracer.flush() is None

    def test_activation_stack(self, tmp_path):
        assert get_tracer() is NULL_TRACER
        tracer = Tracer(tmp_path)
        with activated(tracer):
            assert get_tracer() is tracer
            inner = Tracer(tmp_path)
            with activated(inner):
                assert get_tracer() is inner
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER
        # None and the null tracer are accepted and change nothing.
        with activated(None), activated(NULL_TRACER):
            assert get_tracer() is NULL_TRACER


class TestDisabledPathIsFree:
    def test_null_tracer_allocates_nothing(self):
        tracer = get_tracer()
        assert tracer is NULL_TRACER
        assert not tracer
        span = tracer.span("anything", key="value")
        assert span is tracer.span("other")  # shared singleton handle
        with span:
            span.annotate(more="attrs")
        assert tracer.flush() is None

    def test_disabled_span_overhead_is_bounded(self):
        """Benchmark guard: 100k disabled spans must stay far under any
        measurable budget (generous bound — CI machines are noisy)."""
        tracer = get_tracer()
        started = time.perf_counter()
        for _ in range(100_000):
            with tracer.span("hot", stage="x"):
                pass
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"100k no-op spans took {elapsed:.3f}s"


# ----------------------------------------------------------------------
# fingerprint neutrality + pipeline instrumentation
# ----------------------------------------------------------------------
class TestFingerprintNeutrality:
    def test_traced_run_output_identical_to_untraced(self, tmp_path):
        plain = run_pipeline(
            tiny_base(), cache_dir=tmp_path / "c1", targets=("section3",)
        )
        with tracing(tmp_path / "trace"):
            traced = run_pipeline(
                tiny_base(), cache_dir=tmp_path / "c2", targets=("section3",)
            )
        assert traced.fingerprints == plain.fingerprints
        assert traced.value("section3").as_dict() == plain.value("section3").as_dict()
        # ... and the trace really was written.
        assert read_trace(tmp_path / "trace")


class TestPipelineTrace:
    def test_cold_then_warm_run_spans_and_counters(self, tmp_path):
        trace_dir = tmp_path / "trace"
        config = tiny_base()
        # Two traced runs, as two `repro --trace-dir` commands would be.
        with tracing(trace_dir):
            run_pipeline(config, cache_dir=tmp_path / "cache", targets=("section3",))
        cold = read_trace(trace_dir)
        cold_stages = spans_named(cold, "stage")
        statuses = {s["attrs"]["stage"]: s["attrs"]["status"] for s in cold_stages}
        assert statuses and set(statuses.values()) == {"computed"}
        assert all("fingerprint" in s["attrs"] for s in cold_stages)
        assert not counters_named(cold, "cache.hit")
        cacheable = {spec.name for spec in full_stages() if spec.cacheable}
        cold_cached = [s for s in cold_stages if s["attrs"]["stage"] in cacheable]
        misses = counters_named(cold, "cache.miss")
        assert len(misses) == len(cold_cached)
        assert counters_named(cold, "cache.put")
        # Computed cacheable stages record their stored artifact size.
        assert all(s["attrs"].get("artifact_bytes", 0) > 0 for s in cold_cached)
        # A cold run skips nothing.
        assert "skipped" not in spans_named(cold, "pipeline")[0]["attrs"]

        with tracing(trace_dir):
            warm_run = run_pipeline(
                config, cache_dir=tmp_path / "cache", targets=("section3",)
            )
            warm_run.value("section3")
        warm = read_trace(trace_dir)[len(cold):]
        warm_stages = spans_named(warm, "stage")
        assert [s["attrs"]["stage"] for s in warm_stages] == ["section3"]
        assert {s["attrs"]["status"] for s in warm_stages} == {"cached"}
        assert len(counters_named(warm, "cache.hit")) == len(warm_stages)
        assert not counters_named(warm, "cache.miss")
        # Reading the value loads it once, counting the bytes the cold
        # run stored for it.
        (load_bytes,) = counters_named(warm, "cache.load_bytes")
        assert load_bytes["attrs"]["stage"] == "section3"
        stored = {s["attrs"]["stage"]: s["attrs"]["artifact_bytes"] for s in cold_cached}
        assert load_bytes["value"] == stored["section3"]
        # The pipeline span names every closure stage the hit made
        # unnecessary, and the summary counts them per stage.
        (warm_pipeline,) = spans_named(warm, "pipeline")
        skipped = set(warm_pipeline["attrs"]["skipped"].split(","))
        assert skipped == set(statuses) - {"section3"}
        summary = summarize(read_trace(trace_dir))
        assert {
            name for name, entry in summary["stages"].items() if entry["skipped"]
        } == skipped
        assert summary["stages"]["scenario"]["skipped"] == 1
        assert summary["stages"]["scenario"]["computed"] == 1

        roots, orphans = build_tree(read_trace(trace_dir))
        assert orphans == []
        assert [r["name"] for r in roots] == ["pipeline", "pipeline"]
        # Both runs share nothing: two distinct run ids, two trees.
        assert len({r["run_id"] for r in roots}) == 2
        assert render_tree(read_trace(trace_dir))  # renders without error


    def test_stage_spans_hold_their_cache_io_and_report_self_time(self, tmp_path):
        """A stage's span opens before its cache lookup.  A hit's span
        holds its ``cache.load``; a computed stage's span holds the
        stages it resolved upstream and its ``cache.store``, each with
        its bytes.  A stage's self time leaves those out, so the stages'
        self times plus the cache's seconds are the time under the
        outermost stage spans."""
        cache = tmp_path / "cache"
        with tracing(tmp_path / "cold"):
            run_pipeline(tiny_base(), cache_dir=cache, targets=("section3",))
        with tracing(tmp_path / "warm"):
            run_pipeline(tiny_base(), cache_dir=cache, targets=("section3",))

        warm = read_trace(tmp_path / "warm")
        (stage,) = spans_named(warm, "stage")
        (load,) = spans_named(warm, "cache.load")
        assert load["parent_id"] == stage["span_id"]
        assert load["attrs"]["outcome"] == "hit"
        assert load["attrs"]["bytes"] == stage["attrs"]["artifact_bytes"] > 0
        assert summarize(warm)["cache"]["load"]["bytes"] == load["attrs"]["bytes"]

        cold = read_trace(tmp_path / "cold")
        stages = {s["span_id"]: s for s in spans_named(cold, "stage")}
        stores = spans_named(cold, "cache.store")
        assert stores
        for store in stores:
            owner = stages[store["parent_id"]]
            assert owner["attrs"]["stage"] == store["attrs"]["stage"]
            assert store["attrs"]["bytes"] == owner["attrs"]["artifact_bytes"]
        outcomes = {s["attrs"]["outcome"] for s in spans_named(cold, "cache.load")}
        assert outcomes == {"miss"}
        # The target's span holds the whole cold run.
        (section3,) = [s for s in stages.values() if s["attrs"]["stage"] == "section3"]
        assert all(
            s is section3 or s["parent_id"] in stages for s in stages.values()
        )

        summary = summarize(cold)
        assert summary["stages"]["section3"]["total_seconds"] == section3["seconds"]
        assert (
            summary["stages"]["section3"]["self_seconds"]
            < summary["stages"]["section3"]["total_seconds"]
        )
        for entry in summary["stages"].values():
            assert 0 <= entry["self_seconds"] <= entry["total_seconds"]
        outermost = sum(s["seconds"] for s in stages.values() if s["parent_id"] not in stages)
        accounted = sum(e["self_seconds"] for e in summary["stages"].values()) + sum(
            summary["cache"][kind]["total_seconds"] for kind in ("load", "store")
        )
        assert accounted == pytest.approx(outermost, abs=1e-4)
        assert summary["cache"]["store"]["bytes"] == sum(s["attrs"]["bytes"] for s in stores)

    def test_propagation_spans_name_the_method(self, tmp_path):
        """``array`` solves the IPv4 plane and replays the relaxed IPv6
        plane; each span names its method and why, and the summary
        splits the engine rollup by method."""
        with tracing(tmp_path):
            run_pipeline(tiny_base(), targets=("propagation_v4", "propagation_v6"))
        records = read_trace(tmp_path)
        stage_of = {s["span_id"]: s["attrs"]["stage"] for s in spans_named(records, "stage")}
        methods = {
            stage_of[s["parent_id"]]: (s["attrs"]["method"], s["attrs"]["method_reason"])
            for s in spans_named(records, "propagation")
        }
        assert methods["propagation_v4"] == ("solve", None)
        assert methods["propagation_v6"][0] == "replay"
        assert methods["propagation_v6"][1]
        array = summarize(records)["engines"]["array"]
        assert array["methods"]["solve"]["events"] == 0
        assert array["methods"]["replay"]["events"] == array["events"] > 0
        assert array["methods"]["solve"]["count"] + array["methods"]["replay"]["count"] == 2


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------
class TestSweepTrace:
    def test_serial_sweep_scenarios_join_one_tree(self, tmp_path):
        grid = SweepGrid(tiny_base(), [GridAxis("dataset.seed", (1, 2))])
        with tracing(tmp_path / "trace"):
            result = run_sweep(
                grid, cache_dir=tmp_path / "cache", targets=("section3",)
            )
        assert not result.failed()
        records = read_trace(tmp_path / "trace")
        (sweep_span,) = spans_named(records, "sweep")
        run_id = sweep_span["run_id"]
        pipelines = spans_named(records, "pipeline")
        assert len(pipelines) == 2
        assert {p["run_id"] for p in pipelines} == {run_id}
        assert {p["parent_id"] for p in pipelines} == {sweep_span["span_id"]}
        roots, orphans = build_tree(records)
        assert orphans == []
        assert [r["name"] for r in roots] == ["sweep"]

        # The summary reproduces the sweep's per-stage compute counts
        # exactly (cacheable stages — the ones the counters track).
        summary = summarize(records, trace_dir=tmp_path / "trace")
        expected = {}
        for scenario in result.results:
            for stage, status in scenario.stage_statuses.items():
                if status == "computed":
                    expected[stage] = expected.get(stage, 0) + 1
        traced = {
            name: entry["computed"]
            for name, entry in summary["stages"].items()
            if entry["computed"]
        }
        assert traced == expected

    def test_bitflipped_cache_sweep_heals_and_counts_corruption(self, tmp_path):
        """A traced sweep over a warm cache whose ``correction`` and
        ``views`` payloads were bit-flipped: every cell equals the clean
        sweep's, and the trace counts one ``cache.corrupt`` per flipped
        payload (present-but-bad, told apart from absent).  The flipped
        correction makes each cell read its views, so both are found."""
        grid = SweepGrid(tiny_base(), [GridAxis("dataset.seed", (1, 2))])
        cache_dir = tmp_path / "cache"
        clean = run_sweep(grid, cache_dir=cache_dir)
        flipped = sorted((cache_dir / "correction").glob("*.pkl")) + sorted(
            (cache_dir / "views").glob("*.pkl")
        )
        assert len(flipped) == 4
        for payload in flipped:
            data = bytearray(payload.read_bytes())
            data[len(data) // 2] ^= 0xFF
            payload.write_bytes(bytes(data))
        trace_dir = tmp_path / "trace"
        with tracing(trace_dir):
            healed = run_sweep(grid, cache_dir=cache_dir)
        assert not healed.failed()

        def cells(result):
            return {r.scenario_id: (r.section3, r.correction) for r in result.results}

        assert cells(healed) == cells(clean)
        summary = summarize(read_trace(trace_dir), trace_dir=trace_dir)
        assert summary["counters"]["cache.corrupt"] == len(flipped)


# ----------------------------------------------------------------------
# root-span accounting
# ----------------------------------------------------------------------
def _timed_span(span_id, parent, name, start, seconds):
    return {
        "kind": "span",
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start_time": start,
        "seconds": seconds,
        "status": "ok",
        "attrs": {},
    }


class TestRootAccounting:
    def test_unattributed_is_root_time_outside_every_stage(self):
        records = [
            _timed_span("root", None, "pipeline", 100.0, 10.0),
            _timed_span("a", "root", "stage", 101.0, 3.0),
            _timed_span("b", "root", "stage", 104.0, 2.0),
            # Overlaps "b" (two runs traced at once): counted once.
            _timed_span("c", "root", "stage", 105.0, 2.5),
            # Nested inside "a": adds no coverage.
            _timed_span("d", "a", "propagation", 101.5, 1.0),
        ]
        summary = summarize(records)
        assert summary["root_seconds"] == 10.0
        # Stages cover 101-104 and 104-107.5: 6.5 s of the 10 s root.
        assert summary["unattributed_seconds"] == 3.5

    def test_no_spans_is_zero(self):
        summary = summarize([{"kind": "counter", "name": "x", "value": 1}])
        assert summary["root_seconds"] == 0.0
        assert summary["unattributed_seconds"] == 0.0

    def test_trace_summary_prints_both(self, tmp_path, capsys):
        from repro.cli import main

        records = [
            _timed_span("root", None, "pipeline", 0.0, 2.0),
            _timed_span("a", "root", "stage", 0.5, 1.0),
        ]
        (tmp_path / "trace.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        assert main(["trace", "summary", "--trace-dir", str(tmp_path)]) == 0
        assert "root: 2.000s, outside any stage: 1.000s" in capsys.readouterr().out
        assert main(["trace", "summary", "--trace-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["root_seconds"], payload["unattributed_seconds"]) == (2.0, 1.0)
        assert payload["schema_version"] == SUMMARY_SCHEMA_VERSION == 9
        assert payload["commands"] == {}
        assert "retries" not in payload
        assert "dead_letters" not in payload

    def test_command_rollup_is_wall_outside_stages_and_startup(self, tmp_path, capsys):
        from repro.cli import main

        command = _timed_span("cmd", None, "command", 0.0, 4.0)
        command["attrs"] = {"command": "figure2", "startup_cpu_seconds": 0.25}
        records = [
            command,
            _timed_span("p", "cmd", "pipeline", 1.0, 2.0),
            _timed_span("a", "p", "stage", 1.5, 1.0),
        ]
        assert summarize(records)["commands"] == {
            "figure2": {
                "count": 1,
                "wall_seconds": 4.0,
                "outside_stages_seconds": 3.0,
                "startup_cpu_seconds": 0.25,
                "tracer_seconds": 0.0,
                "max_rss_kb": 0,
                "rss_source": None,
                "peak_stage": None,
            }
        }
        (tmp_path / "trace.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in records)
        )
        assert main(["trace", "summary", "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "figure2 x1" in out
        assert "outside any stage   3.000s  startup cpu   0.250s" in out


class TestCommandSpan:
    def test_traced_cli_run_is_one_command_root_holding_the_pipeline(
        self, tmp_path, capsys
    ):
        """``main`` opens the ``command`` root first, so the ``pipeline``
        span nests under it; it records the command, its exit code and
        the CPU time the process spent before ``main``."""
        from repro.cli import main

        trace_dir = tmp_path / "trace"
        argv = ["section3", "--small", "--cache-dir", str(tmp_path / "cache")]
        assert main([*argv, "--trace-dir", str(trace_dir)]) == 0
        capsys.readouterr()
        records = read_trace(trace_dir)
        roots, orphans = build_tree(records)
        assert orphans == []
        (root,) = roots
        assert root["name"] == "command"
        assert root["attrs"]["command"] == "section3"
        assert root["attrs"]["exit_code"] == 0
        assert root["attrs"]["startup_cpu_seconds"] > 0
        assert [child["name"] for child in root["children"]] == ["pipeline"]
        (pipeline,) = spans_named(records, "pipeline")
        assert root["start_time"] <= pipeline["start_time"]
        summary = summarize(records)
        entry = summary["commands"]["section3"]
        assert entry["wall_seconds"] == summary["root_seconds"]
        assert entry["outside_stages_seconds"] == summary["unattributed_seconds"]


    def test_command_records_its_peak_rss_and_the_tracers_own_time(
        self, tmp_path, capsys
    ):
        """A traced cold ``section3`` closes every ``stage`` span and its
        ``command`` span with the process's peak RSS, lists the stages
        the run released, and states the tracer's own time, which is
        positive and a small part of the command's wall time."""
        from repro.cli import main

        trace_dir = tmp_path / "trace"
        assert main(["section3", "--small", "--trace-dir", str(trace_dir)]) == 0
        capsys.readouterr()
        records = read_trace(trace_dir)
        (command,) = spans_named(records, "command")
        stages = spans_named(records, "stage")
        assert all(span["attrs"]["max_rss_kb"] > 0 for span in stages)
        peak = command["attrs"]["max_rss_kb"]
        assert peak >= max(span["attrs"]["max_rss_kb"] for span in stages)
        assert 0 < command["attrs"]["tracer_seconds"] < command["seconds"]
        (pipeline,) = spans_named(records, "pipeline")
        released = pipeline["attrs"]["released"].split(",")
        assert {"propagation_v4", "propagation_v6", "archive"} <= set(released)
        assert "section3" not in released
        entry = summarize(records)["commands"]["section3"]
        assert entry["max_rss_kb"] == peak
        assert entry["tracer_seconds"] == command["attrs"]["tracer_seconds"]


    def test_computed_stages_record_what_the_run_held(self, tmp_path, capsys):
        """Each computed ``stage`` span lists the stages whose artifacts
        the run held when its compute started: a cold ``section3`` has
        released the IPv4 routes before the IPv6 plane propagates."""
        from repro.cli import main

        trace_dir = tmp_path / "trace"
        assert main(["section3", "--small", "--trace-dir", str(trace_dir)]) == 0
        capsys.readouterr()
        records = read_trace(trace_dir)
        held = {
            span["attrs"]["stage"]: span["attrs"]["held"].split(",")
            for span in spans_named(records, "stage")
        }
        assert held["topology"] == [""]
        assert "propagation_v4" in held["collection_v4"]
        assert "propagation_v4" not in held["propagation_v6"]
        assert "collection_v4" in held["propagation_v6"]
        entry = summarize(records)["commands"]["section3"]
        (command,) = spans_named(records, "command")
        assert entry["rss_source"] == command["attrs"]["rss_source"]
        assert entry["rss_source"] in ("VmHWM", "ru_maxrss")


class TestMemoryRollup:
    """``repro trace summary`` reports peak RSS per stage and per
    command, the stage whose close first reached a command's peak, and
    how often each stage was released."""

    @staticmethod
    def _records():
        command = _timed_span("cmd", None, "command", 0.0, 10.0)
        command["attrs"] = {
            "command": "section3", "max_rss_kb": 40960, "tracer_seconds": 0.002,
        }
        pipeline = _timed_span("p", "cmd", "pipeline", 0.5, 9.0)
        pipeline["attrs"] = {"targets": "section3", "released": "archive,store"}
        records = [command, pipeline]
        # (name, parent, start, seconds, max_rss_kb): ``store`` closes
        # at 6.0 s at the peak; ``section3`` holds it and closes later.
        for name, parent, start, seconds, rss in [
            ("archive", "section3", 1.0, 2.0, 30720),
            ("store", "section3", 3.5, 2.5, 40960),
            ("section3", "p", 0.8, 8.0, 40960),
        ]:
            span = _timed_span(name, parent, "stage", start, seconds)
            span["attrs"] = {"stage": name, "status": "computed", "max_rss_kb": rss}
            records.append(span)
        return records

    def test_peak_rss_peak_stage_and_released_counts(self):
        summary = summarize(self._records())
        assert summary["commands"]["section3"]["max_rss_kb"] == 40960
        assert summary["commands"]["section3"]["peak_stage"] == "store"
        assert summary["commands"]["section3"]["tracer_seconds"] == 0.002
        stages = summary["stages"]
        assert {name: entry["released"] for name, entry in stages.items()} == {
            "archive": 1, "store": 1, "section3": 0,
        }
        assert stages["archive"]["max_rss_kb"] == 30720

    def test_a_peak_after_every_stage_names_no_stage(self):
        records = self._records()
        records[0]["attrs"]["max_rss_kb"] = 51200
        assert summarize(records)["commands"]["section3"]["peak_stage"] is None

    def test_the_highest_command_names_the_peak(self):
        """Two ``section3`` commands in one trace: the rollup keeps the
        higher peak and the stage that reached it."""
        records = self._records()
        other = _timed_span("cmd2", None, "command", 20.0, 1.0)
        other["attrs"] = {"command": "section3", "max_rss_kb": 20480}
        views = _timed_span("v", "cmd2", "stage", 20.1, 0.5)
        views["attrs"] = {"stage": "views", "status": "cached", "max_rss_kb": 20480}
        entry = summarize([*records, other, views])["commands"]["section3"]
        assert (entry["count"], entry["max_rss_kb"], entry["peak_stage"]) == (
            2, 40960, "store",
        )

    def test_trace_summary_prints_peak_rss_and_tracer_time(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "trace.jsonl").write_text(
            "".join(json.dumps(record) + "\n" for record in self._records())
        )
        assert main(["trace", "summary", "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "tracer  0.002000s  peak rss   40.0 MB at store" in out
        assert "released 1" in out
        assert main(["trace", "summary", "--trace-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["commands"]["section3"]["peak_stage"] == "store"


#: Runs ``argv[2:]`` from a process that first holds ``argv[1]`` MB.
HOLDING_LAUNCHER = (
    "import subprocess, sys\n"
    "held = b'x' * (int(sys.argv[1]) << 20)\n"
    "sys.exit(subprocess.call(sys.argv[2:]))\n"
)


class TestOwnPeakRss:
    """A span's ``max_rss_kb`` is the op's own peak, not its spawner's."""

    @staticmethod
    def _command_peak(tmp_path, held_mb: int) -> dict:
        trace_dir = tmp_path / f"trace-{held_mb}"
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        subprocess.run(
            [sys.executable, "-S", "-c", HOLDING_LAUNCHER, str(held_mb),
             sys.executable, "-m", "repro", "figure2", "--small", "--top", "3",
             "--trace-dir", str(trace_dir)],
            check=True, env=env, stdout=subprocess.DEVNULL,
        )
        (command,) = spans_named(read_trace(trace_dir), "command")
        return command["attrs"]

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
    )
    def test_a_large_spawner_does_not_raise_the_ops_peak(self, tmp_path):
        """The same ``figure2`` op started from a small process and from
        one holding 120 MB reads the same peak within 1 MB:
        ``getrusage`` would report the large spawner's peak."""
        small = self._command_peak(tmp_path, 0)
        large = self._command_peak(tmp_path, 120)
        assert small["rss_source"] == large["rss_source"] == "VmHWM"
        assert abs(large["max_rss_kb"] - small["max_rss_kb"]) <= 1024, (small, large)
