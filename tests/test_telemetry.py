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
import time
from pathlib import Path

import pytest

from repro.datasets import DatasetConfig
from repro.pipeline import PipelineConfig, run_pipeline
from repro.pipeline.runner import PipelineRunner
from repro.pipeline.stages import full_stages
from repro.sweep import GridAxis, SweepGrid, run_sweep
from repro.telemetry import (
    NULL_TRACER,
    SUMMARY_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
    Tracer,
    activated,
    build_tree,
    get_tracer,
    read_trace,
    render_tree,
    summarize,
)
from repro.topology.generator import TopologyConfig


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
        max_sources=10,
    )


@contextlib.contextmanager
def tracing(trace_dir, **kwargs):
    """Run the block under a fresh tracer writing to ``trace_dir`` and
    flush it afterwards — what ``repro --trace-dir`` does around a
    command."""
    tracer = Tracer(trace_dir, **kwargs)
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
            tracer.gauge("queue_depth", 7.5)
        counters = [r for r in tracer.records() if r["kind"] != "span"]
        assert {r["name"] for r in counters} == {"widgets", "queue_depth"}
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
        misses = counters_named(cold, "cache.miss")
        assert len(misses) == len(cold_stages)
        assert counters_named(cold, "cache.put")
        # Computed cacheable stages record their stored artifact size.
        assert all(
            s["attrs"].get("artifact_bytes", 0) > 0 for s in cold_stages
        )

        with tracing(trace_dir):
            run_pipeline(config, cache_dir=tmp_path / "cache", targets=("section3",))
        warm = read_trace(trace_dir)[len(cold):]
        warm_stages = spans_named(warm, "stage")
        assert {s["attrs"]["status"] for s in warm_stages} == {"cached"}
        assert all("verify_seconds" in s["attrs"] for s in warm_stages)
        assert len(counters_named(warm, "cache.hit")) == len(warm_stages)
        assert not counters_named(warm, "cache.miss")

        roots, orphans = build_tree(read_trace(trace_dir))
        assert orphans == []
        assert [r["name"] for r in roots] == ["pipeline", "pipeline"]
        # Both runs share nothing: two distinct run ids, two trees.
        assert len({r["run_id"] for r in roots}) == 2
        assert render_tree(read_trace(trace_dir))  # renders without error


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
        """A traced sweep over a warm cache whose ``store`` payloads were
        bit-flipped: every cell equals the clean sweep's, and the trace
        counts one ``cache.corrupt`` per flipped payload (present-but-bad,
        told apart from absent)."""
        grid = SweepGrid(tiny_base(), [GridAxis("dataset.seed", (1, 2))])
        cache_dir = tmp_path / "cache"
        clean = run_sweep(grid, cache_dir=cache_dir)
        flipped = sorted((cache_dir / "store").glob("*.pkl"))
        assert len(flipped) == 2
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
        assert payload["schema_version"] == SUMMARY_SCHEMA_VERSION == 2
        assert "retries" not in payload
        assert "dead_letters" not in payload
