"""The performance observatory: profiling hooks and the live monitor.

Acceptance criteria under test:

* profiling is off by default and provably free — a run with profiling
  available-but-off is byte-identical and fingerprint-identical to an
  untraced one; with it on, every propagation stage span gets at least
  one named hot function attributed,
* profile records land in ``profile*.jsonl`` beside the trace, never
  inside it, so trace readers and the CI trace smoke are unaffected,
* the monitor snapshot embeds ``TaskQueue.status_report`` verbatim
  (``repro top`` can never disagree with ``repro queue status``), and
  the verdict machine covers empty/active/drained/stalled/degraded,
* ``/metrics`` is valid Prometheus text exposition and ``/health``
  speaks 200/503,
* ``analyze`` survives adversarial traces: deep nesting, error spans,
  a torn final line from a concurrent writer,
* worker log lines carry the greppable ``run/worker/task`` prefix.
"""

from __future__ import annotations

import json
import pickle
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster.queue import TaskQueue, TaskSpec
from repro.cluster.worker import Worker
from repro.pipeline import PipelineConfig, run_pipeline
from repro.telemetry import (
    PROFILED_SPANS,
    ProfilingConfig,
    TelemetryConfig,
    Tracer,
    parse_jsonl,
    profile_rollup,
    read_profiles,
    read_trace,
    render_tree,
    summarize,
)
from repro.telemetry.monitor import (
    MonitorServer,
    prometheus_metrics,
    render_snapshot,
    snapshot,
    verdict,
)
from tests.test_telemetry import tiny_base


# ----------------------------------------------------------------------
# profiling hooks
# ----------------------------------------------------------------------
class TestProfilingHooks:
    def _profiled_run(self, tmp_path: Path, seed: int = 5):
        trace_dir = tmp_path / "trace"
        import dataclasses

        config = dataclasses.replace(
            tiny_base(seed),
            telemetry=TelemetryConfig(
                trace_dir=str(trace_dir), profiling=ProfilingConfig()
            ),
        )
        run = run_pipeline(config, targets=("section3",))
        return trace_dir, run

    def test_profiled_run_emits_profile_records_beside_trace(self, tmp_path):
        trace_dir, _ = self._profiled_run(tmp_path)
        assert (trace_dir / "profile.jsonl").exists()
        records = read_profiles(trace_dir)
        assert records and all(r["kind"] == "profile" for r in records)
        assert all(r["schema_version"] == 1 for r in records)
        # Profile records never leak into the trace files.
        assert all(r.get("kind") != "profile" for r in read_trace(trace_dir))
        # The trace itself is still a coherent tree.
        assert summarize(read_trace(trace_dir))["spans"]["orphans"] == 0

    def test_each_propagation_stage_gets_named_hot_function(self, tmp_path):
        trace_dir, _ = self._profiled_run(tmp_path)
        rollup = profile_rollup(read_profiles(trace_dir))
        for stage in ("stage:propagation_v4", "stage:propagation_v6"):
            assert stage in rollup
            top = rollup[stage]["top_functions"]
            assert top and top[0]["function"]
            assert any(r["cumtime"] >= 0 for r in top)

    def test_profiled_and_plain_runs_fingerprint_identical(self, tmp_path):
        import dataclasses

        plain = tiny_base(7)
        profiled = dataclasses.replace(
            plain,
            telemetry=TelemetryConfig(
                trace_dir=str(tmp_path / "t"), profiling=ProfilingConfig()
            ),
        )
        from repro.pipeline.runner import PipelineRunner
        from repro.pipeline.stages import full_stages

        runner = PipelineRunner(full_stages())
        assert runner.fingerprints(plain) == runner.fingerprints(profiled)
        report_a = run_pipeline(plain, targets=("section3",)).value("section3")
        report_b = run_pipeline(profiled, targets=("section3",)).value("section3")
        assert report_a.as_dict() == report_b.as_dict()

    def test_tracer_without_profiling_writes_no_profile_file(self, tmp_path):
        import dataclasses

        config = dataclasses.replace(
            tiny_base(5),
            telemetry=TelemetryConfig(trace_dir=str(tmp_path / "t")),
        )
        run_pipeline(config, targets=("section3",))
        assert not (tmp_path / "t" / "profile.jsonl").exists()
        with pytest.raises(FileNotFoundError):
            read_profiles(tmp_path / "t")

    def test_profiling_config_rides_context_through_pickle(self, tmp_path):
        tracer = Tracer(tmp_path / "t", profiling=ProfilingConfig(top_n=7))
        context = pickle.loads(pickle.dumps(tracer.context()))
        assert context.profiling == ProfilingConfig(top_n=7)
        joined = Tracer.from_config(context)
        assert joined.profiling == ProfilingConfig(top_n=7)

    def test_only_outermost_profiled_span_captures_per_thread(self, tmp_path):
        tracer = Tracer(tmp_path / "t", profiling=ProfilingConfig(memory=False))
        with tracer.span("stage", stage="outer"):
            with tracer.span("propagation", backend="event"):
                pass
        tracer.flush()
        records = read_profiles(tmp_path / "t")
        # cProfile cannot nest on one thread: exactly the outer span
        # captured; the inner one passed through silently.
        assert [r["name"] for r in records] == ["stage"]

    def test_profile_record_has_memory_block_when_enabled(self, tmp_path):
        tracer = Tracer(tmp_path / "t", profiling=ProfilingConfig(memory=True))
        with tracer.span("stage", stage="x"):
            _ = [0] * 50_000
        tracer.flush()
        (rec,) = read_profiles(tmp_path / "t")
        assert rec["memory"]["peak_kb"] > 0

    def test_profiled_spans_is_the_hot_set(self):
        assert PROFILED_SPANS == {"stage", "propagation", "propagation.batch"}

    def test_profile_cli_renders_and_exits_one_when_missing(self, tmp_path, capsys):
        trace_dir, _ = self._profiled_run(tmp_path)
        assert main(["trace", "profile", "--trace-dir", str(trace_dir)]) == 0
        out = capsys.readouterr().out
        assert "stage:propagation_v4" in out
        assert main(["trace", "profile", "--trace-dir", str(tmp_path / "no")]) == 1
        assert "no profile*.jsonl" in capsys.readouterr().err


# ----------------------------------------------------------------------
# analyze hardening (satellite: adversarial traces)
# ----------------------------------------------------------------------
def _span(span_id, parent, name="s", start=0.0, status="ok"):
    return {
        "kind": "span",
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "start_time": start,
        "seconds": 0.01,
        "status": status,
        "attrs": {},
    }


class TestAnalyzeAdversarial:
    def test_render_tree_survives_deep_nesting(self):
        depth = 5000  # far past the default recursion limit
        records = [_span("n0", None)]
        records += [_span(f"n{i}", f"n{i - 1}", start=float(i)) for i in range(1, depth)]
        lines = render_tree(records)
        assert len(lines) == depth
        assert lines[-1].startswith("  " * (depth - 1))

    def test_error_spans_render_marker_and_count(self):
        records = [
            _span("a", None),
            _span("b", "a", name="stage", status="error"),
        ]
        lines = render_tree(records)
        assert any("[error]" in line for line in lines)
        assert summarize(records)["spans"]["errors"] == 1

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = json.dumps(_span("a", None))
        path.write_text(good + "\n" + '{"kind": "span", "half')  # no newline
        assert parse_jsonl(path) == [json.loads(good)]
        assert len(read_trace(tmp_path)) == 1

    def test_interior_malformed_line_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"broken\n' + json.dumps(_span("a", None)) + "\n")
        with pytest.raises(ValueError, match="unparsable trace line"):
            parse_jsonl(path)

    def test_complete_malformed_final_line_still_raises(self, tmp_path):
        # A malformed line WITH its newline was fully written — that is
        # corruption, not a torn concurrent append.
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(_span("a", None)) + "\n" + '{"broken\n')
        with pytest.raises(ValueError, match="unparsable trace line"):
            parse_jsonl(path)

    def test_counters_only_trace_summarizes_empty_but_valid(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        counter = {"kind": "counter", "name": "cache.hit", "value": 3, "run_id": "r"}
        path.write_text(json.dumps(counter) + "\n")
        summary = summarize(read_trace(tmp_path), trace_dir=tmp_path)
        assert summary["spans"] == {"total": 0, "roots": 0, "orphans": 0, "errors": 0}
        assert summary["stages"] == {} and summary["engines"] == {}
        assert summary["counters"] == {"cache.hit": 3}

    def test_trace_cli_exits_one_on_missing_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "nope")
        assert main(["trace", "show", "--trace-dir", missing]) == 1
        assert main(["trace", "summary", "--trace-dir", missing]) == 1
        err = capsys.readouterr().err
        assert "no trace*.jsonl" in err and "Traceback" not in err

    def test_trace_summary_of_counters_only_trace_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"kind": "counter", "name": "x", "value": 1}) + "\n")
        assert main(["trace", "summary", "--trace-dir", str(tmp_path)]) == 0
        assert "0 spans" in capsys.readouterr().out


# ----------------------------------------------------------------------
# live monitor
# ----------------------------------------------------------------------
def _spec(task_id, wave=0):
    return TaskSpec(
        task_id=task_id,
        sweep_id="s",
        wave=wave,
        scenario_id=f"scn-{task_id}",
        config=b"cfg",
        targets="[]",
        cache_spec=None,
    )


class TestMonitor:
    def test_snapshot_embeds_status_report_verbatim(self, tmp_path):
        queue = TaskQueue(tmp_path / "queue.sqlite")
        queue.enqueue([_spec("t1"), _spec("t2", wave=1)])
        queue.claim("w1", 30.0)
        snap = snapshot(queue_dir=tmp_path)
        report = TaskQueue(tmp_path / "queue.sqlite").status_report()
        # Timing fields drift between the two calls; the structural
        # fields must be byte-equal (repro top == repro queue status).
        for key in ("state", "total_tasks", "counts", "dead_letters"):
            assert snap["queue"][key] == report[key]
        assert snap["waves"] == {"0": {"total": 1, "running": 1},
                                 "1": {"total": 1, "pending": 1}}
        (worker,) = snap["workers"]
        assert worker["worker_id"] == "w1" and worker["alive"]
        assert snap["health"]["verdict"] == "active"

    def test_verdict_empty_drained_degraded_stalled(self, tmp_path):
        queue = TaskQueue(tmp_path / "queue.sqlite")
        assert verdict(queue.status_report())["verdict"] == "empty"

        queue.enqueue([_spec("t1")])
        task = queue.claim("w1", 30.0)
        queue.complete(task.task_id, "w1", {"ok": True})
        assert verdict(queue.status_report())["verdict"] == "drained"

        queue2 = TaskQueue(tmp_path / "q2.sqlite")
        queue2.enqueue([_spec("t1")])
        for _ in range(3):  # exhaust max_attempts -> dead letter
            task = queue2.claim("w1", 30.0)
            queue2.fail(task.task_id, "w1", "boom")
        assert verdict(queue2.status_report())["verdict"] == "degraded"

        queue3 = TaskQueue(tmp_path / "q3.sqlite")
        queue3.enqueue([_spec("t1")])
        queue3.claim("w1", 30.0, now=time.time() - 100.0)  # lease long expired
        health = verdict(queue3.status_report())
        assert health["verdict"] == "stalled"
        assert "expired" in health["reasons"][0]

    def test_snapshot_requires_a_source_and_missing_queue_raises(self, tmp_path):
        with pytest.raises(ValueError):
            snapshot()
        with pytest.raises(FileNotFoundError):
            snapshot(queue_dir=tmp_path / "nope")
        # A read-only monitor must not create the queue file as a side
        # effect of looking for it.
        assert not (tmp_path / "nope").exists()

    def test_eta_from_completion_rate(self):
        from repro.telemetry.monitor import _progress_and_eta

        now = 1000.0
        report = {
            "total_tasks": 4,
            "counts": {"done": 3, "pending": 1},
            "tasks": [
                {"status": "done", "seconds_in_state": 20.0},
                {"status": "done", "seconds_in_state": 10.0},
                {"status": "done", "seconds_in_state": 0.0},
                {"status": "pending", "seconds_in_state": 0.0},
            ],
        }
        progress, eta = _progress_and_eta(report, now)
        assert progress == {"total": 4, "terminal": 3, "fraction": 0.75}
        # 2 intervals over 20s -> 0.1 tasks/s -> 1 remaining -> 10s.
        assert eta == 10.0

    def test_trace_block_cache_hit_rate(self, tmp_path):
        trace_dir = tmp_path / "trace"
        tracer = Tracer(trace_dir)
        with tracer.span("stage", stage="x"):
            tracer.counter("cache.hit", 3)
            tracer.counter("cache.miss", 1)
        tracer.flush()
        snap = snapshot(trace_dir=trace_dir)
        assert snap["trace"]["cache"] == {"hits": 3, "misses": 1, "hit_rate": 0.75}
        assert snap["health"]["verdict"] == "idle"
        assert any("cache" in line for line in render_snapshot(snap))

    def test_prometheus_exposition(self, tmp_path):
        queue = TaskQueue(tmp_path / "queue.sqlite")
        queue.enqueue([_spec("t1"), _spec("t2", wave=1)])
        task = queue.claim("w1", 30.0)
        queue.complete(task.task_id, "w1", {"ok": True})
        text = prometheus_metrics(snapshot(queue_dir=tmp_path))
        assert text.endswith("\n")
        assert "# TYPE repro_queue_tasks gauge" in text
        assert 'repro_queue_tasks{status="done"} 1' in text
        assert 'repro_wave_tasks{wave="0",status="done"} 1' in text
        assert 'repro_health{verdict="active"} 1' in text
        # HELP/TYPE emitted once per metric family, not per sample.
        assert text.count("# TYPE repro_wave_tasks gauge") == 1

    def test_monitor_server_routes(self, tmp_path):
        queue = TaskQueue(tmp_path / "queue.sqlite")
        queue.enqueue([_spec("t1")])
        task = queue.claim("w1", 30.0)
        queue.complete(task.task_id, "w1", {"ok": True})
        server = MonitorServer(queue_dir=tmp_path).start()
        try:
            metrics = urllib.request.urlopen(f"{server.url}/metrics")
            assert metrics.status == 200
            assert "text/plain" in metrics.headers["Content-Type"]
            assert 'repro_health{verdict="drained"} 1' in metrics.read().decode()

            health = urllib.request.urlopen(f"{server.url}/health")
            payload = json.loads(health.read().decode())
            assert (health.status, payload["verdict"]) == (200, "drained")

            snap = json.loads(
                urllib.request.urlopen(f"{server.url}/snapshot").read().decode()
            )
            assert snap["queue"]["counts"] == {"done": 1}

            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{server.url}/other")
            assert exc.value.code == 404
        finally:
            server.shutdown()

    def test_health_returns_503_when_degraded(self, tmp_path):
        queue = TaskQueue(tmp_path / "queue.sqlite")
        queue.enqueue([_spec("t1")])
        for _ in range(3):
            task = queue.claim("w1", 30.0)
            queue.fail(task.task_id, "w1", "boom")
        server = MonitorServer(queue_dir=tmp_path).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{server.url}/health")
            assert exc.value.code == 503
            assert json.loads(exc.value.read().decode())["verdict"] == "degraded"
        finally:
            server.shutdown()

    def test_top_cli_once_json_and_exit_codes(self, tmp_path, capsys):
        queue_dir = tmp_path
        queue = TaskQueue(queue_dir / "queue.sqlite")
        queue.enqueue([_spec("t1")])
        task = queue.claim("w1", 30.0)
        queue.complete(task.task_id, "w1", {"ok": True})
        assert main(["top", "--once", "--json", "--queue-dir", str(queue_dir)]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["health"]["verdict"] == "drained"
        assert snap["queue"]["counts"] == {"done": 1}
        # No source at all is a usage error; a missing queue is exit 1.
        assert main(["top", "--once"]) == 2
        capsys.readouterr()
        assert main(["top", "--once", "--queue-dir", str(tmp_path / "no")]) == 1

    def test_top_cli_exits_one_when_stalled(self, tmp_path, capsys):
        queue = TaskQueue(tmp_path / "queue.sqlite")
        queue.enqueue([_spec("t1")])
        queue.claim("w1", 30.0, now=time.time() - 100.0)
        assert main(["top", "--once", "--queue-dir", str(tmp_path)]) == 1
        assert "stalled" in capsys.readouterr().out


# ----------------------------------------------------------------------
# worker log prefix (satellite)
# ----------------------------------------------------------------------
class TestWorkerLogPrefix:
    def test_task_lines_carry_run_worker_task_prefix(self, tmp_path):
        queue = TaskQueue(tmp_path / "queue.sqlite")
        queue.enqueue([_spec("t1")])
        lines = []
        worker = Worker(queue, worker_id="w-1", log=lines.append)
        task = queue.claim("w-1", 30.0)
        # config=b"cfg" does not unpickle -> the attempt fails fast, and
        # both the claim and the failure line carry the prefix.
        assert worker.process(task) is False
        assert [line.split("]")[0] for line in lines] == ["[s/w-1/t1", "[s/w-1/t1"]
        assert "claimed scn-t1 (wave 0, attempt 1/3)" in lines[0]
        assert "failed: UnpicklingError" in lines[1]

    def test_prefix_prefers_trace_run_id(self, tmp_path):
        import dataclasses

        config = dataclasses.replace(
            tiny_base(),
            telemetry=TelemetryConfig(trace_dir=str(tmp_path), run_id="run-42"),
        )
        queue = TaskQueue(tmp_path / "queue.sqlite")
        spec = _spec("t1")
        spec = dataclasses.replace(spec, config=pickle.dumps(config))
        queue.enqueue([spec])
        lines = []
        worker = Worker(queue, worker_id="w-1", log=lines.append)
        worker._task_log(queue.claim("w-1", 30.0), "hello")
        assert lines == ["[run-42/w-1/t1] hello"]
