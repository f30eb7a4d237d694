"""The performance observatory: profiling hooks and trace analysis.

Acceptance criteria under test:

* profiling is off by default and provably free — a run with profiling
  available-but-off is byte-identical and fingerprint-identical to an
  untraced one; with it on, every propagation stage span gets at least
  one named hot function attributed,
* profile records land in ``profile*.jsonl`` beside the trace, never
  inside it, so trace readers and the CI trace smoke are unaffected,
* ``analyze`` survives adversarial traces: deep nesting, error spans,
  a torn final line from a concurrent writer.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.pipeline import run_pipeline
from repro.telemetry import (
    PROFILED_SPANS,
    ProfilingConfig,
    Tracer,
    parse_jsonl,
    profile_rollup,
    read_profiles,
    read_trace,
    render_tree,
    summarize,
)
from tests.test_telemetry import tiny_base, tracing


# ----------------------------------------------------------------------
# profiling hooks
# ----------------------------------------------------------------------
class TestProfilingHooks:
    def _profiled_run(self, tmp_path: Path, seed: int = 5):
        trace_dir = tmp_path / "trace"
        with tracing(trace_dir, profiling=ProfilingConfig()):
            run = run_pipeline(tiny_base(seed), targets=("section3",))
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
        plain = run_pipeline(tiny_base(7), targets=("section3",))
        with tracing(tmp_path / "t", profiling=ProfilingConfig()):
            profiled = run_pipeline(tiny_base(7), targets=("section3",))
        assert plain.fingerprints == profiled.fingerprints
        report_a = plain.value("section3")
        report_b = profiled.value("section3")
        assert report_a.as_dict() == report_b.as_dict()

    def test_tracer_without_profiling_writes_no_profile_file(self, tmp_path):
        with tracing(tmp_path / "t"):
            run_pipeline(tiny_base(5), targets=("section3",))
        assert not (tmp_path / "t" / "profile.jsonl").exists()
        with pytest.raises(FileNotFoundError):
            read_profiles(tmp_path / "t")

    def test_only_outermost_profiled_span_captures_per_thread(self, tmp_path):
        tracer = Tracer(tmp_path / "t", profiling=ProfilingConfig(memory=False))
        with tracer.span("stage", stage="outer"):
            with tracer.span("propagation", backend="event"):
                pass
        tracer.flush()
        records = read_profiles(tmp_path / "t")
        # cProfile cannot nest: exactly the outer span
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
        assert PROFILED_SPANS == {"stage", "propagation"}

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
