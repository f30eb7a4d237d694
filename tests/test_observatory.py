"""Trace analysis under adversarial input.

``analyze`` survives deep nesting, error spans, a torn final line from
a concurrent writer and counters-only traces, and the ``trace`` CLI
exits non-zero on a missing directory.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.telemetry.analyze import parse_jsonl, read_trace, render_tree, summarize


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
