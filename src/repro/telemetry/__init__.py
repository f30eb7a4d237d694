"""Structured tracing, metrics and run provenance (stdlib-only).

Public surface:

* :class:`Tracer` / :data:`NULL_TRACER` / :func:`get_tracer` /
  :func:`activated` — the span/counter emitter and its process-wide
  activation stack (off by default, zero-overhead no-op when off).
  ``repro --trace-dir DIR`` activates one tracer around the command.
* :func:`read_trace` / :func:`build_tree` / :func:`summarize` /
  :func:`render_tree` — the join/rollup side behind
  ``repro trace show|summary``.

See ``docs/observability.md`` for the span model and the JSONL schema.
"""

from repro.telemetry.analyze import (
    SUMMARY_SCHEMA_VERSION,
    build_tree,
    parse_jsonl,
    read_trace,
    render_tree,
    summarize,
    trace_files,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    TRACE_FILENAME,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    Tracer,
    activated,
    get_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "SUMMARY_SCHEMA_VERSION",
    "TRACE_FILENAME",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "activated",
    "build_tree",
    "get_tracer",
    "parse_jsonl",
    "read_trace",
    "render_tree",
    "summarize",
    "trace_files",
]
