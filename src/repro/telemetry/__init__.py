"""Structured tracing, metrics and run provenance (stdlib-only).

Public surface:

* :class:`Tracer` / :data:`NULL_TRACER` / :func:`get_tracer` /
  :func:`activated` — the span/counter emitter and its process-wide
  activation stack (off by default, zero-overhead no-op when off).
* :class:`TelemetryConfig` — the picklable trace context (trace dir,
  run id, parent span id) that rides in ``PipelineConfig.telemetry``
  into sweep pool workers.
* :func:`read_trace` / :func:`build_tree` / :func:`summarize` /
  :func:`render_tree` — the join/rollup side behind
  ``repro trace show|summary``.
* :class:`ProfilingConfig` / :func:`read_profiles` /
  :func:`profile_rollup` — opt-in per-span ``cProfile`` +
  ``tracemalloc`` capture behind ``repro trace profile``.

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
from repro.telemetry.profile import (
    PROFILE_FILENAME,
    PROFILE_SCHEMA_VERSION,
    PROFILED_SPANS,
    ProfilingConfig,
    profile_files,
    profile_rollup,
    read_profiles,
    render_profiles,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    TRACE_FILENAME,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    TelemetryConfig,
    Tracer,
    activate,
    activated,
    deactivate,
    get_tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "PROFILED_SPANS",
    "PROFILE_FILENAME",
    "PROFILE_SCHEMA_VERSION",
    "ProfilingConfig",
    "SUMMARY_SCHEMA_VERSION",
    "TRACE_FILENAME",
    "TRACE_SCHEMA_VERSION",
    "TelemetryConfig",
    "Tracer",
    "activate",
    "activated",
    "build_tree",
    "deactivate",
    "get_tracer",
    "parse_jsonl",
    "profile_files",
    "profile_rollup",
    "read_profiles",
    "read_trace",
    "render_profiles",
    "render_tree",
    "summarize",
    "trace_files",
]
