"""Structured tracing, metrics and run provenance (stdlib-only).

* :mod:`repro.telemetry.tracer` — :class:`~repro.telemetry.tracer.Tracer`,
  ``NULL_TRACER``, ``get_tracer`` and ``activated``: the span emitter
  and its process-wide activation stack (off by default, zero-overhead
  no-op when off).  ``repro --trace-dir DIR`` activates
  one tracer around the command.
* :mod:`repro.telemetry.analyze` — ``read_trace``, ``build_tree``,
  ``summarize`` and ``render_tree``: the join/rollup side behind
  ``repro trace show|summary``.

The package root re-exports nothing, so a command that only traces
never imports the analysis side.  See ``docs/observability.md`` for the
span model and the JSONL schema.
"""
