"""Process-local tracer: nested spans, counters and gauges.

The tracer is deliberately tiny and stdlib-only.  A :class:`Tracer`
collects finished records in memory and appends them to
``trace.jsonl`` in its trace directory on :meth:`Tracer.flush` — one
JSON object per line, ``schema_version`` + sorted keys like every other
report in the repo.  Appends go through a single ``O_APPEND`` write so
several ``repro`` processes pointed at one trace directory never
interleave mid-line; readers additionally glob ``trace*.jsonl``.

Telemetry is **off by default**: :func:`get_tracer` returns the shared
:data:`NULL_TRACER` unless something activated a real tracer, and every
``NullTracer`` operation is a constant-time no-op on shared singletons
(no allocation — the disabled path is benchmark-guarded by
``tests/test_telemetry.py``).  Instrumented code therefore calls
``get_tracer()`` unconditionally; spans and counters cost nothing until
someone opts in: ``repro --trace-dir`` activates one tracer around the
whole command.  Nothing a tracer records feeds a stage fingerprint, so
tracing a run never changes a fingerprint or an output byte (pinned by
the fingerprint-neutrality tests and the CI trace smoke).

The pipeline is single-threaded, so the tracer keeps one stack of open
spans and takes no locks.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.telemetry.profile import (
    PROFILE_FILENAME,
    ProfiledSpanHandle,
    ProfilingConfig,
    SpanProfiler,
)

TRACE_SCHEMA_VERSION = 1
TRACE_FILENAME = "trace.jsonl"


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


class _SpanHandle:
    """Context manager for one open span of a real tracer."""

    __slots__ = ("_tracer", "_record", "_attrs")

    def __init__(self, tracer: "Tracer", record: Dict[str, object]) -> None:
        self._tracer = tracer
        self._record = record
        self._attrs = record["attrs"]

    @property
    def span_id(self) -> str:
        return self._record["span_id"]  # type: ignore[return-value]

    def annotate(self, **attrs) -> None:
        """Attach attributes to the span while it is open."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        record = self._record
        ended = time.perf_counter()
        record["seconds"] = round(ended - record.pop("_started"), 6)
        record["end_time"] = time.time()
        if exc is not None:
            record["status"] = "error"
            self._attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
        self._tracer._finish_span(record)
        return False


class _NullSpan:
    """Shared no-op span handle (the disabled path allocates nothing)."""

    __slots__ = ()
    span_id = None

    def annotate(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a shared-singleton no-op."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def span(self, name, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name, value=1, **attrs) -> None:
        pass

    def gauge(self, name, value, **attrs) -> None:
        pass

    def flush(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans/counters/gauges; flushes to JSONL.

    Span parentage follows one stack of open spans: a span opened with
    no span open is a root.
    """

    def __init__(
        self,
        trace_dir,
        *,
        run_id: Optional[str] = None,
        profiling: Optional[ProfilingConfig] = None,
    ) -> None:
        self.trace_dir = os.fspath(trace_dir) if trace_dir is not None else None
        self.run_id = run_id or _new_id()
        #: Opt-in per-span profiling (``None`` = off; the disabled path
        #: is a single ``is None`` branch per span).
        self._profiler = SpanProfiler(profiling) if profiling is not None else None
        self._records: List[Dict[str, object]] = []
        self._stack: List[str] = []  # ids of the open spans, innermost last

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def current_span_id(self) -> Optional[str]:
        """The innermost open span (``None`` when no span is open)."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs) -> _SpanHandle:
        """Open a span nested in the innermost open one; close it by
        exiting the context manager."""
        record: Dict[str, object] = {
            "kind": "span",
            "schema_version": TRACE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "span_id": _new_id(),
            "parent_id": self.current_span_id(),
            "name": name,
            "attrs": dict(attrs),
            "status": "ok",
            "start_time": time.time(),
            "pid": os.getpid(),
            "_started": time.perf_counter(),
        }
        self._stack.append(record["span_id"])
        handle = _SpanHandle(self, record)
        if self._profiler is not None and name in self._profiler.span_names:
            return ProfiledSpanHandle(handle, record, self._profiler, self._append)
        return handle

    def _finish_span(self, record: Dict[str, object]) -> None:
        if self._stack and self._stack[-1] == record["span_id"]:
            self._stack.pop()
        self._records.append(record)

    def _append(self, record: Dict[str, object]) -> None:
        """Buffer a ready-made record (profile records use this)."""
        self._records.append(record)

    def counter(self, name: str, value: int = 1, **attrs) -> None:
        self._emit("counter", name, value, attrs)

    def gauge(self, name: str, value: float, **attrs) -> None:
        self._emit("gauge", name, value, attrs)

    def _emit(self, kind: str, name: str, value, attrs: Dict[str, object]) -> None:
        record = {
            "kind": kind,
            "schema_version": TRACE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "span_id": self.current_span_id(),
            "name": name,
            "value": value,
            "attrs": attrs,
            "time": time.time(),
            "pid": os.getpid(),
        }
        self._records.append(record)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """Snapshot of the unflushed records (tests, introspection)."""
        return [dict(record) for record in self._records]

    def flush(self) -> Optional[str]:
        """Append all buffered records to ``<trace_dir>/trace.jsonl``.

        The whole batch goes through one ``O_APPEND`` write, so flushes
        from concurrent ``repro`` processes never interleave mid-line.  Profile
        records flush the same way but to ``profile.jsonl`` — beside
        the trace, never into it, so ``trace*.jsonl`` readers see only
        span/counter records.  Returns the trace path written (``None``
        when nothing was buffered or the tracer has no trace
        directory).
        """
        records, self._records = self._records, []
        if not records or self.trace_dir is None:
            return None
        trace_lines, profile_lines = [], []
        for record in records:
            record.pop("_started", None)
            line = json.dumps(record, sort_keys=True, default=str)
            if record.get("kind") == "profile":
                profile_lines.append(line)
            else:
                trace_lines.append(line)
        os.makedirs(self.trace_dir, exist_ok=True)
        path: Optional[str] = None
        if trace_lines:
            path = os.path.join(self.trace_dir, TRACE_FILENAME)
            self._append_file(path, trace_lines)
        if profile_lines:
            self._append_file(
                os.path.join(self.trace_dir, PROFILE_FILENAME), profile_lines
            )
        return path

    @staticmethod
    def _append_file(path: str, lines: List[str]) -> None:
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            while payload:
                written = os.write(fd, payload)
                payload = payload[written:]
        finally:
            os.close(fd)


# ----------------------------------------------------------------------
# activation: a process-wide stack of active tracers
# ----------------------------------------------------------------------
_ACTIVE: List[Tracer] = []


def get_tracer():
    """The innermost active tracer, or the no-op :data:`NULL_TRACER`."""
    active = _ACTIVE
    return active[-1] if active else NULL_TRACER


def activate(tracer: Tracer) -> None:
    """Push ``tracer`` onto the process-wide activation stack."""
    _ACTIVE.append(tracer)


def deactivate(tracer: Tracer) -> None:
    """Pop the most recent activation of ``tracer`` (no-op if absent)."""
    for index in range(len(_ACTIVE) - 1, -1, -1):
        if _ACTIVE[index] is tracer:
            del _ACTIVE[index]
            return


@contextmanager
def activated(tracer) -> Iterator[None]:
    """Activate ``tracer`` for the duration of the block.

    Accepts ``None`` or a :class:`NullTracer` (the block runs with the
    ambient tracer untouched), so call sites need no conditionals.
    """
    if not tracer:
        yield
        return
    activate(tracer)
    try:
        yield
    finally:
        deactivate(tracer)
