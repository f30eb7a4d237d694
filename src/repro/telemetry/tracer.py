"""Process-local tracer: nested spans, counters and gauges.

The tracer is deliberately tiny and stdlib-only.  A :class:`Tracer`
collects finished records in memory (thread-safe) and appends them to
``trace.jsonl`` in its trace directory on :meth:`Tracer.flush` — one
JSON object per line, ``schema_version`` + sorted keys like every other
report in the repo.  Appends go through a single ``O_APPEND`` write so
several processes (sweep pool workers) can share one
file without interleaving mid-line; readers additionally glob
``trace*.jsonl`` so per-process files merge too.

Telemetry is **off by default**: :func:`get_tracer` returns the shared
:data:`NULL_TRACER` unless something activated a real tracer, and every
``NullTracer`` operation is a constant-time no-op on shared singletons
(no allocation, no locking — the disabled path is benchmark-guarded by
``tests/test_telemetry.py``).  Instrumented code therefore calls
``get_tracer()`` unconditionally; spans and counters cost nothing until
someone opts in via ``--trace-dir`` or
:class:`~repro.telemetry.TelemetryConfig`.

Cross-process propagation uses :class:`TelemetryConfig` as the trace
*context*: run id + parent span id + trace directory.  It is a small
frozen dataclass, picklable, and rides inside
``PipelineConfig.telemetry`` — which no stage ``config_slice`` ever
projects, so tracing a run never changes a fingerprint or an output
byte (pinned by the fingerprint-neutrality tests and the CI trace
smoke).
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional

from repro.telemetry.profile import (
    PROFILE_FILENAME,
    ProfiledSpanHandle,
    ProfilingConfig,
    SpanProfiler,
)

TRACE_SCHEMA_VERSION = 1
TRACE_FILENAME = "trace.jsonl"


@dataclass(frozen=True)
class TelemetryConfig:
    """Trace context: where to write and how to join an existing tree.

    Attributes:
        trace_dir: Directory receiving ``trace.jsonl``; ``None`` keeps
            telemetry off (the default — a disabled config is inert and
            fingerprint-neutral).
        run_id: Trace/run identifier shared by every span of one
            logical run (a sweep stamps its own onto every scenario so
            all workers' spans merge into one tree).
        parent_span_id: Span the receiving process should parent its
            root spans under (e.g. a sweep's wave span).
        profiling: Opt-in :class:`~repro.telemetry.ProfilingConfig`
            riding with the context, so every process joined to the
            run profiles the same spans.  ``None`` (the default) keeps
            profiling off; like the rest of this config it is in no
            stage's config slice, so turning it on never changes a
            fingerprint or an output byte.
    """

    trace_dir: Optional[str] = None
    run_id: Optional[str] = None
    parent_span_id: Optional[str] = None
    profiling: Optional[ProfilingConfig] = None

    @property
    def enabled(self) -> bool:
        return self.trace_dir is not None

    def child(self, parent_span_id: Optional[str]) -> "TelemetryConfig":
        """The same context re-rooted under ``parent_span_id``."""
        return replace(self, parent_span_id=parent_span_id)


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
    run_id = None
    parent_span_id = None
    trace_dir = None
    pid = None

    def __bool__(self) -> bool:
        return False

    def span(self, name, parent_id=None, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name, value=1, **attrs) -> None:
        pass

    def gauge(self, name, value, **attrs) -> None:
        pass

    def current_span_id(self) -> None:
        return None

    def context(self, parent_span_id=None) -> None:
        return None

    def flush(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans/counters/gauges; thread-safe; flushes to JSONL.

    Span parentage is per-thread (a thread-local stack of open spans);
    a span opened on a thread with no open span parents to
    ``parent_span_id`` — the join point handed over in the trace
    context — unless an explicit ``parent_id`` is given.
    """

    def __init__(
        self,
        trace_dir,
        *,
        run_id: Optional[str] = None,
        parent_span_id: Optional[str] = None,
        filename: str = TRACE_FILENAME,
        profiling: Optional[ProfilingConfig] = None,
    ) -> None:
        self.trace_dir = os.fspath(trace_dir) if trace_dir is not None else None
        self.run_id = run_id or _new_id()
        self.parent_span_id = parent_span_id
        self.filename = filename
        #: Opt-in per-span profiling (``None`` = off; the disabled path
        #: is a single ``is None`` branch per span).
        self.profiling = profiling
        self._profiler = SpanProfiler(profiling) if profiling is not None else None
        #: Creating process — a fork-inherited copy of a tracer is
        #: recognizable by ``tracer.pid != os.getpid()`` (its buffer
        #: belongs to the parent; children must not flush it).
        self.pid = os.getpid()
        self._records: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def __bool__(self) -> bool:
        return True

    @classmethod
    def from_config(cls, config: TelemetryConfig) -> "Tracer":
        return cls(
            config.trace_dir,
            run_id=config.run_id,
            parent_span_id=config.parent_span_id,
            profiling=getattr(config, "profiling", None),
        )

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span_id(self) -> Optional[str]:
        """The innermost open span on this thread (or the context parent)."""
        stack = self._stack()
        return stack[-1] if stack else self.parent_span_id

    def span(self, name: str, parent_id: Optional[str] = None, **attrs) -> _SpanHandle:
        """Open a nested span; close it by exiting the context manager."""
        stack = self._stack()
        if parent_id is None:
            parent_id = stack[-1] if stack else self.parent_span_id
        record: Dict[str, object] = {
            "kind": "span",
            "schema_version": TRACE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "span_id": _new_id(),
            "parent_id": parent_id,
            "name": name,
            "attrs": dict(attrs),
            "status": "ok",
            "start_time": time.time(),
            "pid": os.getpid(),
            "_started": time.perf_counter(),
        }
        stack.append(record["span_id"])
        handle = _SpanHandle(self, record)
        if self._profiler is not None and name in self._profiler.span_names:
            return ProfiledSpanHandle(handle, record, self._profiler, self._append)
        return handle

    def _finish_span(self, record: Dict[str, object]) -> None:
        stack = self._stack()
        if stack and stack[-1] == record["span_id"]:
            stack.pop()
        with self._lock:
            self._records.append(record)

    def _append(self, record: Dict[str, object]) -> None:
        """Buffer a ready-made record (profile records use this)."""
        with self._lock:
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
        with self._lock:
            self._records.append(record)

    def context(self, parent_span_id: Optional[str] = None) -> TelemetryConfig:
        """A picklable trace context joining new spans to this tracer."""
        if parent_span_id is None:
            parent_span_id = self.current_span_id()
        return TelemetryConfig(
            trace_dir=self.trace_dir,
            run_id=self.run_id,
            parent_span_id=parent_span_id,
            profiling=self.profiling,
        )

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """Snapshot of the unflushed records (tests, introspection)."""
        with self._lock:
            return [dict(record) for record in self._records]

    def flush(self) -> Optional[str]:
        """Append all buffered records to ``<trace_dir>/<filename>``.

        The whole batch goes through one ``O_APPEND`` write, so flushes
        from concurrent processes never interleave mid-line.  Profile
        records flush the same way but to ``profile.jsonl`` — beside
        the trace, never into it, so ``trace*.jsonl`` readers see only
        span/counter records.  Returns the trace path written (``None``
        when nothing was buffered or the tracer has no trace
        directory).
        """
        with self._lock:
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
            path = os.path.join(self.trace_dir, self.filename)
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
_ACTIVE_LOCK = threading.Lock()


def get_tracer():
    """The innermost active tracer, or the no-op :data:`NULL_TRACER`."""
    active = _ACTIVE
    return active[-1] if active else NULL_TRACER


def activate(tracer: Tracer) -> None:
    """Push ``tracer`` onto the process-wide activation stack."""
    with _ACTIVE_LOCK:
        _ACTIVE.append(tracer)


def deactivate(tracer: Tracer) -> None:
    """Pop the most recent activation of ``tracer`` (no-op if absent)."""
    with _ACTIVE_LOCK:
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
