"""Process-local tracer: nested spans and counters.

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

Every span of a real tracer records the process's peak resident set
size at its close (``max_rss_kb``, in kilobytes) and where the tracer
read it (``rss_source``).  Where ``/proc/self/status`` exists the source
is ``VmHWM``, the process's own high-water mark.  Elsewhere it is
``ru_maxrss`` from ``getrusage``, which on Linux carries a spawning
process's peak across ``exec``: a command started from a process
holding 150 MB read 167 MB there against its own 8.5 MB, so it is only
the fallback.  ``resource`` is imported only then.
:attr:`Tracer.own_seconds` is the time the tracer has spent in span and
counter bookkeeping.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

TRACE_SCHEMA_VERSION = 1
TRACE_FILENAME = "trace.jsonl"


def _vmhwm_kb() -> Optional[int]:
    """The process's own peak RSS in kB (``VmHWM`` of
    ``/proc/self/status``), or ``None`` where that is not available."""
    try:
        with open("/proc/self/status", "rb") as status:
            data = status.read()
    except OSError:
        return None
    start = data.find(b"VmHWM:")
    if start < 0:
        return None
    return int(data[start + 6 : data.index(b"kB", start)])


def _new_id() -> str:
    """16 random hex digits (``uuid`` would cost every CLI start its
    import, and ``platform``'s)."""
    return os.urandom(8).hex()


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
        tracer = self._tracer
        ended = time.perf_counter()
        record["seconds"] = round(ended - record.pop("_started"), 6)
        record["end_time"] = time.time()
        if exc is not None:
            record["status"] = "error"
            self._attrs.setdefault("error", f"{type(exc).__name__}: {exc}")
        self._attrs["max_rss_kb"] = tracer._max_rss_kb()
        self._attrs["rss_source"] = tracer.rss_source
        tracer._finish_span(record)
        tracer.own_seconds += time.perf_counter() - ended
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

    def flush(self) -> None:
        return None


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans and counters; flushes to JSONL.

    Span parentage follows one stack of open spans: a span opened with
    no span open is a root.  :attr:`own_seconds` accumulates the time
    spent opening and closing spans and recording counters.
    """

    def __init__(self, trace_dir, *, run_id: Optional[str] = None) -> None:
        self.trace_dir = os.fspath(trace_dir) if trace_dir is not None else None
        self.run_id = run_id or _new_id()
        self.own_seconds = 0.0
        self._records: List[Dict[str, object]] = []
        self._stack: List[str] = []  # ids of the open spans, innermost last
        if _vmhwm_kb() is not None:
            self.rss_source = "VmHWM"
            self._max_rss_kb = _vmhwm_kb
        else:
            import resource

            self.rss_source = "ru_maxrss"
            self._max_rss_kb = lambda: resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss

    def __bool__(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def current_span_id(self) -> Optional[str]:
        """The innermost open span (``None`` when no span is open)."""
        return self._stack[-1] if self._stack else None

    def span(
        self, name: str, *, since: Optional[Tuple[float, float]] = None, **attrs
    ) -> _SpanHandle:
        """Open a span nested in the innermost open one; close it by
        exiting the context manager.

        ``since`` backdates the span's start to an earlier
        ``(time.time(), time.perf_counter())`` reading, for work that
        began before the tracer existed (the CLI's ``command`` span
        starts when ``main`` is entered).
        """
        entered = time.perf_counter()
        wall, started = since or (time.time(), entered)
        record: Dict[str, object] = {
            "kind": "span",
            "schema_version": TRACE_SCHEMA_VERSION,
            "run_id": self.run_id,
            "span_id": _new_id(),
            "parent_id": self.current_span_id(),
            "name": name,
            "attrs": dict(attrs),
            "status": "ok",
            "start_time": wall,
            "pid": os.getpid(),
            "_started": started,
        }
        self._stack.append(record["span_id"])
        handle = _SpanHandle(self, record)
        self.own_seconds += time.perf_counter() - entered
        return handle

    def _finish_span(self, record: Dict[str, object]) -> None:
        if self._stack and self._stack[-1] == record["span_id"]:
            self._stack.pop()
        self._records.append(record)

    def counter(self, name: str, value: int = 1, **attrs) -> None:
        entered = time.perf_counter()
        record = {
            "kind": "counter",
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
        self.own_seconds += time.perf_counter() - entered

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """Snapshot of the unflushed records (tests, introspection)."""
        return [dict(record) for record in self._records]

    def flush(self) -> Optional[str]:
        """Append all buffered records to ``<trace_dir>/trace.jsonl``.

        The whole batch goes through one ``O_APPEND`` write, so flushes
        from concurrent ``repro`` processes never interleave mid-line.
        Returns the trace path written (``None`` when nothing was
        buffered or the tracer has no trace directory).
        """
        records, self._records = self._records, []
        if not records or self.trace_dir is None:
            return None
        lines = []
        for record in records:
            record.pop("_started", None)
            lines.append(json.dumps(record, sort_keys=True, default=str))
        os.makedirs(self.trace_dir, exist_ok=True)
        path = os.path.join(self.trace_dir, TRACE_FILENAME)
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        fd = os.open(path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            while payload:
                written = os.write(fd, payload)
                payload = payload[written:]
        finally:
            os.close(fd)
        return path


# ----------------------------------------------------------------------
# activation: a process-wide stack of active tracers
# ----------------------------------------------------------------------
_ACTIVE: List[Tracer] = []


def get_tracer():
    """The innermost active tracer, or the no-op :data:`NULL_TRACER`."""
    active = _ACTIVE
    return active[-1] if active else NULL_TRACER


@contextmanager
def activated(tracer) -> Iterator[None]:
    """Push ``tracer`` onto the activation stack for the duration of the
    block; activations nest and the innermost one wins.

    Accepts ``None`` or a :class:`NullTracer` (the block runs with the
    ambient tracer untouched), so call sites need no conditionals.
    """
    if not tracer:
        yield
        return
    _ACTIVE.append(tracer)
    try:
        yield
    finally:
        for index in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[index] is tracer:
                del _ACTIVE[index]
                break
