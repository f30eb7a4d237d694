"""Opt-in per-span profiling hooks: ``cProfile`` + ``tracemalloc``.

Profiling rides *next to* tracing: a :class:`ProfilingConfig` inside
:class:`~repro.telemetry.TelemetryConfig` tells every tracer joined to
the run to wrap its hot spans (pipeline stages, engine runs, pool
batches — :data:`PROFILED_SPANS`) in a deterministic ``cProfile``
capture and, optionally, a ``tracemalloc`` peak sample.  Each profiled
span emits one ``kind: "profile"`` record — the top-N functions by
cumulative time, schema-versioned, sorted keys — which
:meth:`~repro.telemetry.Tracer.flush` appends to ``profile*.jsonl``
*beside* the trace, never into it, so trace readers and the CI trace
smoke are unaffected.  ``repro trace profile`` renders the records.

The same two guarantees tracing established hold here:

* **Off by default, provably free.**  A tracer without a profiling
  config takes one ``is None`` branch per span; no profiler objects
  exist.  With no tracer at all nothing changes (the ``NullTracer``
  path is untouched).
* **Fingerprint-neutral when on.**  ``ProfilingConfig`` lives inside
  ``PipelineConfig.telemetry``, which no stage ``config_slice``
  projects — a profiled run produces byte-identical reports and
  unchanged fingerprints (pinned by tests and the CI profile smoke).
  ``cProfile`` is a deterministic (tracing, not sampling) profiler:
  it observes every call, changing only wall time, never results.

Nesting: ``cProfile`` cannot stack on one thread and ``tracemalloc``
is process-global, so only the *outermost* profiled span on a thread
captures (its capture covers the nested spans' functions anyway);
inner profiled spans simply pass through.
"""

from __future__ import annotations

import cProfile
import glob
import json
import os
import pstats
import threading
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

PROFILE_SCHEMA_VERSION = 1
PROFILE_FILENAME = "profile.jsonl"

#: Span names that get wrapped when profiling is on: the pipeline's
#: per-stage spans, the engine's per-run spans, and the pool-batch
#: spans (the only profiled span a pool process opens locally).
PROFILED_SPANS = frozenset({"stage", "propagation", "propagation.batch"})


@dataclass(frozen=True)
class ProfilingConfig:
    """Opt-in profiling rider on a :class:`TelemetryConfig`.

    Frozen and picklable like its carrier, so a sweep's profiling
    choice travels to pool processes inside the trace context.

    Attributes:
        top_n: Functions kept per span record, by cumulative time.
        memory: Also sample the ``tracemalloc`` peak across the span
            (costlier than ``cProfile`` — allocation tracing — but
            still deterministic).
    """

    top_n: int = 15
    memory: bool = True


def _function_label(func: tuple) -> str:
    """``file:lineno:name`` with the path collapsed to its basename —
    stable across checkouts, unique enough to find the code."""
    filename, lineno, name = func
    if filename.startswith("<"):  # builtins: ("~", 0, "<built-in ...>")
        return name if filename == "~" else f"{filename}:{name}"
    return f"{os.path.basename(filename)}:{lineno}:{name}"


class SpanProfiler:
    """Wraps span handles of one tracer in profile capture.

    Thread-safe: ``cProfile`` is per-thread (``sys.setprofile`` is
    thread-local), guarded by a thread-local depth flag;
    ``tracemalloc`` is process-global, guarded by a process-wide lock
    so concurrent profiled spans race for one memory sample instead of
    corrupting each other's peaks.
    """

    _MEMORY_LOCK = threading.Lock()
    _MEMORY_BUSY = False

    def __init__(self, config: ProfilingConfig) -> None:
        self.config = config
        self.span_names = PROFILED_SPANS
        self._local = threading.local()

    # -- capture -------------------------------------------------------
    def _acquire_memory(self) -> bool:
        if not self.config.memory:
            return False
        cls = SpanProfiler
        with cls._MEMORY_LOCK:
            if cls._MEMORY_BUSY or tracemalloc.is_tracing():
                return False
            cls._MEMORY_BUSY = True
        tracemalloc.start()
        return True

    def _release_memory(self) -> Optional[Dict[str, int]]:
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        cls = SpanProfiler
        with cls._MEMORY_LOCK:
            cls._MEMORY_BUSY = False
        return {"peak_kb": peak // 1024, "current_kb": current // 1024}

    def start(self) -> Optional[tuple]:
        """Begin capture for one span; ``None`` when already inside a
        profiled span on this thread (the outer capture covers us)."""
        if getattr(self._local, "active", False):
            return None
        self._local.active = True
        memory = self._acquire_memory()
        profiler = cProfile.Profile()
        profiler.enable()
        return (profiler, memory)

    def finish(self, token: tuple, span_record: Dict[str, object]) -> Dict[str, object]:
        """End capture and build the ``kind: "profile"`` record."""
        profiler, memory = token
        profiler.disable()
        memory_block = self._release_memory() if memory else None
        self._local.active = False

        stats = pstats.Stats(profiler)
        rows = []
        for func, (cc, nc, tt, ct, _callers) in stats.stats.items():  # type: ignore[attr-defined]
            if func[0] == __file__:
                continue  # our own harness frames
            label = _function_label(func)
            rows.append(
                {
                    "function": label,
                    "ncalls": nc,
                    "tottime": round(tt, 6),
                    "cumtime": round(ct, 6),
                }
            )
        # Deterministic order: cumulative time desc, label as tiebreak.
        rows.sort(key=lambda row: (-row["cumtime"], row["function"]))
        record: Dict[str, object] = {
            "kind": "profile",
            "schema_version": PROFILE_SCHEMA_VERSION,
            "run_id": span_record.get("run_id"),
            "span_id": span_record.get("span_id"),
            "name": span_record.get("name"),
            "attrs": dict(span_record.get("attrs") or {}),
            "top_functions": rows[: self.config.top_n],
            "total_calls": stats.total_calls,  # type: ignore[attr-defined]
            "pid": os.getpid(),
            "time": time.time(),
        }
        if memory_block is not None:
            record["memory"] = memory_block
        return record


class ProfiledSpanHandle:
    """A span handle wrapped in profile capture.

    Delegates the span lifecycle to the real handle; on exit (after the
    span record is finalized, so its attributes include everything
    ``annotate`` added) it hands the profile record to ``sink`` — the
    owning tracer's buffer append.
    """

    __slots__ = ("_handle", "_record", "_profiler", "_sink", "_token")

    def __init__(self, handle, record, profiler: SpanProfiler, sink: Callable) -> None:
        self._handle = handle
        self._record = record
        self._profiler = profiler
        self._sink = sink
        self._token: Optional[tuple] = None

    @property
    def span_id(self):
        return self._handle.span_id

    def annotate(self, **attrs) -> None:
        self._handle.annotate(**attrs)

    def __enter__(self) -> "ProfiledSpanHandle":
        self._token = self._profiler.start()
        self._handle.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        suppress = self._handle.__exit__(exc_type, exc, tb)
        if self._token is not None:
            self._sink(self._profiler.finish(self._token, self._record))
            self._token = None
        return suppress


# ----------------------------------------------------------------------
# reading profiles back (``repro trace profile``)
# ----------------------------------------------------------------------
def profile_files(trace_dir) -> List[str]:
    """All ``profile*.jsonl`` files of a trace directory, sorted."""
    return sorted(glob.glob(os.path.join(os.fspath(trace_dir), "profile*.jsonl")))


def read_profiles(trace_dir) -> List[dict]:
    """Every profile record under ``trace_dir``.

    Raises ``FileNotFoundError`` when the directory holds no profile
    files and ``ValueError`` on an unparsable interior line; a torn
    final line (a concurrent writer mid-append) is skipped, matching
    :func:`repro.telemetry.analyze.read_trace`.
    """
    from repro.telemetry.analyze import parse_jsonl

    files = profile_files(trace_dir)
    if not files:
        raise FileNotFoundError(f"no profile*.jsonl files under {trace_dir!r}")
    records: List[dict] = []
    for path in files:
        records.extend(parse_jsonl(path))
    return records


def profile_rollup(records: Sequence[dict], top_n: int = 10) -> Dict[str, dict]:
    """Aggregate profile records per profiled unit.

    Records group by the most specific label available — the stage name
    for ``stage`` spans, the backend for engine spans, else the span
    name — and their function rows merge by function label (cumulative
    and total times summed, call counts summed), re-ranked by
    cumulative time.
    """
    groups: Dict[str, dict] = {}
    for record in records:
        attrs = record.get("attrs") or {}
        name = str(record.get("name"))
        if attrs.get("stage"):
            label = f"stage:{attrs['stage']}"
        elif attrs.get("backend"):
            label = f"{name}:{attrs['backend']}"
        else:
            label = name
        group = groups.setdefault(
            label,
            {"records": 0, "total_calls": 0, "functions": {}, "peak_kb": 0},
        )
        group["records"] += 1
        group["total_calls"] += int(record.get("total_calls") or 0)
        memory = record.get("memory") or {}
        group["peak_kb"] = max(group["peak_kb"], int(memory.get("peak_kb") or 0))
        for row in record.get("top_functions") or []:
            entry = group["functions"].setdefault(
                str(row.get("function")),
                {"ncalls": 0, "tottime": 0.0, "cumtime": 0.0},
            )
            entry["ncalls"] += int(row.get("ncalls") or 0)
            entry["tottime"] += float(row.get("tottime") or 0.0)
            entry["cumtime"] += float(row.get("cumtime") or 0.0)
    rollup: Dict[str, dict] = {}
    for label, group in sorted(groups.items()):
        functions = [
            {"function": function, **{k: round(v, 6) if isinstance(v, float) else v
                                      for k, v in entry.items()}}
            for function, entry in group["functions"].items()
        ]
        functions.sort(key=lambda row: (-row["cumtime"], row["function"]))
        rollup[label] = {
            "records": group["records"],
            "total_calls": group["total_calls"],
            "peak_kb": group["peak_kb"],
            "top_functions": functions[:top_n],
        }
    return rollup


def render_profiles(records: Sequence[dict], top_n: int = 10) -> List[str]:
    """Human-readable lines behind ``repro trace profile``."""
    rollup = profile_rollup(records, top_n=top_n)
    lines: List[str] = []
    for label, group in rollup.items():
        peak = f", peak {group['peak_kb']:,} kB" if group["peak_kb"] else ""
        lines.append(
            f"{label}  x{group['records']} "
            f"({group['total_calls']:,} calls{peak})"
        )
        if group["top_functions"]:
            lines.append("    cumtime  tottime  ncalls  function")
        for row in group["top_functions"]:
            lines.append(
                f"   {row['cumtime']:8.3f} {row['tottime']:8.3f} "
                f"{row['ncalls']:>7}  {row['function']}"
            )
    return lines


def dump_profiles(records: Sequence[dict]) -> str:
    """Stable JSONL serialization for tests/tools (sorted keys)."""
    return "\n".join(json.dumps(record, sort_keys=True, default=str) for record in records)
