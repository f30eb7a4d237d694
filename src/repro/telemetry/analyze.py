"""Read, join and roll up trace files written by :mod:`repro.telemetry`.

A trace directory holds one or more ``trace*.jsonl`` files; several
``repro`` runs may append to one.  :func:`read_trace` merges them;
:func:`build_tree` reassembles one span tree per run (each run stamps
its own ``run_id``);
:func:`summarize` produces the per-stage / per-engine / counter
rollups behind ``repro trace summary``.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

#: Schema version of the :func:`summarize` payload.  v3: engine rollups
#: lost their ``phases`` entry (the engine has one phase, its span).
#: v4: stage rollups lost their separate verify time (a hit is read
#: once, by its load).  v5: engine rollups split by method (``solve``
#: or ``replay``) under ``methods``.  v6: ``commands`` rolls up the CLI's
#: ``command`` root spans (wall time, time outside every stage, startup
#: CPU).  v7: stage rollups gained ``self_seconds`` (a stage's span
#: holds its cache lookup, the stages it resolves upstream and its cache
#: write), and ``cache`` rolls up the ``cache.load`` and ``cache.store``
#: spans.  v8: stage rollups gained ``released`` and ``max_rss_kb``, and
#: command rollups ``max_rss_kb``, ``peak_stage`` and ``tracer_seconds``.
#: v9: command rollups name where the peak was read (``rss_source``:
#: ``VmHWM`` or ``ru_maxrss``; ``None`` for spans that do not say).
SUMMARY_SCHEMA_VERSION = 9

#: The spans a stage's self time leaves out: the stages it resolves
#: upstream, and its cache reads and writes.
_NESTED_WORK = ("stage", "cache.load", "cache.store")


def trace_files(trace_dir) -> List[str]:
    """All ``trace*.jsonl`` files of a trace directory, sorted."""
    return sorted(glob.glob(os.path.join(os.fspath(trace_dir), "trace*.jsonl")))


def parse_jsonl(path) -> List[dict]:
    """Parse one JSONL file, tolerating exactly one *torn* final line.

    A concurrent writer appends whole lines atomically (``O_APPEND``,
    single write), so the only benign malformation a live reader can
    observe is a final line still mid-write: last line of the file,
    no trailing newline.  That record is skipped — it will be complete
    on the next read.  Any *other* unparsable line is real corruption
    and raises ``ValueError``: the CI smoke gate relies on a malformed
    trace failing loudly.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    torn_tail = bool(text) and not text.endswith("\n")
    lines = text.split("\n")
    records: List[dict] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except json.JSONDecodeError as exc:
            if torn_tail and lineno == len(lines):
                continue  # a concurrent append caught mid-write
            raise ValueError(f"{path}:{lineno}: unparsable trace line") from exc
    return records


def read_trace(trace_dir) -> List[dict]:
    """Every record of every trace file in ``trace_dir``.

    Raises ``FileNotFoundError`` when the directory holds no trace
    files and ``ValueError`` on an unparsable line; a torn final line
    (a live run's flush caught mid-append) is skipped, so the trace of
    a running sweep can be read (see :func:`parse_jsonl`).
    """
    files = trace_files(trace_dir)
    if not files:
        raise FileNotFoundError(f"no trace*.jsonl files under {trace_dir!r}")
    records: List[dict] = []
    for path in files:
        records.extend(parse_jsonl(path))
    return records


def spans_of(records: Sequence[dict]) -> List[dict]:
    return [record for record in records if record.get("kind") == "span"]


def counters_of(records: Sequence[dict]) -> List[dict]:
    return [record for record in records if record.get("kind") == "counter"]


# ----------------------------------------------------------------------
# tree assembly
# ----------------------------------------------------------------------
def build_tree(records: Sequence[dict]) -> Tuple[List[dict], List[dict]]:
    """Reassemble the span forest: ``(roots, orphans)``.

    A span is a *root* when it has no parent id; an *orphan* when its
    parent id does not resolve to any span in the record set (a trace
    file is missing or a flush was lost).  Children are attached under
    a ``"children"`` key, ordered by start time.
    """
    spans = spans_of(records)
    by_id: Dict[str, dict] = {}
    for span in spans:
        node = dict(span)
        node["children"] = []
        by_id[span["span_id"]] = node
    roots: List[dict] = []
    orphans: List[dict] = []
    for span in spans:
        node = by_id[span["span_id"]]
        parent_id = span.get("parent_id")
        if parent_id is None:
            roots.append(node)
        elif parent_id in by_id:
            by_id[parent_id]["children"].append(node)
        else:
            orphans.append(node)
    for node in by_id.values():
        node["children"].sort(key=lambda child: child.get("start_time", 0.0))
    roots.sort(key=lambda node: node.get("start_time", 0.0))
    orphans.sort(key=lambda node: node.get("start_time", 0.0))
    return roots, orphans


def render_tree(records: Sequence[dict], max_attrs: int = 4) -> List[str]:
    """Human-readable indented span tree (``repro trace show``)."""
    roots, orphans = build_tree(records)
    lines: List[str] = []

    preferred = ("stage", "backend", "status", "scenario", "method",
                 "method_reason", "events", "engine", "targets")

    def describe(node: dict) -> str:
        attrs = node.get("attrs") or {}
        shown = [f"{key}={attrs[key]}" for key in preferred if key in attrs]
        if not shown:
            shown = [f"{k}={attrs[k]}" for k in sorted(attrs)[:max_attrs]]
        status = node.get("status", "ok")
        marker = "" if status == "ok" else f" [{status}]"
        detail = f" ({', '.join(shown[:max_attrs])})" if shown else ""
        return f"{node['name']}{marker} {node.get('seconds', 0.0):.3f}s{detail}"

    # Iterative walk: a pathological trace (a recursion bug in traced
    # code) can nest deeper than Python's recursion limit, and a render
    # tool must not crash on the traces it exists to debug.
    stack = [(root, 0) for root in reversed(roots)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + describe(node))
        stack.extend((child, depth + 1) for child in reversed(node["children"]))
    for orphan in orphans:
        lines.append(f"ORPHAN {describe(orphan)}")
    return lines


# ----------------------------------------------------------------------
# rollups
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def _duration_rollup(durations: List[float]) -> Dict[str, float]:
    return {
        "count": len(durations),
        "total_seconds": round(sum(durations), 6),
        "p50_seconds": round(percentile(durations, 0.50), 6),
        "p95_seconds": round(percentile(durations, 0.95), 6),
    }


def _interval(span: dict) -> Tuple[float, float]:
    start = float(span.get("start_time", 0.0))
    return start, start + float(span.get("seconds", 0.0))


def _stage_cover(spans: Sequence[dict]) -> List[List[float]]:
    """The union of the ``stage`` spans' intervals, merged and sorted
    (overlapping stage spans — two runs traced into one directory at
    once — count once)."""
    covered: List[List[float]] = []
    for start, end in sorted(_interval(s) for s in spans if s.get("name") == "stage"):
        if covered and start <= covered[-1][1]:
            covered[-1][1] = max(covered[-1][1], end)
        else:
            covered.append([start, end])
    return covered


def _outside(span: dict, covered: List[List[float]]) -> Tuple[float, float]:
    """``(wall, outside)``: a span's wall time and the part of it no
    interval of ``covered`` overlaps."""
    start, end = _interval(span)
    inside = sum(max(0.0, min(end, e) - max(start, s)) for s, e in covered)
    return end - start, end - start - inside


def root_accounting(records: Sequence[dict]) -> Tuple[float, float]:
    """``(root_seconds, unattributed_seconds)`` of a trace.

    ``root_seconds`` is the wall time of the root spans (the whole
    traced run); ``unattributed_seconds`` is the part of it that no
    ``stage`` span covers — argument parsing, runner bookkeeping
    between stages, report writing and the sweep's own work between
    scenarios.
    """
    spans = spans_of(records)
    covered = _stage_cover(spans)
    root_seconds = unattributed = 0.0
    for span in spans:
        if span.get("parent_id") is None:
            wall, outside = _outside(span, covered)
            root_seconds += wall
            unattributed += outside
    return round(root_seconds, 6), round(unattributed, 6)


def _peak_stage(command: dict, stages: Sequence[dict]) -> Optional[str]:
    """The first of a command's ``stage`` spans, by close, whose
    ``max_rss_kb`` reached the command's; ``None`` when the peak came
    after every stage (or no RSS was recorded)."""
    peak = (command.get("attrs") or {}).get("max_rss_kb")
    if not peak:
        return None
    for span in sorted(stages, key=lambda span: _interval(span)[1]):
        attrs = span.get("attrs") or {}
        if (attrs.get("max_rss_kb") or 0) >= peak:
            return str(attrs.get("stage"))
    return None


def command_rollup(records: Sequence[dict]) -> Dict[str, dict]:
    """Per CLI command (``section3``, ``figure2`` ...), its ``command``
    spans' count, wall time, the part of it outside every stage, the
    CPU time the processes spent before ``main`` (interpreter start plus
    imports, the ``startup_cpu_seconds`` attribute) and the tracer's own
    time (``tracer_seconds``); and the highest peak RSS any of them
    closed with (``max_rss_kb``), where it was read (``rss_source``)
    and the first stage of that command whose close already reached it
    (``peak_stage``, see :func:`_peak_stage`)."""
    spans = spans_of(records)
    covered = _stage_cover(spans)
    by_id = {span.get("span_id"): span for span in spans}
    stages_under: Dict[str, List[dict]] = {}
    for span in spans:
        if span.get("name") != "stage":
            continue
        outer = by_id.get(span.get("parent_id"))
        while outer is not None and outer.get("name") != "command":
            outer = by_id.get(outer.get("parent_id"))
        if outer is not None:
            stages_under.setdefault(outer.get("span_id"), []).append(span)
    rollup: Dict[str, dict] = {}
    for span in spans:
        if span.get("name") != "command":
            continue
        attrs = span.get("attrs") or {}
        entry = rollup.setdefault(
            str(attrs.get("command")),
            {"count": 0, "wall_seconds": 0.0, "outside_stages_seconds": 0.0,
             "startup_cpu_seconds": 0.0, "tracer_seconds": 0.0,
             "max_rss_kb": 0, "rss_source": None, "peak_stage": None},
        )
        wall, outside = _outside(span, covered)
        entry["count"] += 1
        entry["wall_seconds"] += wall
        entry["outside_stages_seconds"] += outside
        entry["startup_cpu_seconds"] += float(attrs.get("startup_cpu_seconds") or 0.0)
        entry["tracer_seconds"] += float(attrs.get("tracer_seconds") or 0.0)
        max_rss_kb = int(attrs.get("max_rss_kb") or 0)
        if max_rss_kb > entry["max_rss_kb"]:
            entry["max_rss_kb"] = max_rss_kb
            entry["rss_source"] = attrs.get("rss_source")
            entry["peak_stage"] = _peak_stage(
                span, stages_under.get(span.get("span_id"), [])
            )
    for entry in rollup.values():
        for key in ("wall_seconds", "outside_stages_seconds", "startup_cpu_seconds",
                    "tracer_seconds"):
            entry[key] = round(entry[key], 6)
    return rollup


def _engine_rollup(spans: List[dict]) -> dict:
    """Count, timings, events and prefixes of some ``propagation`` spans."""
    rollup = _duration_rollup([float(span.get("seconds", 0.0)) for span in spans])
    for key in ("events", "prefixes"):
        rollup[key] = sum(int((span.get("attrs") or {}).get(key) or 0) for span in spans)
    return rollup


def _cache_rollup(spans: Sequence[dict]) -> Dict[str, dict]:
    """Count, seconds and bytes of the ``cache.load`` and ``cache.store``
    spans (a load that found nothing counts with 0 bytes)."""
    rollup = {}
    for kind in ("load", "store"):
        timed = [span for span in spans if span.get("name") == f"cache.{kind}"]
        rollup[kind] = {
            "count": len(timed),
            "total_seconds": round(sum(float(s.get("seconds", 0.0)) for s in timed), 6),
            "bytes": sum(int((s.get("attrs") or {}).get("bytes") or 0) for s in timed),
        }
    return rollup


def summarize(records: Sequence[dict], trace_dir: Optional[str] = None) -> dict:
    """The ``repro trace summary`` payload: rollups over one trace dir.

    Per-stage rollups (count, total, p50/p95, self time, computed vs
    cached and the cache hit rate, artifact bytes, how often a run
    skipped the stage because a descendant hit the cache or released it
    after its last consumer, and the highest peak RSS a span of the
    stage closed with), per-engine
    rollups (count,
    timings, events, prefixes, and the same split by the ``method`` each
    ``propagation`` span ran), aggregated counters, tree health (roots /
    orphans), per-command rollups of the CLI's ``command`` spans
    (:func:`command_rollup`), the cache's reads and writes
    (:func:`_cache_rollup`), and the root wall time with the part of it
    outside every stage (:func:`root_accounting`).

    A stage's total covers everything its span holds; its self time
    leaves out the stages it resolved upstream and its cache reads and
    writes, so the stages' self times and the cache's seconds add up to
    the time under stage spans.
    """
    spans = spans_of(records)
    roots, orphans = build_tree(records)

    nested: Dict[str, float] = {}
    for span in spans:
        if span.get("name") in _NESTED_WORK and span.get("parent_id") is not None:
            parent = span["parent_id"]
            nested[parent] = nested.get(parent, 0.0) + float(span.get("seconds", 0.0))

    stages: Dict[str, dict] = {}

    def stage_entry(name) -> dict:
        return stages.setdefault(
            str(name),
            {"durations": [], "self_seconds": 0.0, "computed": 0, "cached": 0,
             "skipped": 0, "released": 0, "artifact_bytes": 0, "errors": 0,
             "max_rss_kb": 0},
        )

    for span in spans:
        attrs = span.get("attrs") or {}
        if span.get("name") == "pipeline":
            for key in ("skipped", "released"):
                if attrs.get(key):
                    for name in str(attrs[key]).split(","):
                        stage_entry(name)[key] += 1
        if span.get("name") != "stage":
            continue
        entry = stage_entry(attrs.get("stage"))
        seconds = float(span.get("seconds", 0.0))
        entry["durations"].append(seconds)
        entry["self_seconds"] += seconds - nested.get(span.get("span_id"), 0.0)
        status = attrs.get("status")
        if status in ("computed", "cached"):
            entry[status] += 1
        if span.get("status") != "ok":
            entry["errors"] += 1
        entry["artifact_bytes"] += int(attrs.get("artifact_bytes") or 0)
        entry["max_rss_kb"] = max(entry["max_rss_kb"], int(attrs.get("max_rss_kb") or 0))
    stage_rollup = {}
    for name, entry in stages.items():
        lookups = entry["computed"] + entry["cached"]
        rollup = _duration_rollup(entry["durations"])
        rollup.update(
            self_seconds=round(entry["self_seconds"], 6),
            computed=entry["computed"],
            cached=entry["cached"],
            skipped=entry["skipped"],
            released=entry["released"],
            errors=entry["errors"],
            cache_hit_rate=round(entry["cached"] / lookups, 4) if lookups else 0.0,
            artifact_bytes=entry["artifact_bytes"],
            max_rss_kb=entry["max_rss_kb"],
        )
        stage_rollup[name] = rollup

    engines: Dict[str, List[dict]] = {}
    for span in spans:
        if span.get("name") == "propagation":
            backend = str((span.get("attrs") or {}).get("backend", "unknown"))
            engines.setdefault(backend, []).append(span)
    engine_rollup = {}
    for backend, runs in engines.items():
        by_method: Dict[str, List[dict]] = {}
        for span in runs:
            method = str((span.get("attrs") or {}).get("method", "unknown"))
            by_method.setdefault(method, []).append(span)
        engine_rollup[backend] = _engine_rollup(runs)
        engine_rollup[backend]["methods"] = {
            method: _engine_rollup(grouped) for method, grouped in by_method.items()
        }

    counters: Dict[str, float] = {}
    for record in counters_of(records):
        name = str(record.get("name"))
        counters[name] = counters.get(name, 0) + record.get("value", 1)

    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "files": len(trace_files(trace_dir)) if trace_dir is not None else None,
        "runs": sorted({str(r.get("run_id")) for r in records if r.get("run_id")}),
        "spans": {
            "total": len(spans),
            "roots": len(roots),
            "orphans": len(orphans),
            "errors": sum(1 for span in spans if span.get("status") != "ok"),
        },
        "stages": stage_rollup,
        "engines": engine_rollup,
        "counters": counters,
        "cache": _cache_rollup(spans),
        "commands": command_rollup(records),
    }
    summary["root_seconds"], summary["unattributed_seconds"] = root_accounting(records)
    return summary
