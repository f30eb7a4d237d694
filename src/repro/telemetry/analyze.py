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

SUMMARY_SCHEMA_VERSION = 2


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

    preferred = ("stage", "backend", "status", "scenario", "engine",
                 "events", "targets")

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


def root_accounting(records: Sequence[dict]) -> Tuple[float, float]:
    """``(root_seconds, unattributed_seconds)`` of a trace.

    ``root_seconds`` is the wall time of the root spans (the whole
    traced run); ``unattributed_seconds`` is the part of it that no
    ``stage`` span covers — runner bookkeeping between stages and the
    sweep's own work between scenarios.  Overlapping stage spans
    (two runs traced into one directory at once) count once.
    """
    spans = spans_of(records)
    covered: List[List[float]] = []
    for start, end in sorted(_interval(s) for s in spans if s.get("name") == "stage"):
        if covered and start <= covered[-1][1]:
            covered[-1][1] = max(covered[-1][1], end)
        else:
            covered.append([start, end])
    root_seconds = unattributed = 0.0
    for span in spans:
        if span.get("parent_id") is not None:
            continue
        start, end = _interval(span)
        inside = sum(max(0.0, min(end, e) - max(start, s)) for s, e in covered)
        root_seconds += end - start
        unattributed += end - start - inside
    return round(root_seconds, 6), round(unattributed, 6)


def summarize(records: Sequence[dict], trace_dir: Optional[str] = None) -> dict:
    """The ``repro trace summary`` payload: rollups over one trace dir.

    Per-stage rollups (count, total, p50/p95, computed vs cached and
    the cache hit rate, artifact bytes), per-engine rollups (events,
    per-phase timings), aggregated counters, tree health (roots /
    orphans), and the root wall time with the part of it outside every
    stage (:func:`root_accounting`).
    """
    spans = spans_of(records)
    roots, orphans = build_tree(records)

    stages: Dict[str, dict] = {}
    for span in spans:
        if span.get("name") != "stage":
            continue
        attrs = span.get("attrs") or {}
        entry = stages.setdefault(
            str(attrs.get("stage")),
            {"durations": [], "computed": 0, "cached": 0,
             "artifact_bytes": 0, "verify_seconds": 0.0, "errors": 0},
        )
        entry["durations"].append(float(span.get("seconds", 0.0)))
        status = attrs.get("status")
        if status in ("computed", "cached"):
            entry[status] += 1
        if span.get("status") != "ok":
            entry["errors"] += 1
        entry["artifact_bytes"] += int(attrs.get("artifact_bytes") or 0)
        entry["verify_seconds"] += float(attrs.get("verify_seconds") or 0.0)
    stage_rollup = {}
    for name, entry in stages.items():
        lookups = entry["computed"] + entry["cached"]
        rollup = _duration_rollup(entry["durations"])
        rollup.update(
            computed=entry["computed"],
            cached=entry["cached"],
            errors=entry["errors"],
            cache_hit_rate=round(entry["cached"] / lookups, 4) if lookups else 0.0,
            artifact_bytes=entry["artifact_bytes"],
            verify_seconds=round(entry["verify_seconds"], 6),
        )
        stage_rollup[name] = rollup

    engines: Dict[str, dict] = {}
    phase_names = ("propagation.propagate",)
    phase_groups: Dict[str, Dict[str, List[float]]] = {}
    for span in spans:
        name = span.get("name")
        attrs = span.get("attrs") or {}
        if name == "propagation":
            backend = str(attrs.get("backend", "unknown"))
            entry = engines.setdefault(
                backend,
                {"durations": [], "events": 0, "prefixes": 0},
            )
            entry["durations"].append(float(span.get("seconds", 0.0)))
            entry["events"] += int(attrs.get("events") or 0)
            entry["prefixes"] += int(attrs.get("prefixes") or 0)
        elif name in phase_names:
            backend = str(attrs.get("backend", "unknown"))
            phases = phase_groups.setdefault(backend, {})
            phases.setdefault(name.split(".", 1)[1], []).append(
                float(span.get("seconds", 0.0))
            )
    engine_rollup = {}
    for backend, entry in engines.items():
        rollup = _duration_rollup(entry["durations"])
        rollup.update(
            events=entry["events"],
            prefixes=entry["prefixes"],
            phases={
                phase: _duration_rollup(durations)
                for phase, durations in phase_groups.get(backend, {}).items()
            },
        )
        engine_rollup[backend] = rollup

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
    }
    summary["root_seconds"], summary["unattributed_seconds"] = root_accounting(records)
    return summary
