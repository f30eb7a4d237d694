"""Command-line interface for the reproduction.

Nine subcommands cover the common workflows without writing any code::

    python -m repro section3  [--small | --paper-scale] [--engine NAME]
                              [--json PATH]
                              [--cache-dir DIR | --from-snapshot DIR]
    python -m repro figure2   [--small | --paper-scale] [--engine NAME]
                              [--top N] [--json PATH]
                              [--cache-dir DIR | --from-snapshot DIR]
    python -m repro snapshot  --output DIR [--small | --paper-scale]
                              [--engine NAME]
    python -m repro sweep     --grid grid.json [--cache-dir DIR]
                              [--executor serial|thread|process|cluster]
                              [--distributed --queue-dir DIR
                               --local-workers N --task-timeout S]
                              [--cache-budget-bytes N]
                              [--json PATH] [--markdown PATH]
    python -m repro worker    --queue-dir DIR [--worker-id ID]
                              [--lease-seconds S] [--max-idle-seconds S]
                              [--task-timeout S]
    python -m repro queue     status --queue-dir DIR [--json]
    python -m repro trace     show | summary | profile  --trace-dir DIR [--json]
    python -m repro top       [--queue-dir DIR] [--trace-dir DIR]
                              [--once] [--json] [--serve PORT]
    python -m repro cache     stats | prune  --cache-dir DIR

``section3`` prints the Section-3 statistics table, ``figure2`` prints
the correction-sweep series, and ``snapshot`` builds a synthetic snapshot
and writes its collector archive (bgpdump-style text files), the
dual-stack relationship ground truth and the IRR documentation corpus to
a directory, so the pipeline can also be exercised from files on disk.

``sweep`` expands a JSON parameter grid (see :mod:`repro.sweep.grid`)
into scenarios and runs them all over one shared artifact cache —
upstream stages two scenarios have in common are computed once and
reused — then prints/writes a cross-scenario report.  With
``--distributed`` the waves go through the durable task queue in
``--queue-dir`` and cooperating worker processes execute them:
``--local-workers N`` spawns N on this host, and any number of
``repro worker --queue-dir DIR`` processes started from other shells
can join the same queue.  The queue is a SQLite file (WAL mode), so
sharing it across *machines* requires a filesystem with coherent
SQLite locking — typical NFS is not; multi-host fan-out beyond that is
the networked-backend item on the roadmap.  ``queue status`` snapshots
a live (or finished) queue: per-state counts, running-task lease ages,
and the dead-letter records of quarantined tasks.  A ``repro worker``
drains gracefully on SIGTERM — it finishes its current task and exits
0; a second SIGTERM also releases the in-flight task back to the queue
(attempt refunded) for an immediate exit.  ``--task-timeout`` arms the
per-task watchdog that aborts stuck-but-heartbeating attempts (see
``docs/robustness.md``).  ``cache stats``
and ``cache prune`` keep those caches from growing unbounded —
``--cache-budget-bytes`` automates the prune after every sweep wave.
Every ``--cache-dir`` is a cache *spec*: a directory (the default
layout) or a ``*.sqlite`` / ``sqlite://`` object-store file; the cache
subcommands auto-detect which backend wrote a given cache.

Two flags connect the single-run commands into a staged workflow:

* ``--cache-dir DIR`` backs the run with the on-disk artifact cache of
  :mod:`repro.pipeline` — running ``figure2`` right after ``section3``
  with the same cache dir reuses the snapshot, extraction and inference
  artifacts and only computes the correction sweep.
* ``--from-snapshot DIR`` skips the synthetic builder entirely and runs
  the measurement pipeline on a snapshot directory previously written by
  ``repro snapshot`` (the archive, ground truth and IRR corpus are read
  back from disk).

Every ``--json`` report is written with sorted keys and carries a
``schema_version`` field, so golden files and cross-run diffs stay
stable.

``--engine`` selects the propagation backend (``event`` | ``equilibrium``
| ``array`` | ``auto``, see :mod:`repro.bgp.backends`).  Every engine
produces bit-identical reports — CI diffs the ``--json`` output across
engines — so the flag only trades build time, never results.  The engine
participates in the propagation stage fingerprint, so switching it on a
shared ``--cache-dir`` recomputes propagation instead of reusing a
stale artifact.  ``section3 --json`` reports carry a ``provenance``
block stating, per address family, which backend actually ran and why
``auto`` fell back (if it did); CI strips that block before diffing
reports across engines.  A fallback is also announced on stderr.

``--trace-dir DIR`` (on ``section3``/``figure2``/``snapshot``/``sweep``
/``worker``) turns on structured telemetry: spans and counters are
appended to ``DIR/trace*.jsonl`` (see :mod:`repro.telemetry` and
``docs/observability.md``).  Tracing is off by default, adds no
overhead when off, and never changes a fingerprint or an output byte.
``trace show`` renders the reassembled span tree — for a distributed
sweep, the coordinator's and every worker's spans join into one tree —
and ``trace summary`` prints per-stage/per-engine rollups (count,
total, p50/p95, cache hit rate, retry and dead-letter counts).

``--profile`` (with ``--trace-dir``) additionally wraps the hot spans
in deterministic ``cProfile`` + ``tracemalloc`` capture; ``trace
profile`` renders the hot-function rollup.  ``repro top`` is the live
monitor over a distributed sweep's queue and trace (``--serve PORT``
exposes ``/metrics`` + ``/health`` over HTTP; see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import format_series, format_summary, format_table
from repro.analysis.report import write_json_report
from repro.analysis.stats import Section3Artifacts, compute_section3
from repro.core.correction import (
    CorrectionSeries,
    correction_payload,
    run_correction_sweep,
)
from repro.core.relationships import AFI
from repro.datasets import (
    DatasetConfig,
    load_snapshot,
    paper_scale_config,
    save_snapshot,
    small_config,
)
from repro.pipeline import (
    ArtifactCache,
    PipelineConfig,
    PropagationConfig,
    run_pipeline,
    section3_artifacts,
)
from repro.telemetry import TelemetryConfig

#: Schema version of the ``section3``/``figure2`` ``--json`` reports.
REPORT_SCHEMA_VERSION = 1


def _write_json_report(path: str, payload: dict) -> None:
    """CLI reports go through the shared stable writer
    (:func:`repro.analysis.report.write_json_report`) with this
    module's schema version."""
    write_json_report(payload, path, schema_version=REPORT_SCHEMA_VERSION)


def _config_from_args(args: argparse.Namespace) -> DatasetConfig:
    if args.paper_scale:
        return paper_scale_config(seed=args.seed)
    return small_config(seed=args.seed)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--small", action="store_true", help="small snapshot (default, seconds to build)"
    )
    scale.add_argument(
        "--paper-scale", action="store_true", help="larger snapshot (seconds to build)"
    )
    parser.add_argument("--seed", type=int, default=7, help="snapshot seed")
    parser.add_argument(
        "--engine",
        choices=("event", "equilibrium", "array", "auto"),
        default="event",
        help="propagation backend (all engines produce identical results; "
        "'auto' picks the equilibrium solver when the policies qualify)",
    )


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--cache-dir",
        help="artifact-cache directory: warm re-runs skip unchanged stages",
    )
    source.add_argument(
        "--from-snapshot",
        metavar="DIR",
        help="run from a snapshot directory written by 'repro snapshot' "
        "instead of building one (the --small/--paper-scale/--seed "
        "sizing flags do not apply and are rejected)",
    )


def _profiling_from_args(args: argparse.Namespace):
    if not getattr(args, "profile", False):
        return None
    from repro.telemetry import ProfilingConfig

    return ProfilingConfig()


def _telemetry_from_args(args: argparse.Namespace) -> Optional[TelemetryConfig]:
    trace_dir = getattr(args, "trace_dir", None)
    if not trace_dir:
        return None
    return TelemetryConfig(
        trace_dir=str(trace_dir), profiling=_profiling_from_args(args)
    )


def _add_trace_option(
    parser: argparse.ArgumentParser, profile: bool = True
) -> None:
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write structured telemetry (spans + counters, JSONL) to this "
        "directory; inspect with 'repro trace show|summary'.  Off by "
        "default; tracing never changes fingerprints or outputs",
    )
    if profile:
        parser.add_argument(
            "--profile",
            action="store_true",
            help="also wrap stage/engine spans in cProfile + tracemalloc "
            "capture, writing profile*.jsonl beside the trace (requires "
            "--trace-dir); inspect with 'repro trace profile'.  Slows the "
            "run but never changes fingerprints or outputs",
        )


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        dataset=_config_from_args(args),
        top=getattr(args, "top", 20),
        max_sources=getattr(args, "max_sources", 60),
        propagation=PropagationConfig(engine=getattr(args, "engine", "event")),
        telemetry=_telemetry_from_args(args),
    )


def _print_stage_summary(run) -> None:
    cached = run.cached_stages()
    if cached:
        print(f"[pipeline] reused cached stages: {', '.join(cached)}")


def _artifacts_from_disk(directory: str) -> Section3Artifacts:
    """The measurement pipeline over a snapshot directory on disk."""
    loaded = load_snapshot(Path(directory))
    from repro.analysis.paths import extract_from_archive

    extraction = extract_from_archive(loaded.archive)
    return compute_section3(extraction.store, loaded.registry)


def _selection_provenance(config: PipelineConfig, run) -> dict:
    """Per-AFI backend provenance for ``--json`` reports.

    The structured counterpart of
    :meth:`repro.bgp.engine.PropagationEngine.selection_report`: which
    backend each address family actually ran on (``auto`` may fall back
    per plane) and why.  CI strips this block before byte-comparing
    reports across engines — it is the one part of the report that
    *should* differ.
    """
    from repro.bgp.engine import PropagationEngine

    scenario = run.value("scenario")
    engine = PropagationEngine(
        scenario.topology.graph,
        scenario.policies,
        keep_ribs_for=scenario.vantage_asns,
        engine=config.propagation.engine,
    )
    return {
        afi.name.lower(): engine.selection_report(scenario.origins[afi])
        for afi in (AFI.IPV4, AFI.IPV6)
    }


def _cmd_section3(args: argparse.Namespace) -> int:
    provenance = None
    if args.from_snapshot:
        artifacts = _artifacts_from_disk(args.from_snapshot)
        config_payload = {"snapshot_dir": args.from_snapshot}
    else:
        config = _pipeline_config(args)
        run = run_pipeline(
            config, cache_dir=args.cache_dir, targets=("section3",)
        )
        _print_stage_summary(run)
        artifacts = section3_artifacts(run)
        config_payload = {
            "ases": config.dataset.topology.total_ases,
            "seed": args.seed,
        }
        provenance = _selection_provenance(config, run)
    print(format_table(artifacts.report.rows(), title="Section 3 statistics"))
    if args.json:
        payload = {"config": config_payload, "section3": artifacts.report.as_dict()}
        if provenance is not None:
            payload["provenance"] = provenance
        _write_json_report(args.json, payload)
        print(f"\nwrote JSON report to {args.json}")
    return 0


def _figure2_series(
    artifacts: Section3Artifacts, top: int, max_sources: Optional[int]
) -> CorrectionSeries:
    """The Figure-2 sweep from precomputed Section-3 artifacts (the
    same shared implementation the pipeline's ``correction`` stage
    runs)."""
    return run_correction_sweep(
        artifacts.inference.annotation(AFI.IPV4),
        artifacts.inference.annotation(AFI.IPV6),
        artifacts.hybrid.hybrid_link_set(),
        artifacts.visibility,
        top=top,
        max_sources=max_sources,
    )


def _cmd_figure2(args: argparse.Namespace) -> int:
    if args.from_snapshot:
        artifacts = _artifacts_from_disk(args.from_snapshot)
        series = _figure2_series(artifacts, args.top, args.max_sources)
        config_payload = {"snapshot_dir": args.from_snapshot}
    else:
        config = _pipeline_config(args)
        run = run_pipeline(
            config, cache_dir=args.cache_dir, targets=("correction",)
        )
        _print_stage_summary(run)
        series = run.value("correction")
        config_payload = {
            "ases": config.dataset.topology.total_ases,
            "seed": args.seed,
        }
    print(
        format_series(
            "corrected links",
            {"avg path length": series.averages, "diameter": series.diameters},
            title="Figure 2 — correction sweep",
        )
    )
    print()
    print(format_summary(series.improvement(), title="Start vs end"))
    if args.json:
        _write_json_report(
            args.json,
            {
                "config": config_payload,
                "figure2": correction_payload(series, args.top, args.max_sources),
            },
        )
        print(f"\nwrote JSON report to {args.json}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.datasets import build_snapshot

    snapshot = build_snapshot(
        _config_from_args(args),
        cache_dir=args.cache_dir,
        engine=getattr(args, "engine", "event"),
        telemetry=_telemetry_from_args(args),
    )
    output = Path(args.output)
    summary = save_snapshot(snapshot, output)
    manifest = summary["manifest"]
    print(f"snapshot written to {output}")
    print(f"  {len(summary['dump_files'])} collector dump files")
    print(f"  ground truth: {output / 'ground-truth-asrel.txt'}")
    print(
        f"  IRR documentation for {manifest['documented_ases']} ASes in "
        f"{output / 'irr'}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import (
        GridError,
        SweepGrid,
        build_report,
        plan_sweep,
        render_markdown,
        run_sweep,
        write_json_report,
    )

    try:
        grid = SweepGrid.from_json_file(args.grid)
        scenarios = grid.expand()
        targets = tuple(args.targets.split(","))
        plan = plan_sweep(scenarios, targets=targets)
    except (GridError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in plan.summary_lines():
        print(f"[sweep] {line}")
    if args.cache_dir is None:
        print(
            "[sweep] no --cache-dir: scenarios cannot share stages "
            "(every cell computes its full closure)"
        )

    if args.distributed and args.executor not in (None, "cluster"):
        print(
            f"error: --distributed conflicts with --executor {args.executor}",
            file=sys.stderr,
        )
        return 2
    executor = "cluster" if args.distributed else (args.executor or "thread")
    if executor == "cluster" and args.workers is not None:
        # Silently dropping --workers would leave the user with zero
        # spawned workers and a coordinator waiting forever.
        print(
            "error: use --local-workers (spawned worker processes) with a "
            "distributed sweep; --workers bounds in-process pools only",
            file=sys.stderr,
        )
        return 2
    if executor != "cluster" and (
        args.local_workers is not None
        or args.lease_seconds is not None
        or args.wave_timeout is not None
        or args.task_timeout is not None
    ):
        # The symmetric silent drop: cluster-only flags on a local
        # executor would be ignored, which reads like they worked.
        print(
            "error: --local-workers/--lease-seconds/--wave-timeout/"
            "--task-timeout require --distributed (or --executor cluster)",
            file=sys.stderr,
        )
        return 2
    workers = args.local_workers if executor == "cluster" else args.workers
    if executor == "cluster" and not args.local_workers and args.queue_dir:
        # Guarded on queue_dir: a missing one errors in run_sweep, and
        # a notice quoting '--queue-dir None' would be copy-paste bait.
        print(
            "[sweep] no --local-workers: waiting for external 'repro worker "
            f"--queue-dir {args.queue_dir}' processes to drain the queue"
        )
    from repro.cluster.backends import BackendError
    from repro.cluster.coordinator import ClusterError

    try:
        result = run_sweep(
            plan,  # the announced plan IS the executed plan
            cache_dir=args.cache_dir,
            executor=executor,
            workers=workers,
            propagation_workers=args.propagation_workers,
            queue_dir=args.queue_dir,
            cache_budget_bytes=args.cache_budget_bytes,
            lease_seconds=args.lease_seconds if args.lease_seconds is not None else 30.0,
            wave_timeout=args.wave_timeout,
            task_timeout_seconds=args.task_timeout,
            trace_dir=args.trace_dir,
            profiling=_profiling_from_args(args),
        )
    except (ValueError, ClusterError, BackendError) as exc:
        # Invalid option combinations, a cluster that cannot make
        # progress (all workers dead, wave timeout) or a broken cache
        # backend — scenario failures never raise here.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for scenario in result.results:
        if scenario.ok:
            print(
                f"[sweep] {scenario.scenario_id:<40} ok      "
                f"{len(scenario.computed_stages()):>2} computed "
                f"{len(scenario.stage_statuses) - len(scenario.computed_stages()):>2} cached "
                f"{scenario.seconds:7.2f}s"
            )
        else:
            print(f"[sweep] {scenario.scenario_id:<40} FAILED  {scenario.error}")
    if result.dead_letters:
        print(
            f"[sweep] {len(result.dead_letters)} task(s) quarantined "
            "(dead letters; full per-attempt history via "
            "'repro queue status'):"
        )
        for letter in result.dead_letters:
            print(
                f"[sweep]   {letter['task_id']} after {letter['attempts']} "
                f"attempt(s): {letter['error']}"
            )
    counters = result.cache_counters()
    print(
        f"[sweep] {len(result.results)} scenarios in {result.seconds:.2f}s: "
        f"{counters['computed']} stage invocations computed, "
        f"{counters['cached']} served from cache"
    )
    duplicates = result.duplicate_computes()
    if duplicates and args.cache_dir is not None:
        # Without a cache, shared fingerprints recompute per cell by
        # design — only a cached sweep promises exactly-once.
        print(
            f"[sweep] warning: {len(duplicates)} fingerprints computed more "
            "than once (a failure or a cache-budget eviction broke the "
            "exactly-once schedule)"
        )
    if result.fully_cached():
        print("[sweep] fully cached: nothing was recomputed")

    report = build_report(result, grid)
    variance = report["seed_variance"]["varying_metrics"]
    if variance:
        print(
            "[sweep] metrics varying across seeds at fixed config: "
            + ", ".join(variance)
        )
    if args.json:
        write_json_report(report, args.json)
        print(f"[sweep] wrote JSON report to {args.json}")
    if args.markdown:
        Path(args.markdown).write_text(render_markdown(report), encoding="utf-8")
        print(f"[sweep] wrote markdown report to {args.markdown}")
    return 1 if result.failed() else 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import os
    import signal

    from repro.cluster.coordinator import queue_path
    from repro.cluster.worker import Worker, default_worker_id
    from repro.faults.plan import WORKER_ID_ENV

    queue_file = queue_path(args.queue_dir)
    worker_id = args.worker_id or default_worker_id()
    # Exported so fault plans (fault:// cache specs) can target one
    # worker of a pool deterministically by its id.
    os.environ[WORKER_ID_ENV] = worker_id
    worker = Worker(
        queue_file,
        worker_id=worker_id,
        lease_seconds=args.lease_seconds,
        poll_interval=args.poll_interval,
        task_timeout=args.task_timeout,
        trace_dir=args.trace_dir,
    )

    def _drain(signum: int, frame: object) -> None:
        # First SIGTERM: finish the in-flight task, then exit 0.
        # Second SIGTERM: release the in-flight task back to the queue
        # (attempt refunded) and exit 0 as soon as it is handed over.
        if worker.draining:
            print(
                f"[worker {worker_id}] second SIGTERM: releasing current task",
                flush=True,
            )
            worker.request_drain(release_current=True)
        else:
            print(
                f"[worker {worker_id}] SIGTERM: draining "
                "(finishing current task, claiming no more)",
                flush=True,
            )
            worker.request_drain()

    previous = signal.signal(signal.SIGTERM, _drain)
    print(f"[worker {worker_id}] polling {queue_file}", flush=True)
    try:
        processed = worker.run(
            max_tasks=args.max_tasks,
            exit_when_closed=not args.keep_alive,
            max_idle_seconds=args.max_idle_seconds,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
    verb = "drained" if worker.draining else "done"
    print(f"[worker {worker_id}] {verb}: {processed} tasks processed", flush=True)
    return 0


def _cmd_queue_status(args: argparse.Namespace) -> int:
    from repro.cluster.coordinator import queue_path
    from repro.cluster.queue import TaskQueue

    queue_file = queue_path(args.queue_dir)
    if not queue_file.exists():
        # Opening a TaskQueue would *create* an empty queue file — a
        # read-only status command must not.
        print(f"error: no task queue at {queue_file}", file=sys.stderr)
        return 2
    report = TaskQueue(queue_file).status_report()
    if args.json:
        print(
            json.dumps(
                {"schema_version": REPORT_SCHEMA_VERSION, **report},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"task queue at {queue_file}")
    print(f"  state: {report['state']}, {report['total_tasks']} tasks")
    counts = report["counts"]
    if counts:
        # Column widths computed from the data: a status name longer
        # than 8 chars must not shear the count column off its grid.
        status_width = max(len(status) for status in counts)
        count_width = max(len(str(count)) for count in counts.values())
        for status in sorted(counts):
            print(f"  {status:<{status_width}} {counts[status]:>{count_width}}")
    for row in report["running"]:
        lease_age = row.get("lease_age_seconds")
        held = (
            f"lease held {lease_age:.1f}s, " if lease_age is not None else ""
        )
        print(
            f"  running {row['task_id']} (owner {row['owner']}, attempt "
            f"{row['attempts']}): {held}{row['seconds_since_update']:.1f}s "
            f"since last heartbeat, lease expires in "
            f"{row['lease_seconds_remaining']:.1f}s"
        )
    for letter in report["dead_letters"]:
        print(
            f"  dead    {letter['task_id']} after {letter['attempts']} "
            f"attempt(s): {letter['error']}"
        )
        for entry in letter["attempts_log"]:
            print(
                f"          attempt {entry.get('attempt')} "
                f"({entry.get('owner')}): {entry.get('error')}"
            )
    return 0


def _read_trace_records(args: argparse.Namespace):
    """Load a trace directory for the ``trace`` subcommands, or report
    why it cannot be (no files, malformed line) and return ``None``."""
    from repro.telemetry import read_trace

    try:
        return read_trace(args.trace_dir)
    except FileNotFoundError:
        print(
            f"error: no trace*.jsonl files under {args.trace_dir} "
            "(was the run started with --trace-dir?)",
            file=sys.stderr,
        )
        return None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.telemetry import build_tree, render_tree

    records = _read_trace_records(args)
    if records is None:
        return 1
    if args.json:
        roots, orphans = build_tree(records)
        print(
            json.dumps(
                {
                    "schema_version": REPORT_SCHEMA_VERSION,
                    "roots": roots,
                    "orphans": orphans,
                },
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        return 0
    lines = render_tree(records)
    if not lines:
        print("(no spans recorded)")
    for line in lines:
        print(line)
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.telemetry import summarize

    records = _read_trace_records(args)
    if records is None:
        return 1
    summary = summarize(records, trace_dir=args.trace_dir)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True, default=str))
        return 0
    spans = summary["spans"]
    print(f"trace at {args.trace_dir}")
    print(
        f"  {summary['files']} file(s), {len(summary['runs'])} run(s), "
        f"{spans['total']} spans ({spans['roots']} roots, "
        f"{spans['orphans']} orphans, {spans['errors']} errors)"
    )
    if summary["stages"]:
        width = max(len(name) for name in summary["stages"])
        print("  stages:")
        for name in sorted(summary["stages"]):
            entry = summary["stages"][name]
            print(
                f"    {name:<{width}} x{entry['count']:<3} "
                f"total {entry['total_seconds']:8.3f}s  "
                f"p50 {entry['p50_seconds']:7.3f}s  "
                f"p95 {entry['p95_seconds']:7.3f}s  "
                f"computed {entry['computed']} cached {entry['cached']} "
                f"(hit rate {entry['cache_hit_rate']:.0%})"
            )
    if summary["engines"]:
        width = max(len(name) for name in summary["engines"])
        print("  engines:")
        for name in sorted(summary["engines"]):
            entry = summary["engines"][name]
            phases = ", ".join(
                f"{phase} {rollup['total_seconds']:.3f}s"
                for phase, rollup in sorted(entry["phases"].items())
            )
            print(
                f"    {name:<{width}} x{entry['count']:<3} "
                f"total {entry['total_seconds']:8.3f}s  "
                f"events {entry['events']}"
                + (f"  [{phases}]" if phases else "")
            )
    if summary["counters"]:
        width = max(len(name) for name in summary["counters"])
        print("  counters:")
        for name in sorted(summary["counters"]):
            print(f"    {name:<{width}} {summary['counters'][name]:g}")
    print(
        f"  retries: {summary['retries']}, "
        f"dead letters: {summary['dead_letters']}"
    )
    return 0


def _cmd_trace_profile(args: argparse.Namespace) -> int:
    from repro.telemetry import profile_rollup, read_profiles, render_profiles

    try:
        records = read_profiles(args.trace_dir)
    except FileNotFoundError:
        print(
            f"error: no profile*.jsonl files under {args.trace_dir} "
            "(was the run started with --trace-dir and --profile?)",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(
            json.dumps(
                {
                    "schema_version": REPORT_SCHEMA_VERSION,
                    "records": len(records),
                    "rollup": profile_rollup(records, top_n=args.top),
                },
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
        return 0
    print(f"profiles at {args.trace_dir} ({len(records)} span capture(s))")
    for line in render_profiles(records, top_n=args.top):
        print(line)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.telemetry import monitor_snapshot, render_snapshot
    from repro.telemetry.monitor import MonitorServer

    if args.queue_dir is None and args.trace_dir is None:
        print("error: repro top needs --queue-dir and/or --trace-dir", file=sys.stderr)
        return 2
    if args.serve is not None:
        try:
            server = MonitorServer(
                queue_dir=args.queue_dir, trace_dir=args.trace_dir, port=args.serve
            )
        except OSError as exc:
            print(f"error: cannot bind port {args.serve}: {exc}", file=sys.stderr)
            return 2
        print(
            f"[top] serving {server.url}/metrics, {server.url}/health, "
            f"{server.url}/snapshot (Ctrl-C to stop)",
            flush=True,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.shutdown()
        return 0

    while True:
        try:
            snap = monitor_snapshot(queue_dir=args.queue_dir, trace_dir=args.trace_dir)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(snap, indent=2, sort_keys=True, default=str))
        else:
            for line in render_snapshot(snap):
                print(line)
        if args.once:
            verdict = (snap.get("health") or {}).get("verdict")
            return 0 if verdict in ("drained", "active", "empty", "idle") else 1
        if (snap.get("health") or {}).get("verdict") == "drained":
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0
        if not args.json:
            print()


def _open_cache(args: argparse.Namespace) -> Optional[ArtifactCache]:
    """Open a cache for ``cache stats|prune``, whatever backend wrote it.

    ``--cache-dir`` may name a cache directory *or* a SQLite
    object-store file (``*.sqlite`` / ``sqlite://``) — the spec sniffing
    in :meth:`ArtifactCache.from_spec` picks the right backend, so the
    hygiene commands work on caches written by distributed workers too.
    """
    from repro.cluster.backends import spec_path

    spec = str(args.cache_dir)
    path = spec_path(spec)
    if not path.exists():
        print(f"error: cache {path} does not exist", file=sys.stderr)
        return None
    try:
        return ArtifactCache.from_spec(spec)
    except OSError as exc:
        # E.g. --cache-dir pointing at a regular file that is not a
        # SQLite store, or a corrupt database (BackendError is OSError).
        print(f"error: cannot open cache {path}: {exc}", file=sys.stderr)
        return None


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    if cache is None:
        return 2
    stats = cache.stats()
    if args.json:
        print(
            json.dumps(
                {"schema_version": REPORT_SCHEMA_VERSION, **stats.to_dict()},
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"artifact cache at {stats.root}")
    print(f"  {stats.entries} artifacts, {stats.total_bytes:,} bytes")
    for stage, bucket in sorted(stats.per_stage.items()):
        print(f"  {stage:<16} {bucket['entries']:>4} artifacts {bucket['bytes']:>12,} bytes")
    return 0


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    if args.max_bytes is None and args.max_age is None:
        print("error: cache prune needs --max-bytes and/or --max-age", file=sys.stderr)
        return 2
    cache = _open_cache(args)
    if cache is None:
        return 2
    report = cache.prune(
        max_bytes=args.max_bytes,
        max_age_seconds=args.max_age * 86400.0 if args.max_age is not None else None,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{verb} {len(report.removed)} artifacts ({report.freed_bytes:,} bytes); "
        f"{report.remaining_entries} artifacts "
        f"({report.remaining_bytes:,} bytes) remain"
    )
    if report.temp_files_removed:
        swept = "would sweep" if args.dry_run else "swept"
        print(
            f"{swept} {report.temp_files_removed} orphaned temp file(s) "
            "left by crashed writers"
        )
    listed = report.removed[:20]
    for entry in listed:
        print(f"  {entry.stage}/{entry.fingerprint[:12]}  {entry.size_bytes:,} bytes")
    if len(report.removed) > len(listed):
        print(f"  ... and {len(report.removed) - len(listed)} more")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Detecting and Assessing the Hybrid "
        "IPv4/IPv6 AS Relationships' (Giotsas & Zhou, SIGCOMM 2011).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    section3 = subparsers.add_parser(
        "section3", help="compute the Section-3 statistics on a synthetic snapshot"
    )
    _add_common_options(section3)
    _add_pipeline_options(section3)
    _add_trace_option(section3)
    section3.add_argument("--json", help="also write the report as JSON to this path")
    section3.set_defaults(handler=_cmd_section3)

    figure2 = subparsers.add_parser(
        "figure2", help="run the Figure-2 correction sweep"
    )
    _add_common_options(figure2)
    _add_pipeline_options(figure2)
    _add_trace_option(figure2)
    figure2.add_argument("--top", type=int, default=20, help="links to correct")
    figure2.add_argument(
        "--max-sources", type=int, default=60,
        help="valley-free BFS sources sampled per step (0 = exact)",
    )
    figure2.add_argument(
        "--json", help="also write the sweep series and summary as JSON to this path"
    )
    figure2.set_defaults(handler=_cmd_figure2)

    snapshot = subparsers.add_parser(
        "snapshot", help="build a synthetic snapshot and write it to disk"
    )
    _add_common_options(snapshot)
    snapshot.add_argument("--output", required=True, help="output directory")
    snapshot.add_argument(
        "--cache-dir",
        help="artifact-cache directory: reuse cached build stages",
    )
    _add_trace_option(snapshot)
    snapshot.set_defaults(handler=_cmd_snapshot)

    sweep = subparsers.add_parser(
        "sweep",
        help="run a parameter grid of scenarios over one shared artifact cache",
    )
    sweep.add_argument(
        "--grid", required=True, help="JSON sweep grid (see repro.sweep.grid)"
    )
    sweep.add_argument(
        "--cache-dir",
        help="shared artifact cache: stages common to several scenarios "
        "are computed once and reused (strongly recommended)",
    )
    sweep.add_argument(
        "--targets",
        default="section3,correction",
        help="comma-separated pipeline targets per scenario "
        "(default: section3,correction)",
    )
    sweep.add_argument(
        "--executor",
        choices=("serial", "thread", "process", "cluster"),
        default=None,
        help="how scenarios of one wave run (default: thread; 'cluster' "
        "routes waves through the durable task queue, like --distributed)",
    )
    sweep.add_argument(
        "--workers", type=int, default=None, help="scenario-level worker bound"
    )
    sweep.add_argument(
        "--distributed",
        action="store_true",
        help="run the waves through the durable task queue in --queue-dir "
        "(equivalent to --executor cluster); requires --cache-dir",
    )
    sweep.add_argument(
        "--queue-dir",
        help="directory holding the task queue shared with 'repro worker' "
        "processes (required with --distributed)",
    )
    sweep.add_argument(
        "--local-workers",
        type=int,
        default=None,
        help="spawn this many local worker processes for a distributed "
        "sweep (external 'repro worker' processes may join the queue too)",
    )
    sweep.add_argument(
        "--lease-seconds",
        type=float,
        default=None,
        help="task lease for distributed workers: a dead worker's task is "
        "re-claimed after this long without a heartbeat (default: 30)",
    )
    sweep.add_argument(
        "--wave-timeout",
        type=float,
        default=None,
        help="fail a distributed sweep if one wave has not finished after "
        "this many seconds (default: wait indefinitely — workers may join "
        "late; set a bound when relying on external workers that could die)",
    )
    sweep.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help="per-attempt watchdog for distributed tasks: an attempt still "
        "running after this many seconds is aborted and retried (or "
        "quarantined once attempts are exhausted), even if its worker is "
        "still heartbeating (default: no watchdog)",
    )
    sweep.add_argument(
        "--cache-budget-bytes",
        type=int,
        default=None,
        help="prune the artifact cache down to this many bytes after every "
        "sweep wave (the 'repro cache prune' logic, automated)",
    )
    sweep.add_argument(
        "--propagation-workers",
        type=int,
        default=None,
        help="parallelize the propagation stages inside each scenario via "
        "PropagationEngine.run_many (combine with --executor serial)",
    )
    sweep.add_argument(
        "--json", help="write the cross-scenario report as JSON to this path"
    )
    sweep.add_argument(
        "--markdown", help="write the cross-scenario report as markdown to this path"
    )
    _add_trace_option(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    worker = subparsers.add_parser(
        "worker",
        help="run a distributed-sweep worker over a shared task queue",
    )
    worker.add_argument(
        "--queue-dir", required=True,
        help="queue directory shared with the coordinating 'repro sweep "
        "--distributed' (and any other workers)",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable worker identity for leases/logs (default: host-pid)",
    )
    worker.add_argument(
        "--lease-seconds", type=float, default=30.0,
        help="lease granted per claimed task; heartbeats extend it while "
        "the scenario runs (default: 30)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="seconds between claim attempts when the queue is empty",
    )
    worker.add_argument(
        "--task-timeout", type=float, default=None,
        help="per-attempt watchdog: abort an attempt still running after "
        "this many seconds even while heartbeating (a task's own "
        "timeout_seconds takes precedence; default: no watchdog)",
    )
    worker.add_argument(
        "--max-tasks", type=int, default=None,
        help="exit after processing this many tasks (default: unbounded)",
    )
    worker.add_argument(
        "--max-idle-seconds", type=float, default=None,
        help="exit after this long without claimable work (default: wait "
        "until the coordinator closes the queue)",
    )
    worker.add_argument(
        "--keep-alive", action="store_true",
        help="do not exit when the queue is closed: keep polling for the "
        "next sweep (a reused queue directory is 'closed' between sweeps; "
        "the next coordinator reopens it).  Use for standing worker pools, "
        "ideally with --max-idle-seconds as a safety bound",
    )
    # No --profile here: a worker's profiling choice rides in the task's
    # trace context, stamped by the coordinator.
    _add_trace_option(worker, profile=False)
    worker.set_defaults(handler=_cmd_worker)

    queue = subparsers.add_parser(
        "queue", help="inspect a distributed-sweep task queue"
    )
    queue_commands = queue.add_subparsers(dest="queue_command", required=True)
    queue_status = queue_commands.add_parser(
        "status",
        help="queue state, per-state task counts, running-task lease ages "
        "and dead-letter records",
    )
    queue_status.add_argument(
        "--queue-dir", required=True,
        help="queue directory of the sweep (same as 'repro sweep/worker')",
    )
    queue_status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    queue_status.set_defaults(handler=_cmd_queue_status)

    trace = subparsers.add_parser(
        "trace", help="inspect telemetry written by --trace-dir runs"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_commands.add_parser(
        "show",
        help="render the reassembled span tree (distributed runs merge "
        "into one tree via their shared run id)",
    )
    trace_show.add_argument(
        "--trace-dir", required=True,
        help="trace directory a run wrote (same as its --trace-dir)",
    )
    trace_show.add_argument(
        "--json", action="store_true", help="machine-readable span forest"
    )
    trace_show.set_defaults(handler=_cmd_trace_show)
    trace_summary = trace_commands.add_parser(
        "summary",
        help="per-stage and per-engine rollups (count, total, p50/p95, "
        "cache hit rate), counters, retry and dead-letter totals",
    )
    trace_summary.add_argument(
        "--trace-dir", required=True,
        help="trace directory a run wrote (same as its --trace-dir)",
    )
    trace_summary.add_argument(
        "--json", action="store_true", help="machine-readable rollup"
    )
    trace_summary.set_defaults(handler=_cmd_trace_summary)
    trace_profile = trace_commands.add_parser(
        "profile",
        help="hot-function rollup of profile*.jsonl records written by "
        "--profile runs (top cumulative-time functions per stage/engine)",
    )
    trace_profile.add_argument(
        "--trace-dir", required=True,
        help="trace directory a --profile run wrote",
    )
    trace_profile.add_argument(
        "--top", type=int, default=10,
        help="functions shown per profiled unit (default: 10)",
    )
    trace_profile.add_argument(
        "--json", action="store_true", help="machine-readable rollup"
    )
    trace_profile.set_defaults(handler=_cmd_trace_profile)

    top = subparsers.add_parser(
        "top",
        help="live view of a distributed sweep: wave progress, worker "
        "liveness, cache hit rate, ETA and a health verdict",
    )
    top.add_argument(
        "--queue-dir", default=None,
        help="queue directory of the sweep (same as 'repro sweep/worker')",
    )
    top.add_argument(
        "--trace-dir", default=None,
        help="trace directory of the sweep (adds cache/counter rollups)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (0 when healthy, 1 when "
        "stalled/degraded)",
    )
    top.add_argument(
        "--json", action="store_true", help="machine-readable snapshot(s)"
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes in poll mode (default: 2)",
    )
    top.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve /metrics (Prometheus text), /health and /snapshot "
        "over HTTP on this port instead of polling (0 = ephemeral)",
    )
    top.set_defaults(handler=_cmd_top)

    cache = subparsers.add_parser(
        "cache", help="inspect or prune an artifact cache (directory or "
        "sqlite object store)"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="per-stage entry counts and byte totals"
    )
    cache_stats.add_argument("--cache-dir", required=True)
    cache_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cache_stats.set_defaults(handler=_cmd_cache_stats)
    cache_prune = cache_commands.add_parser(
        "prune", help="evict artifacts by age and/or LRU down to a byte budget"
    )
    cache_prune.add_argument("--cache-dir", required=True)
    cache_prune.add_argument(
        "--max-bytes", type=int, help="evict least-recently-used artifacts "
        "until the cache fits this many bytes"
    )
    cache_prune.add_argument(
        "--max-age", type=float, metavar="DAYS",
        help="evict artifacts not used for this many days",
    )
    cache_prune.add_argument(
        "--dry-run", action="store_true", help="report without deleting"
    )
    cache_prune.set_defaults(handler=_cmd_cache_prune)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_sources", None) == 0:
        args.max_sources = None
    if getattr(args, "from_snapshot", None) and (args.small or args.paper_scale):
        # The snapshot on disk fixes the scale; a sizing flag alongside
        # it would be silently ignored, which reads like it worked.
        parser.error("--small/--paper-scale cannot be combined with --from-snapshot")
    if getattr(args, "profile", False) and not getattr(args, "trace_dir", None):
        # Profile records are written beside the trace; without a trace
        # dir the capture would run and then be dropped on the floor.
        parser.error("--profile requires --trace-dir")
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
