"""Command-line interface for the reproduction.

Six subcommands cover the common workflows without writing any code::

    python -m repro section3  [--small | --paper-scale] [--engine NAME]
                              [--json PATH]
                              [--cache-dir DIR | --from-snapshot DIR]
    python -m repro figure2   [--small | --paper-scale] [--engine NAME]
                              [--top N] [--json PATH]
                              [--cache-dir DIR | --from-snapshot DIR]
    python -m repro snapshot  --output DIR [--small | --paper-scale]
                              [--engine NAME]
    python -m repro sweep     --grid grid.json [--cache-dir DIR]
                              [--executor serial]
                              [--json PATH] [--markdown PATH]
    python -m repro trace     show | summary  --trace-dir DIR [--json]
    python -m repro cache     stats | prune  --cache-dir DIR

``section3`` prints the Section-3 statistics table, ``figure2`` prints
the correction-sweep series, and ``snapshot`` builds a synthetic snapshot
and writes its collector archive (bgpdump-style text files), the
dual-stack relationship ground truth and the IRR documentation corpus to
a directory, so the pipeline can also be exercised from files on disk.

``sweep`` expands a JSON parameter grid (see :mod:`repro.sweep.grid`)
into scenarios and runs them all over one shared artifact cache —
upstream stages two scenarios have in common are computed once and
reused — then prints/writes a cross-scenario report.  ``cache stats``
reports a cache's footprint and ``cache prune`` is the one way to bound
it (``prune`` alone deletes files, including aged temp files left by
crashed writers).
Every ``--cache-dir`` is a plain directory (created on demand); naming
an existing file instead is refused with exit code 2.

Two flags connect the single-run commands into a staged workflow:

* ``--cache-dir DIR`` backs the run with the on-disk artifact cache of
  :mod:`repro.pipeline` — running ``figure2`` right after ``section3``
  with the same cache dir reuses the inference and views artifacts and
  only computes the correction sweep.  Each command reads only the
  artifact it reports (``section3`` or ``correction``), so a warm rerun
  loads one artifact.
* ``--from-snapshot DIR`` skips the synthetic builder entirely and runs
  the measurement pipeline on a snapshot directory previously written by
  ``repro snapshot`` (the archive, ground truth and IRR corpus are read
  back from disk).  The snapshot fixes the scale and the seed and no
  engine runs, so ``--small``, ``--paper-scale``, ``--seed`` and
  ``--engine`` are refused alongside it (exit code 2).

Every ``--json`` report is written with sorted keys and carries a
``schema_version`` field, so golden files and cross-run diffs stay
stable.

``--engine`` selects the propagation backend (``array``, the default,
or ``event``, the oracle it is checked against; see
:mod:`repro.bgp.backends`); any other name is refused.  Both engines
produce bit-identical reports — CI diffs the ``--json`` output across
engines — so the flag only trades build time, never results (``array``
solves the planes whose stable state is unique and replays the event
loop on the rest; a trace's ``propagation`` spans say which).  The
engine participates in the propagation stage fingerprint, so switching
it on a shared ``--cache-dir`` recomputes propagation instead of
reusing a stale artifact.  ``section3 --json`` reports carry a
``provenance`` block stating, per address family, which backend ran
(always the one named); CI strips that block before diffing reports
across engines.

``--trace-dir DIR`` (on ``section3``/``figure2``/``snapshot``/``sweep``)
turns on structured telemetry: :func:`main` activates one tracer around
the command, and its spans and counters are appended to
``DIR/trace.jsonl`` (see :mod:`repro.telemetry` and
``docs/observability.md``).  The command is the trace's one root span,
``command``.  Tracing is off by default, adds no overhead when off, and
never changes a fingerprint or an output byte.  ``trace show`` renders
the reassembled span tree and ``trace summary`` prints
per-stage/per-engine rollups (count, total, p50/p95, cache hit rate,
runs that skipped the stage because a descendant hit the cache) and
counters (``cache.corrupt`` counts artifacts that failed verification),
then each command's wall time, the part of it outside every stage and
the CPU time the process spent before :func:`main`.  For a
function-level view inside a stage, run the command under the standard
library's profiler (recipe in ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.report import (
    format_series,
    format_summary,
    format_table,
    write_json_report,
)
from repro.bgp.backends import DEFAULT_ENGINE, ENGINE_CHOICES, engine_provenance
from repro.core.correction import (
    CorrectionSeries,
    correction_payload,
    run_correction_sweep,
)
from repro.core.relationships import AFI
from repro.datasets.config import DatasetConfig, paper_scale_config, small_config
from repro.pipeline import PipelineConfig, PropagationConfig, run_pipeline
from repro.telemetry.tracer import Tracer, activated

if TYPE_CHECKING:
    from repro.analysis.stats import Section3Artifacts
    from repro.pipeline.artifacts import ArtifactCache

#: Schema version of the ``section3``/``figure2`` ``--json`` reports.
#: v2: the ``figure2`` block lost its source-sampling bound; Figure 2 is
#: always measured from every source.
REPORT_SCHEMA_VERSION = 2

#: Collector generation thresholds while a command runs.  A cold
#: paper-scale ``section3`` keeps about 130,000 tracked objects alive at
#: its peak (speakers, routes, observations), and most of what it
#: allocates lives until a later stage has consumed it.  At the default
#: thresholds (700, 10, 10) the collector runs 351 gen-0, 31 gen-1 and
#: 3 gen-2 collections in such a run, mostly rescanning live objects;
#: under these it runs 3 gen-0 collections and no older ones (counted
#: in-process from ``gc.get_stats()`` after ``repro.cli`` is imported).
GC_THRESHOLDS = (50000, 20, 100)

#: Snapshot seed when ``--seed`` is not given.
DEFAULT_SEED = 7


def _write_json_report(path: str, payload: dict) -> None:
    """CLI reports go through the shared stable writer
    (:func:`repro.analysis.report.write_json_report`) with this
    module's schema version."""
    write_json_report(payload, path, schema_version=REPORT_SCHEMA_VERSION)


def _config_from_args(args: argparse.Namespace) -> DatasetConfig:
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.paper_scale:
        return paper_scale_config(seed=seed)
    return small_config(seed=seed)


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument(
        "--small", action="store_true", help="small snapshot (default, seconds to build)"
    )
    scale.add_argument(
        "--paper-scale", action="store_true", help="larger snapshot (seconds to build)"
    )
    parser.add_argument(
        "--seed", type=int, help=f"snapshot seed (default: {DEFAULT_SEED})"
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        help=f"propagation backend (default: {DEFAULT_ENGINE}; 'event' is the "
        "reference simulator it is checked against). Both engines produce "
        "identical routes and reports; 'array' solves each plane whose "
        "stable state is unique and replays the event loop on the others",
    )


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="artifact-cache directory (created on demand): warm re-runs "
        "skip unchanged stages",
    )
    source.add_argument(
        "--from-snapshot",
        metavar="DIR",
        help="run from a snapshot directory written by 'repro snapshot' "
        "instead of building one (the --small/--paper-scale/--seed "
        "sizing flags and --engine do not apply and are rejected)",
    )


def _add_trace_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write structured telemetry (spans + counters, JSONL) to this "
        "directory; inspect with 'repro trace show|summary'.  Off by "
        "default; tracing never changes fingerprints or outputs",
    )


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        dataset=_config_from_args(args),
        top=getattr(args, "top", 20),
        propagation=PropagationConfig(engine=args.engine or DEFAULT_ENGINE),
    )


def _print_stage_summary(run) -> None:
    cached = run.cached_stages()
    if cached:
        print(f"[pipeline] reused cached stages: {', '.join(cached)}")


def _artifacts_from_disk(directory: str) -> Section3Artifacts:
    """The measurement pipeline over a snapshot directory on disk."""
    from repro.analysis.paths import store_from_records
    from repro.analysis.stats import compute_section3
    from repro.datasets.snapshot_io import load_snapshot

    loaded = load_snapshot(Path(directory))
    extraction = store_from_records(loaded.archive.records())
    return compute_section3(extraction.store, loaded.registry)


def _selection_provenance(config: PipelineConfig) -> dict:
    """Per-AFI backend provenance for ``--json`` reports.

    Each plane runs the configured engine, so the block follows from
    the config alone (:func:`repro.bgp.backends.engine_provenance`, the
    shape :meth:`~repro.bgp.engine.PropagationEngine.selection_report`
    returns) and needs no pipeline artifact.  CI strips this block
    before byte-comparing reports across engines — it is the one part
    of the report that *should* differ.
    """
    return {
        afi.name.lower(): engine_provenance(config.propagation.engine)
        for afi in (AFI.IPV4, AFI.IPV6)
    }


def _cmd_section3(args: argparse.Namespace) -> int:
    provenance = run = None
    if args.from_snapshot:
        report = _artifacts_from_disk(args.from_snapshot).report
        config_payload = {"snapshot_dir": args.from_snapshot}
    else:
        config = _pipeline_config(args)
        run = run_pipeline(
            config, cache_dir=args.cache_dir, targets=("section3",)
        )
        report = run.value("section3")
        config_payload = {
            "ases": config.dataset.topology.total_ases,
            "seed": config.dataset.seed,
        }
        provenance = _selection_provenance(config)
    # The report is written before anything is printed, so a closed
    # stdout cannot lose it.
    if args.json:
        payload = {"config": config_payload, "section3": report.as_dict()}
        if provenance is not None:
            payload["provenance"] = provenance
        _write_json_report(args.json, payload)
    if run is not None:
        _print_stage_summary(run)
    print(format_table(report.rows(), title="Section 3 statistics"))
    if args.json:
        print(f"\nwrote JSON report to {args.json}")
    return 0


def _figure2_series(artifacts: Section3Artifacts, top: int) -> CorrectionSeries:
    """The Figure-2 sweep from precomputed Section-3 artifacts (the
    same shared implementation the pipeline's ``correction`` stage
    runs)."""
    return run_correction_sweep(
        artifacts.inference.annotation(AFI.IPV4),
        artifacts.inference.annotation(AFI.IPV6),
        artifacts.hybrid.hybrid_link_set(),
        artifacts.visibility,
        top=top,
    )


def _cmd_figure2(args: argparse.Namespace) -> int:
    try:
        # Validates --top before any stage runs.
        config = _pipeline_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run = None
    if args.from_snapshot:
        artifacts = _artifacts_from_disk(args.from_snapshot)
        series = _figure2_series(artifacts, args.top)
        config_payload = {"snapshot_dir": args.from_snapshot}
    else:
        run = run_pipeline(
            config, cache_dir=args.cache_dir, targets=("correction",)
        )
        series = run.value("correction")
        config_payload = {
            "ases": config.dataset.topology.total_ases,
            "seed": config.dataset.seed,
        }
    # Written before anything is printed, as in ``section3``.
    if args.json:
        _write_json_report(
            args.json,
            {
                "config": config_payload,
                "figure2": correction_payload(series, args.top),
            },
        )
    if run is not None:
        _print_stage_summary(run)
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
        print(f"\nwrote JSON report to {args.json}")
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.datasets.snapshot_io import save_snapshot
    from repro.datasets.synthetic import build_snapshot

    config = _pipeline_config(args)
    snapshot = build_snapshot(
        config.dataset,
        cache_dir=args.cache_dir,
        engine=config.propagation.engine,
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

    try:
        result = run_sweep(
            plan,  # the announced plan IS the executed plan
            cache_dir=args.cache_dir,
        )
    except OSError as exc:
        # An unusable cache or trace directory — scenario failures
        # never raise here.
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
            "than once (an artifact was evicted from the cache before a "
            "later scenario needed it)"
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


def _read_trace_records(args: argparse.Namespace):
    """Load a trace directory for the ``trace`` subcommands, or report
    why it cannot be (no files, malformed line) and return ``None``."""
    from repro.telemetry.analyze import read_trace

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
    from repro.telemetry.analyze import build_tree, render_tree

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
    from repro.telemetry.analyze import summarize

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
                f"self {entry['self_seconds']:8.3f}s  "
                f"total {entry['total_seconds']:8.3f}s  "
                f"p50 {entry['p50_seconds']:7.3f}s  "
                f"p95 {entry['p95_seconds']:7.3f}s  "
                f"computed {entry['computed']} cached {entry['cached']} "
                f"skipped {entry['skipped']} released {entry['released']} "
                f"(hit rate {entry['cache_hit_rate']:.0%})  "
                f"max rss {entry['max_rss_kb'] / 1024:6.1f} MB"
            )
    if summary["engines"]:
        width = max(
            max(len(name), *(len(method) + 2 for method in entry["methods"]))
            for name, entry in summary["engines"].items()
        )
        print("  engines:")
        for name in sorted(summary["engines"]):
            entry = summary["engines"][name]
            print(
                f"    {name:<{width}} x{entry['count']:<3} "
                f"total {entry['total_seconds']:8.3f}s  "
                f"events {entry['events']}"
            )
            for method in sorted(entry["methods"]):
                split = entry["methods"][method]
                print(
                    f"      {method:<{width - 2}} x{split['count']:<3} "
                    f"total {split['total_seconds']:8.3f}s  "
                    f"events {split['events']}"
                )
    cache = summary["cache"]
    if cache["load"]["count"] or cache["store"]["count"]:
        print("  cache:")
        for kind in ("load", "store"):
            entry = cache[kind]
            print(
                f"    {kind:<5} x{entry['count']:<3} "
                f"total {entry['total_seconds']:8.3f}s  bytes {entry['bytes']}"
            )
    if summary["counters"]:
        width = max(len(name) for name in summary["counters"])
        print("  counters:")
        for name in sorted(summary["counters"]):
            print(f"    {name:<{width}} {summary['counters'][name]:g}")
    if summary["commands"]:
        width = max(len(name) for name in summary["commands"])
        print("  commands:")
        for name in sorted(summary["commands"]):
            entry = summary["commands"][name]
            print(
                f"    {name:<{width}} x{entry['count']:<3} "
                f"wall {entry['wall_seconds']:8.3f}s  "
                f"outside any stage {entry['outside_stages_seconds']:7.3f}s  "
                f"startup cpu {entry['startup_cpu_seconds']:7.3f}s  "
                f"tracer {entry['tracer_seconds']:9.6f}s  "
                f"peak rss {entry['max_rss_kb'] / 1024:6.1f} MB"
                f" at {entry['peak_stage'] or 'no stage'}"
                + (f" ({entry['rss_source']})" if entry["rss_source"] else "")
            )
    print(
        f"  root: {summary['root_seconds']:.3f}s, "
        f"outside any stage: {summary['unattributed_seconds']:.3f}s"
    )
    return 0


def _open_cache(args: argparse.Namespace) -> Optional[ArtifactCache]:
    """Open an existing cache for ``cache stats|prune`` (the hygiene
    commands never create one)."""
    from repro.pipeline.artifacts import ArtifactCache

    if not Path(args.cache_dir).exists():
        print(f"error: cache {args.cache_dir} does not exist", file=sys.stderr)
        return None
    return ArtifactCache(args.cache_dir)


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
    try:
        report = cache.prune(
            max_bytes=args.max_bytes,
            max_age_seconds=args.max_age * 86400.0 if args.max_age is not None else None,
            dry_run=args.dry_run,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        metavar="DIR",
        help="artifact-cache directory (created on demand): reuse cached "
        "build stages",
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
        metavar="DIR",
        help="shared artifact-cache directory (created on demand): stages "
        "common to several scenarios are computed once and reused "
        "(strongly recommended)",
    )
    sweep.add_argument(
        "--targets",
        default="section3,correction",
        help="comma-separated pipeline targets per scenario "
        "(default: section3,correction)",
    )
    sweep.add_argument(
        "--executor",
        choices=("serial",),
        default="serial",
        help="scenarios always run one at a time in this process; 'serial' "
        "is the only choice (default: serial)",
    )
    sweep.add_argument(
        "--json", help="write the cross-scenario report as JSON to this path"
    )
    sweep.add_argument(
        "--markdown", help="write the cross-scenario report as markdown to this path"
    )
    _add_trace_option(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    trace = subparsers.add_parser(
        "trace", help="inspect telemetry written by --trace-dir runs"
    )
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_commands.add_parser(
        "show",
        help="render the reassembled span tree (one tree per traced run)",
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
        "cache hit rate), counters, root wall time and time outside any "
        "stage",
    )
    trace_summary.add_argument(
        "--trace-dir", required=True,
        help="trace directory a run wrote (same as its --trace-dir)",
    )
    trace_summary.add_argument(
        "--json", action="store_true", help="machine-readable rollup"
    )
    trace_summary.set_defaults(handler=_cmd_trace_summary)

    cache = subparsers.add_parser(
        "cache", help="inspect or prune an artifact-cache directory"
    )
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="per-stage entry counts and byte totals"
    )
    cache_stats.add_argument("--cache-dir", required=True, metavar="DIR")
    cache_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cache_stats.set_defaults(handler=_cmd_cache_stats)
    cache_prune = cache_commands.add_parser(
        "prune", help="evict artifacts by age and/or LRU down to a byte budget"
    )
    cache_prune.add_argument("--cache-dir", required=True, metavar="DIR")
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
    """Entry point used by ``python -m repro``.

    Runs the command under :data:`GC_THRESHOLDS` and restores the
    caller's thresholds afterwards, so in-process callers keep theirs.
    A ``--trace-dir`` run records the whole command as one ``command``
    root span that starts here.
    """
    entered = (time.time(), time.perf_counter(), time.process_time())
    previous = gc.get_threshold()
    gc.set_threshold(*GC_THRESHOLDS)
    try:
        return _run_command(argv, entered)
    finally:
        gc.set_threshold(*previous)


def _run_command(argv: Optional[Sequence[str]], entered) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "from_snapshot", None) and (
        args.small
        or args.paper_scale
        or args.seed is not None
        or args.engine is not None
    ):
        # The snapshot on disk fixes the scale and the seed, and no
        # engine runs; a sizing or engine flag alongside it would be
        # silently ignored, which reads like it worked.
        parser.error(
            "--small/--paper-scale/--seed/--engine cannot be combined with "
            "--from-snapshot"
        )
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None and Path(cache_dir).exists() and not Path(cache_dir).is_dir():
        # One check for every subcommand taking --cache-dir: the cache
        # is a directory, and a file there would otherwise fail deep
        # inside the first cache write.
        print(
            f"error: cannot open cache {cache_dir}: not a directory", file=sys.stderr
        )
        return 2
    if args.command == "trace" or not getattr(args, "trace_dir", None):
        return args.handler(args)
    # A traced run is one ``command`` root span, backdated to main's
    # entry so the parse and setup before the tracer existed count too.
    # ``startup_cpu_seconds`` is the process's CPU time at that entry:
    # interpreter start plus imports under ``python -m repro`` (for an
    # in-process caller, everything the process did before).  At its
    # close it records the process's peak RSS (``max_rss_kb``) and the
    # tracer's own bookkeeping time so far (``tracer_seconds``).
    tracer = Tracer(args.trace_dir)
    wall, started, cpu = entered
    try:
        with activated(tracer), tracer.span(
            "command",
            since=(wall, started),
            command=args.command,
            startup_cpu_seconds=round(cpu, 6),
        ) as span:
            code = args.handler(args)
            span.annotate(exit_code=code, tracer_seconds=round(tracer.own_seconds, 6))
            return code
    finally:
        tracer.flush()
