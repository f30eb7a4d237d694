"""Measurement pipeline: path/link extraction, statistics, reachability, reports."""

from repro.analysis.links import (
    LinkInventory,
    build_link_inventory,
    endpoint_ases,
    links_between,
)
from repro.analysis.partition import (
    ReachabilityPartitionReport,
    analyze_reachability,
    compare_relaxation,
)
from repro.analysis.paths import (
    ExtractionResult,
    ExtractionStats,
    observation_from_record,
    store_from_records,
)
from repro.analysis.report import (
    format_series,
    format_summary,
    format_table,
    to_json,
    write_json_report,
)
from repro.analysis.stats import (
    Section3Artifacts,
    Section3Report,
    Section3Views,
    assemble_report,
    build_views,
    compute_section3,
    run_inference,
)

__all__ = [
    "LinkInventory",
    "build_link_inventory",
    "endpoint_ases",
    "links_between",
    "ReachabilityPartitionReport",
    "analyze_reachability",
    "compare_relaxation",
    "ExtractionResult",
    "ExtractionStats",
    "observation_from_record",
    "store_from_records",
    "format_series",
    "format_summary",
    "format_table",
    "to_json",
    "write_json_report",
    "Section3Artifacts",
    "Section3Report",
    "Section3Views",
    "assemble_report",
    "build_views",
    "compute_section3",
    "run_inference",
]
