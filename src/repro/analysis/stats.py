"""Section-3 statistics: the numbers the paper reports inline.

:func:`compute_section3` runs the full measurement pipeline over the
observations of an :class:`~repro.core.store.ObservationStore` —
coverage of the Communities/LocPrf inference, hybrid-link detection,
hybrid path visibility, valley-path analysis — and packages
the results as a :class:`Section3Report` whose fields map one-to-one to
the statistics of Section 3 of the paper
(``tests/test_integration_pipeline.py::TestSection3Shape`` checks each
against the paper's regime).

The computation is decomposed into three stage functions the staged
pipeline (:mod:`repro.pipeline.stages`) caches individually:

* :func:`run_inference` — the Communities/LocPrf combined inference,
* :func:`build_views` — link inventory, hybrid detection, visibility
  index and valley analysis (:class:`Section3Views`),
* :func:`assemble_report` — the cheap final report assembly.

:func:`compute_section3` is their thin, cache-free composition and
produces results bit-identical to the pre-decomposition monolith (the
golden tests pin this against the committed fixtures in
``tests/fixtures``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.analysis.links import LinkInventory, build_link_inventory
from repro.core.combined_inference import CombinedInference, CombinedInferenceResult
from repro.core.hybrid import HybridDetectionReport, HybridDetector
from repro.core.relationships import AFI, HybridType
from repro.core.valley import ValleyAnalysisReport, ValleyAnalyzer
from repro.core.visibility import VisibilityIndex, build_visibility_index

if TYPE_CHECKING:
    from repro.core.store import ObservationStore
    from repro.irr.registry import IRRRegistry


@dataclass
class Section3Report:
    """All Section-3 statistics for one snapshot.

    The ``S3.x`` comments number the statistics in the order Section 3
    reports them.
    """

    # S3.1 / S3.2 / S3.3 — raw visibility counts.
    ipv6_paths: int = 0
    ipv6_links: int = 0
    ipv4_links: int = 0
    dual_stack_links: int = 0
    # S3.4 — inference coverage.
    ipv6_links_with_relationship: int = 0
    ipv6_coverage: float = 0.0
    dual_stack_links_with_relationship: int = 0
    dual_stack_coverage: float = 0.0
    # S3.5 / S3.6 — hybrid links.
    hybrid_links: int = 0
    hybrid_fraction: float = 0.0
    hybrid_share_peer4_transit6: float = 0.0
    hybrid_share_peer6_transit4: float = 0.0
    hybrid_share_transit_reversed: float = 0.0
    # S3.7 — path visibility of hybrid links.
    paths_crossing_hybrid: int = 0
    fraction_paths_crossing_hybrid: float = 0.0
    # S3.8 / S3.9 — valley paths.
    valley_paths: int = 0
    valley_fraction: float = 0.0
    reachability_valley_paths: int = 0
    reachability_valley_fraction: float = 0.0

    def rows(self) -> List[Tuple[str, str]]:
        """(label, value) rows mirroring how the paper reports them."""
        return [
            ("IPv6 AS paths", f"{self.ipv6_paths}"),
            ("IPv6 AS links", f"{self.ipv6_links}"),
            ("IPv4/IPv6 (dual-stack) links", f"{self.dual_stack_links}"),
            (
                "IPv6 links with relationship",
                f"{self.ipv6_links_with_relationship} ({self.ipv6_coverage:.0%})",
            ),
            (
                "dual-stack links with relationship",
                f"{self.dual_stack_links_with_relationship} ({self.dual_stack_coverage:.0%})",
            ),
            ("hybrid links", f"{self.hybrid_links} ({self.hybrid_fraction:.0%})"),
            (
                "hybrid: p2p IPv4 / transit IPv6",
                f"{self.hybrid_share_peer4_transit6:.0%}",
            ),
            (
                "hybrid: p2p IPv6 / transit IPv4",
                f"{self.hybrid_share_peer6_transit4:.0%}",
            ),
            (
                "hybrid: reversed transit",
                f"{self.hybrid_share_transit_reversed:.0%}",
            ),
            (
                "IPv6 paths crossing a hybrid link",
                f"{self.paths_crossing_hybrid} ({self.fraction_paths_crossing_hybrid:.0%})",
            ),
            ("IPv6 valley paths", f"{self.valley_paths} ({self.valley_fraction:.0%})"),
            (
                "valley paths needed for reachability",
                f"{self.reachability_valley_paths} ({self.reachability_valley_fraction:.0%})",
            ),
        ]

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric dictionary (for JSON reports and benchmarks)."""
        return {
            "ipv6_paths": self.ipv6_paths,
            "ipv6_links": self.ipv6_links,
            "ipv4_links": self.ipv4_links,
            "dual_stack_links": self.dual_stack_links,
            "ipv6_links_with_relationship": self.ipv6_links_with_relationship,
            "ipv6_coverage": self.ipv6_coverage,
            "dual_stack_links_with_relationship": self.dual_stack_links_with_relationship,
            "dual_stack_coverage": self.dual_stack_coverage,
            "hybrid_links": self.hybrid_links,
            "hybrid_fraction": self.hybrid_fraction,
            "hybrid_share_peer4_transit6": self.hybrid_share_peer4_transit6,
            "hybrid_share_peer6_transit4": self.hybrid_share_peer6_transit4,
            "hybrid_share_transit_reversed": self.hybrid_share_transit_reversed,
            "paths_crossing_hybrid": self.paths_crossing_hybrid,
            "fraction_paths_crossing_hybrid": self.fraction_paths_crossing_hybrid,
            "valley_paths": self.valley_paths,
            "valley_fraction": self.valley_fraction,
            "reachability_valley_paths": self.reachability_valley_paths,
            "reachability_valley_fraction": self.reachability_valley_fraction,
        }


@dataclass
class Section3Artifacts:
    """Intermediate objects produced while computing the report.

    Keeping them around lets the examples and tests read the heavy
    steps' results (inference, visibility index) without recomputation.
    """

    report: Section3Report
    inventory: LinkInventory
    inference: CombinedInferenceResult
    hybrid: HybridDetectionReport
    visibility: VisibilityIndex
    valley: ValleyAnalysisReport


@dataclass
class Section3Views:
    """The derived per-snapshot views the report is assembled from.

    One cacheable unit in the staged pipeline: everything downstream of
    the inference that re-reads the observations (inventory, hybrid
    detection, visibility index, valley analysis), plus the distinct
    IPv6 path count and how many of those paths cross a hybrid link.
    """

    ipv6_path_count: int
    inventory: LinkInventory
    hybrid: HybridDetectionReport
    visibility: VisibilityIndex
    paths_crossing_hybrid: int
    valley: ValleyAnalysisReport


def run_inference(
    store: ObservationStore,
    registry: IRRRegistry,
) -> CombinedInferenceResult:
    """Stage: run the Communities/LocPrf combined inference."""
    return CombinedInference(registry).infer(store)


def build_views(
    store: ObservationStore,
    result: CombinedInferenceResult,
) -> Section3Views:
    """Stage: build every observation-derived view the report needs,
    each from the store's shared indexes."""
    # S3.5 / S3.6 — hybrid detection over the visible dual-stack links.
    detector = HybridDetector(
        result.annotation(AFI.IPV4), result.annotation(AFI.IPV6)
    )
    hybrid = detector.detect_visible(store)
    # S3.8 / S3.9 — valley analysis of the IPv6 paths.
    analyzer = ValleyAnalyzer(result.annotation(AFI.IPV6))
    return Section3Views(
        ipv6_path_count=store.distinct_path_count(AFI.IPV6),
        inventory=build_link_inventory(store),
        hybrid=hybrid,
        # S3.7 — visibility of links in the IPv6 paths.
        visibility=build_visibility_index(store, afi=AFI.IPV6),
        paths_crossing_hybrid=store.paths_crossing_any(
            hybrid.hybrid_link_set(), AFI.IPV6
        ),
        valley=analyzer.analyze(store, afi=AFI.IPV6),
    )


def assemble_report(
    views: Section3Views, result: CombinedInferenceResult
) -> Section3Report:
    """Stage: assemble the flat Section-3 report from the views."""
    inventory = views.inventory
    report = Section3Report()
    report.ipv6_paths = views.ipv6_path_count
    report.ipv6_links = len(inventory.ipv6_links)
    report.ipv4_links = len(inventory.ipv4_links)
    report.dual_stack_links = len(inventory.dual_stack_links)

    # S3.4 — coverage.
    ipv6_annotation = result.annotation(AFI.IPV6)
    annotated_ipv6 = {
        link for link in inventory.ipv6_links if ipv6_annotation.get_canonical(link).is_known
    }
    report.ipv6_links_with_relationship = len(annotated_ipv6)
    report.ipv6_coverage = (
        len(annotated_ipv6) / report.ipv6_links if report.ipv6_links else 0.0
    )
    dual_coverage = result.dual_stack_coverage(inventory.dual_stack_links)
    report.dual_stack_links_with_relationship = dual_coverage.annotated_links
    report.dual_stack_coverage = dual_coverage.fraction

    hybrid_report = views.hybrid
    report.hybrid_links = len(hybrid_report.hybrid_links)
    report.hybrid_fraction = hybrid_report.hybrid_fraction
    report.hybrid_share_peer4_transit6 = hybrid_report.type_share(HybridType.PEER4_TRANSIT6)
    report.hybrid_share_peer6_transit4 = hybrid_report.type_share(HybridType.PEER6_TRANSIT4)
    report.hybrid_share_transit_reversed = hybrid_report.type_share(
        HybridType.TRANSIT_REVERSED
    )

    path_count = views.visibility.path_count
    report.paths_crossing_hybrid = views.paths_crossing_hybrid
    report.fraction_paths_crossing_hybrid = (
        views.paths_crossing_hybrid / path_count if path_count else 0.0
    )

    report.valley_paths = views.valley.valley_count
    report.valley_fraction = views.valley.valley_fraction
    report.reachability_valley_paths = len(views.valley.reachability_motivated)
    report.reachability_valley_fraction = views.valley.reachability_fraction
    return report


def compute_section3(
    store: ObservationStore,
    registry: IRRRegistry,
) -> Section3Artifacts:
    """Compute every Section-3 statistic for the observations of a store.

    This is the thin, cache-free composition of the three stage
    functions; the staged pipeline (:mod:`repro.pipeline`) runs the same
    functions with per-stage artifact caching.
    """
    result = run_inference(store, registry)
    views = build_views(store, result)
    report = assemble_report(views, result)
    return Section3Artifacts(
        report=report,
        inventory=views.inventory,
        inference=result,
        hybrid=views.hybrid,
        visibility=views.visibility,
        valley=views.valley,
    )
