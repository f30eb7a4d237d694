"""Combining the Communities and LocPrf relationship evidence.

The paper extracts "the actual relationships" from both sources: the
Communities tags provide most of the coverage and also calibrate the
LocPrf values; the calibrated LocPrf values then add first-hop links that
carried no usable relationship community.  This module glues the two
inference stages together and reports coverage the same way the paper
does (fraction of visible links whose relationship was recovered, for all
IPv6 links and for the dual-stack subset).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.core.annotation import ToRAnnotation
from repro.core.communities_inference import (
    CommunitiesInference,
    CommunitiesInferenceResult,
)
from repro.core.locpref_inference import LocPrefInference, LocPrefInferenceResult
from repro.core.relationships import AFI, Link, Relationship, RelationshipSource

if TYPE_CHECKING:
    from repro.core.store import ObservationStore
    from repro.irr.registry import IRRRegistry


@dataclass
class CoverageReport:
    """Relationship coverage over a set of visible links.

    Attributes:
        total_links: Number of links visible in the observations.
        annotated_links: Number of those links with an inferred relationship.
    """

    total_links: int
    annotated_links: int

    @property
    def fraction(self) -> float:
        """Covered fraction (0 when no links are visible)."""
        if self.total_links == 0:
            return 0.0
        return self.annotated_links / self.total_links


@dataclass
class CombinedInferenceResult:
    """Outcome of the combined Communities + LocPrf inference.

    Attributes:
        annotations: Final per-AFI annotations (communities take
            precedence; LocPrf fills gaps).
        communities: The intermediate communities-only result.
        locpref: The intermediate LocPrf-only result.
        coverage: Per-AFI coverage over the links visible in the input
            observations.
    """

    annotations: Dict[AFI, ToRAnnotation]
    communities: CommunitiesInferenceResult
    locpref: LocPrefInferenceResult
    coverage: Dict[AFI, CoverageReport] = field(default_factory=dict)

    def annotation(self, afi: AFI) -> ToRAnnotation:
        """The final annotation for one address family."""
        return self.annotations[afi]

    def relationship(self, a: int, b: int, afi: AFI) -> Relationship:
        """Inferred relationship of ``a-b`` in ``afi`` from ``a``'s view."""
        return self.annotations[afi].get(a, b)

    def dual_stack_coverage(self, dual_stack_links: Iterable[Link]) -> CoverageReport:
        """Coverage restricted to links visible in both planes.

        A dual-stack link counts as covered when its relationship is
        known in *both* planes — that is the set the hybrid analysis can
        work on (the paper's 81 %).
        """
        links = list(dual_stack_links)
        covered = sum(
            1
            for link in links
            if self.annotations[AFI.IPV4].get_canonical(link).is_known
            and self.annotations[AFI.IPV6].get_canonical(link).is_known
        )
        return CoverageReport(total_links=len(links), annotated_links=covered)


class CombinedInference:
    """Run the communities inference, then the LocPrf inference, and merge.

    Args:
        registry: IRR registry shared by both stages.
        communities: Optionally a pre-configured
            :class:`CommunitiesInference` (defaults are used otherwise).
        locpref: Optionally a pre-configured :class:`LocPrefInference`.
    """

    def __init__(
        self,
        registry: IRRRegistry,
        communities: Optional[CommunitiesInference] = None,
        locpref: Optional[LocPrefInference] = None,
    ) -> None:
        self.registry = registry
        self.communities = communities or CommunitiesInference(registry)
        self.locpref = locpref or LocPrefInference(registry)

    def infer(self, store: ObservationStore) -> CombinedInferenceResult:
        """Infer relationships for every link visible in the store.

        Both stages query the store's indexes, and the store supplies
        the per-plane visible-link sets for the coverage report.
        """
        communities_result = self.communities.infer(store)
        locpref_result = self.locpref.infer(store)

        annotations: Dict[AFI, ToRAnnotation] = {}
        for afi in (AFI.IPV4, AFI.IPV6):
            merged = ToRAnnotation(afi, source=RelationshipSource.COMBINED)
            merged.update(communities_result.annotation(afi))
            # LocPrf evidence only fills links communities did not cover.
            merged.update(locpref_result.annotation(afi), overwrite=False)
            annotations[afi] = merged

        coverage = {}
        for afi in (AFI.IPV4, AFI.IPV6):
            visible = store.links(afi)
            annotated = set(annotations[afi].links()) & visible
            coverage[afi] = CoverageReport(
                total_links=len(visible), annotated_links=len(annotated)
            )
        return CombinedInferenceResult(
            annotations=annotations,
            communities=communities_result,
            locpref=locpref_result,
            coverage=coverage,
        )
