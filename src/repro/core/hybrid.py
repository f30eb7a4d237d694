"""Detection and classification of hybrid IPv4/IPv6 relationships.

A *hybrid* link is a dual-stack AS link whose relationship differs
between the IPv4 and the IPv6 plane — the central object of the paper.
Given the per-AFI annotations produced by the inference (or the ground
truth, for validation), this module

* identifies the dual-stack links whose relationship is known in both
  planes,
* classifies each as hybrid / not hybrid and, when hybrid, into the
  :class:`~repro.core.relationships.HybridType` categories the paper
  reports (peering-for-IPv4 / transit-for-IPv6, the reverse, and the
  single reversed-transit case), and
* when ground truth is available, scores the detection with
  precision/recall — something the original study could not do on the
  real Internet but which the synthetic substrate makes possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.core.annotation import ToRAnnotation
from repro.core.relationships import (
    AFI,
    HybridType,
    Link,
    Relationship,
    classify_hybrid,
)


@dataclass(frozen=True)
class HybridLink:
    """One dual-stack link and its per-plane relationships."""

    link: Link
    ipv4: Relationship
    ipv6: Relationship
    hybrid_type: HybridType

    @property
    def is_hybrid(self) -> bool:
        """True when the relationships differ."""
        return self.hybrid_type.is_hybrid


@dataclass
class HybridDetectionReport:
    """Result of hybrid-link detection over a set of dual-stack links.

    Attributes:
        assessed_links: Dual-stack links whose relationship was known in
            both planes (the denominator of the paper's 13 %).
        hybrid_links: The subset classified as hybrid.
        type_counts: Number of hybrid links per hybrid type.
    """

    assessed_links: List[HybridLink] = field(default_factory=list)
    hybrid_links: List[HybridLink] = field(default_factory=list)
    type_counts: Dict[HybridType, int] = field(default_factory=dict)

    @property
    def hybrid_fraction(self) -> float:
        """Fraction of assessed links that are hybrid."""
        if not self.assessed_links:
            return 0.0
        return len(self.hybrid_links) / len(self.assessed_links)

    def type_share(self, hybrid_type: HybridType) -> float:
        """Share of one hybrid type among all hybrid links."""
        if not self.hybrid_links:
            return 0.0
        return self.type_counts.get(hybrid_type, 0) / len(self.hybrid_links)

    def hybrid_link_set(self) -> Set[Link]:
        """The set of links classified as hybrid."""
        return {entry.link for entry in self.hybrid_links}

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by reports and benchmarks."""
        return {
            "assessed_links": float(len(self.assessed_links)),
            "hybrid_links": float(len(self.hybrid_links)),
            "hybrid_fraction": self.hybrid_fraction,
            "share_peer4_transit6": self.type_share(HybridType.PEER4_TRANSIT6),
            "share_peer6_transit4": self.type_share(HybridType.PEER6_TRANSIT4),
            "share_transit_reversed": self.type_share(HybridType.TRANSIT_REVERSED),
        }


@dataclass
class HybridValidation:
    """Precision/recall of detected hybrid links against ground truth."""

    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """Fraction of detected hybrid links that are truly hybrid."""
        detected = self.true_positives + self.false_positives
        return self.true_positives / detected if detected else 0.0

    @property
    def recall(self) -> float:
        """Fraction of true hybrid links that were detected."""
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        if self.precision + self.recall == 0.0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


class HybridDetector:
    """Detect hybrid relationships from per-AFI annotations."""

    def __init__(self, ipv4: ToRAnnotation, ipv6: ToRAnnotation) -> None:
        if ipv4.afi is not AFI.IPV4 or ipv6.afi is not AFI.IPV6:
            raise ValueError("annotations must be given as (IPv4, IPv6)")
        self.ipv4 = ipv4
        self.ipv6 = ipv6

    def dual_stack_links(self) -> List[Link]:
        """Links annotated (with a known relationship) in both planes."""
        common = set(self.ipv4.links()) & set(self.ipv6.links())
        return sorted(
            link
            for link in common
            if self.ipv4.get_canonical(link).is_known
            and self.ipv6.get_canonical(link).is_known
        )

    def classify(self, link: Link) -> Optional[HybridLink]:
        """Classify one link (``None`` when unknown in either plane)."""
        rel_v4 = self.ipv4.get_canonical(link)
        rel_v6 = self.ipv6.get_canonical(link)
        if not rel_v4.is_known or not rel_v6.is_known:
            return None
        return HybridLink(
            link=link,
            ipv4=rel_v4,
            ipv6=rel_v6,
            hybrid_type=classify_hybrid(rel_v4, rel_v6),
        )

    def detect_visible(self, store: "ObservationStore") -> HybridDetectionReport:
        """Classify the dual-stack links actually visible in a store.

        Convenience for the common measurement flow: restrict the
        assessment to the links an
        :class:`~repro.core.store.ObservationStore` saw in both planes.
        """
        return self.detect(store.dual_stack_links())

    def detect(self, links: Optional[Iterable[Link]] = None) -> HybridDetectionReport:
        """Classify all (or the given) dual-stack links.

        ``links`` restricts the assessment, e.g. to the links actually
        visible in both planes of the measured data rather than every
        annotated link.
        """
        candidates = sorted(links) if links is not None else self.dual_stack_links()
        report = HybridDetectionReport()
        for link in candidates:
            entry = self.classify(link)
            if entry is None:
                continue
            report.assessed_links.append(entry)
            if entry.is_hybrid:
                report.hybrid_links.append(entry)
                report.type_counts[entry.hybrid_type] = (
                    report.type_counts.get(entry.hybrid_type, 0) + 1
                )
        return report

    def validate(
        self,
        report: HybridDetectionReport,
        true_hybrid_links: Iterable[Link],
        assessable_only: bool = True,
    ) -> HybridValidation:
        """Score a detection report against the ground-truth hybrid set.

        ``assessable_only`` restricts the ground truth to links that were
        actually assessed (known in both planes), which measures the
        classifier itself rather than the coverage of the inference.
        """
        truth = set(true_hybrid_links)
        if assessable_only:
            assessed = {entry.link for entry in report.assessed_links}
            truth &= assessed
        detected = report.hybrid_link_set()
        return HybridValidation(
            true_positives=len(detected & truth),
            false_positives=len(detected - truth),
            false_negatives=len(truth - detected),
        )
