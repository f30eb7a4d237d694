"""Valley-free reachability analysis of an annotated topology.

The paper notes that "the IPv6 topology is partitioned in terms of
valley-free routing": if every AS applied the strict Gao–Rexford export
rules, some AS pairs simply could not reach each other over IPv6, and
operators bridge those gaps by relaxing the rule (the reachability-
motivated valley paths).

This module quantifies that partitioning for any
:class:`~repro.core.annotation.ToRAnnotation`:

* the fraction of ordered AS pairs with a valley-free path,
* the ASes with full / partial valley-free reachability, and
* the mutual-reachability islands (connected components of the "both
  directions valley-free reachable" relation), whose count is a direct
  measure of how partitioned the plane is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.annotation import ToRAnnotation, ValleyFreeIndex


@dataclass
class ReachabilityPartitionReport:
    """Valley-free reachability statistics for one annotation.

    Attributes:
        ases: Number of ASes considered.
        ordered_pairs: Number of ordered (source, destination) pairs.
        reachable_pairs: Pairs with a valley-free path.
        fully_reachable_ases: ASes that can reach every other AS
            valley-free.
        island_sizes: Sizes of the mutual-reachability islands, largest
            first.
        unreachable_examples: A few (source, destination) pairs with no
            valley-free path, for reporting.
    """

    ases: int = 0
    ordered_pairs: int = 0
    reachable_pairs: int = 0
    fully_reachable_ases: int = 0
    island_sizes: List[int] = field(default_factory=list)
    unreachable_examples: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def reachable_fraction(self) -> float:
        """Fraction of ordered pairs with a valley-free path."""
        if self.ordered_pairs == 0:
            return 0.0
        return self.reachable_pairs / self.ordered_pairs

    @property
    def island_count(self) -> int:
        """Number of mutual-reachability islands."""
        return len(self.island_sizes)

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary for reports and benchmarks."""
        return {
            "ases": float(self.ases),
            "ordered_pairs": float(self.ordered_pairs),
            "reachable_pairs": float(self.reachable_pairs),
            "reachable_fraction": self.reachable_fraction,
            "fully_reachable_ases": float(self.fully_reachable_ases),
            "island_count": float(self.island_count),
            "largest_island": float(self.island_sizes[0]) if self.island_sizes else 0.0,
        }


def analyze_reachability(
    annotation: ToRAnnotation,
    ases: Optional[Iterable[int]] = None,
    max_examples: int = 10,
) -> ReachabilityPartitionReport:
    """Measure the valley-free reachability of an annotated plane.

    ``ases`` restricts the analysis (default: every AS appearing in the
    annotation).  The analysis runs one valley-free BFS per AS, so its
    cost is O(|ases| x |links|).
    """
    members = sorted(set(ases)) if ases is not None else annotation.ases
    member_set = set(members)
    report = ReachabilityPartitionReport(ases=len(members))
    if len(members) < 2:
        report.island_sizes = [len(members)] if members else []
        return report
    report.ordered_pairs = len(members) * (len(members) - 1)

    reachable_sets: Dict[int, Set[int]] = {}
    index = ValleyFreeIndex(annotation)
    for source in members:
        reachable = set(index.distances_from(source)) & member_set
        reachable.discard(source)
        reachable_sets[source] = reachable
        report.reachable_pairs += len(reachable)
        if len(reachable) == len(members) - 1:
            report.fully_reachable_ases += 1
        elif len(report.unreachable_examples) < max_examples:
            for destination in members:
                if destination != source and destination not in reachable:
                    report.unreachable_examples.append((source, destination))
                    break

    # Mutual-reachability islands: connected components of the symmetric
    # "reachable in both directions" relation.
    island_sizes: List[int] = []
    placed: Set[int] = set()
    for start in members:
        if start in placed:
            continue
        placed.add(start)
        stack = [start]
        size = 0
        while stack:
            source = stack.pop()
            size += 1
            for destination in reachable_sets[source]:
                if destination not in placed and source in reachable_sets[destination]:
                    placed.add(destination)
                    stack.append(destination)
        island_sizes.append(size)
    report.island_sizes = sorted(island_sizes, reverse=True)
    return report
