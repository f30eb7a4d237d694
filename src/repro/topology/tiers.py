"""Tier classification of ASes from their relationships.

The paper observes that hybrid links "usually happen among tier-1 or
tier-2 ASes with large numbers of connections".  To reason about that,
both the synthetic generator and the analysis pipeline need a notion of
*tier*:

* **Tier 1** — transit-free ASes: no providers in the plane under
  consideration, and (for robustness against stub ASes that simply have
  no links) a non-trivial customer cone.
* **Tier 2** — ASes that have providers but also a sizeable customer
  cone: regional / national transit providers.
* **Tier 3** — everything else: stub and small multi-homed edge networks.

The classification is intentionally coarse; the paper only relies on the
tier-1 / tier-2 distinction to describe where hybrid links live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.relationships import AFI
from repro.topology.graph import ASGraph


@dataclass(frozen=True)
class TierThresholds:
    """Tunable thresholds for :func:`classify_tiers`.

    Attributes:
        tier1_min_cone: Minimum customer-cone size (excluding the AS
            itself) for a transit-free AS to be classified tier 1 instead
            of an isolated stub.
        tier2_min_cone: Minimum customer-cone size (excluding the AS
            itself) for an AS with providers to be classified tier 2.
    """

    tier1_min_cone: int = 1
    tier2_min_cone: int = 2


def classify_tiers(
    graph: ASGraph,
    afi: AFI,
    thresholds: TierThresholds = TierThresholds(),
) -> Dict[int, int]:
    """Classify every AS participating in ``afi`` into tiers 1-3.

    Returns a mapping ``asn -> tier``.  ASes not participating in the
    plane are omitted.
    """
    tiers: Dict[int, int] = {}
    for asn in graph.ases_in(afi):
        cone_size = len(graph.customer_cone(asn, afi)) - 1
        if graph.transit_free(asn, afi) and cone_size >= thresholds.tier1_min_cone:
            tiers[asn] = 1
        elif cone_size >= thresholds.tier2_min_cone:
            tiers[asn] = 2
        else:
            tiers[asn] = 3
    return tiers


def annotate_tiers(
    graph: ASGraph,
    afi: AFI = AFI.IPV4,
    thresholds: TierThresholds = TierThresholds(),
) -> Dict[int, int]:
    """Classify tiers and store them on the graph's node metadata.

    The IPv4 plane is the default reference plane because tiers are a
    business-level property; the paper's tier statements refer to the
    overall (IPv4-dominated) hierarchy.
    """
    tiers = classify_tiers(graph, afi, thresholds)
    for asn, tier in tiers.items():
        graph.node(asn).tier = tier
    return tiers


def tier_of_link(tiers: Dict[int, int], a: int, b: int) -> int:
    """Tier of a link, defined as the best (lowest) tier of its endpoints.

    Links involving ASes missing from ``tiers`` are treated as tier 3.
    """
    return min(tiers.get(a, 3), tiers.get(b, 3))
