"""Synthetic Internet-like AS topology generator.

The paper measures the real Internet through RouteViews / RIPE RIS.  In
this offline reproduction the measured object is produced by this
generator: a hierarchical AS topology with

* a fully meshed **tier-1 clique** of transit-free ASes,
* **tier-2** transit providers buying transit from several tier-1s and
  peering densely among themselves,
* **tier-3** stub / edge ASes multi-homing to tier-2 (and occasionally
  tier-1) providers,
* partial **IPv6 adoption** (all of tier-1, most of tier-2, a fraction of
  the stubs),
* **IPv6-only peering links** on top of the dual-stack ones (the IPv6
  Internet has historically had looser peering requirements), and
* a configurable fraction of **hybrid links**: dual-stack links whose
  IPv6 relationship differs from the IPv4 one, concentrated on tier-1 /
  tier-2 links and following the type mix reported in Section 3 of the
  paper (67 % peering-for-IPv4 / transit-for-IPv6, the rest
  peering-for-IPv6 / transit-for-IPv4, plus a single reversed-transit
  case).

The generator is fully deterministic given its ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.relationships import AFI, HybridType, Link, Relationship
from repro.topology.config import TopologyConfig
from repro.topology.graph import ASGraph
from repro.topology.tiers import annotate_tiers


@dataclass
class GeneratedTopology:
    """Result of :func:`generate_topology`.

    Attributes:
        graph: The annotated AS graph (ground-truth relationships).
        config: The configuration used.
        tier1: Tier-1 ASNs in creation order.
        tier2: Tier-2 ASNs in creation order.
        tier3: Tier-3 (stub) ASNs in creation order.
        hybrid_links: The links that were planted with differing IPv4 /
            IPv6 relationships, with their hybrid type.
    """

    graph: ASGraph
    config: TopologyConfig
    tier1: List[int]
    tier2: List[int]
    tier3: List[int]
    hybrid_links: Dict[Link, HybridType] = field(default_factory=dict)

    def copy(self) -> "GeneratedTopology":
        """An independent copy (see :meth:`ASGraph.copy`); the
        ``config``, which nothing mutates, is shared."""
        return GeneratedTopology(
            graph=self.graph.copy(),
            config=self.config,
            tier1=list(self.tier1),
            tier2=list(self.tier2),
            tier3=list(self.tier3),
            hybrid_links=dict(self.hybrid_links),
        )


def _sample_count(rng: random.Random, bounds: Tuple[int, int]) -> int:
    lo, hi = bounds
    if lo > hi:
        raise ValueError("provider count bounds must satisfy lo <= hi")
    return rng.randint(lo, hi)


def generate_topology(config: Optional[TopologyConfig] = None) -> GeneratedTopology:
    """Generate a synthetic Internet-like topology.

    The returned graph holds the *ground-truth* per-AFI relationships,
    including the planted hybrid links.  The measurement pipeline never
    looks at this ground truth directly — it only sees the BGP paths the
    propagation simulator derives from it — but tests and the evaluation
    harness use it to compute detection precision/recall.
    """
    config = config or TopologyConfig()
    rng = random.Random(config.seed)
    graph = ASGraph()

    next_asn = config.first_asn
    tier1: List[int] = []
    tier2: List[int] = []
    tier3: List[int] = []

    # ------------------------------------------------------------------
    # Tier 1: transit-free clique.
    # ------------------------------------------------------------------
    for index in range(config.tier1_count):
        asn = next_asn
        next_asn += 1
        tier1.append(asn)
        graph.add_as(asn, name=f"tier1-{index}", tier=1, ipv4=True)
    for i, a in enumerate(tier1):
        for b in tier1[i + 1 :]:
            graph.add_link(a, b, rel_v4=Relationship.P2P)

    # ------------------------------------------------------------------
    # Tier 2: regional transit providers.
    # ------------------------------------------------------------------
    for index in range(config.tier2_count):
        asn = next_asn
        next_asn += 1
        tier2.append(asn)
        graph.add_as(asn, name=f"tier2-{index}", tier=2, ipv4=True)
        providers = rng.sample(tier1, _sample_count(rng, config.tier2_providers))
        for provider in providers:
            graph.add_link(provider, asn, rel_v4=Relationship.P2C)
    # Tier-2 peering mesh (sparse).
    for i, a in enumerate(tier2):
        for b in tier2[i + 1 :]:
            if rng.random() < config.tier2_peering_probability:
                graph.add_link(a, b, rel_v4=Relationship.P2P)

    # ------------------------------------------------------------------
    # Tier 3: stubs and small edge networks.
    # ------------------------------------------------------------------
    if config.mode == "scale_free":
        # Preferential attachment, Barabási–Albert style via the
        # repeated-nodes trick: the pool holds every transit AS once
        # (so new providers can always win a stub) plus one extra entry
        # per customer edge, and each uniform draw from the pool is
        # therefore a draw proportional to 1 + customer count.  The
        # hierarchical branch below keeps its historical RNG stream
        # byte-identical — this branch owns its own draw sequence.
        attachment: List[int] = []
        for provider in tier1 + tier2:
            attachment.extend(
                [provider] * (1 + len(graph.customers_of(provider, AFI.IPV4)))
            )
        transit_count = len(tier1) + len(tier2)
        for index in range(config.tier3_count):
            asn = next_asn
            next_asn += 1
            tier3.append(asn)
            graph.add_as(asn, name=f"stub-{index}", tier=3, ipv4=True)
            count = min(_sample_count(rng, config.tier3_providers), transit_count)
            providers_set: Set[int] = set()
            while len(providers_set) < count:
                providers_set.add(attachment[rng.randrange(len(attachment))])
            for provider in sorted(providers_set):
                graph.add_link(provider, asn, rel_v4=Relationship.P2C)
                attachment.append(provider)
    else:
        for index in range(config.tier3_count):
            asn = next_asn
            next_asn += 1
            tier3.append(asn)
            graph.add_as(asn, name=f"stub-{index}", tier=3, ipv4=True)
            provider_pool = tier2 if rng.random() < 0.92 else tier1
            count = min(_sample_count(rng, config.tier3_providers), len(provider_pool))
            providers = rng.sample(provider_pool, count)
            for provider in providers:
                graph.add_link(provider, asn, rel_v4=Relationship.P2C)
    # Occasional stub-to-stub peering (IXP-style).
    for i, a in enumerate(tier3):
        for b in tier3[i + 1 : i + 40]:
            if rng.random() < config.tier3_peering_probability:
                graph.add_link(a, b, rel_v4=Relationship.P2P)

    # ------------------------------------------------------------------
    # IPv6 adoption: choose which ASes are dual-stack.
    # ------------------------------------------------------------------
    ipv6_ases: Set[int] = set()
    for members, fraction in (
        (tier1, config.tier1_ipv6_fraction),
        (tier2, config.tier2_ipv6_fraction),
        (tier3, config.tier3_ipv6_fraction),
    ):
        for asn in members:
            if rng.random() < fraction:
                ipv6_ases.add(asn)
                graph.node(asn).ipv6 = True

    # Dual-stack links: both endpoints IPv6-capable -> IPv6 relationship
    # mirrors the IPv4 one by default.
    for link in graph.links(AFI.IPV4):
        if link.a in ipv6_ases and link.b in ipv6_ases:
            record = graph.dual_stack_relationship(link.a, link.b)
            graph.set_relationship(link.a, link.b, AFI.IPV6, record.ipv4)

    # ------------------------------------------------------------------
    # Plant hybrid relationships on dual-stack links, biased to tier-1/2.
    # ------------------------------------------------------------------
    hybrid_links: Dict[Link, HybridType] = {}
    dual_stack = graph.dual_stack_links()
    core_ases = set(tier1) | set(tier2)
    core_links = [
        link for link in dual_stack if link.a in core_ases and link.b in core_ases
    ]
    core_link_set = set(core_links)
    other_links = [link for link in dual_stack if link not in core_link_set]
    target = int(round(config.hybrid_fraction * len(dual_stack)))
    rng.shuffle(core_links)
    rng.shuffle(other_links)
    # 85 % of hybrid links live in the core, the remainder elsewhere.
    candidates = core_links + other_links

    target_peer4_transit6 = int(round(config.hybrid_peer4_transit6_share * target))
    target_peer6_transit4 = target - target_peer4_transit6
    if config.include_reversed_transit_case and target_peer6_transit4 > 0:
        # Reserve one slot for the single p2c(IPv4)/c2p(IPv6) case.
        target_peer6_transit4 -= 1

    counts = {
        HybridType.PEER4_TRANSIT6: 0,
        HybridType.PEER6_TRANSIT4: 0,
        HybridType.TRANSIT_REVERSED: 0,
    }
    for link in candidates:
        if len(hybrid_links) >= target:
            break
        record = graph.dual_stack_relationship(link.a, link.b)
        if record is None or not record.both_known:
            continue
        if record.ipv4 is Relationship.P2P:
            if counts[HybridType.PEER4_TRANSIT6] >= target_peer4_transit6:
                continue
            # Peering for IPv4, transit for IPv6 (dominant type).
            rel_v6 = Relationship.P2C if rng.random() < 0.5 else Relationship.C2P
            graph.set_relationship(link.a, link.b, AFI.IPV6, rel_v6)
            hybrid_links[link] = HybridType.PEER4_TRANSIT6
            counts[HybridType.PEER4_TRANSIT6] += 1
        elif record.ipv4.is_transit:
            if (
                config.include_reversed_transit_case
                and counts[HybridType.TRANSIT_REVERSED] == 0
                and target > 0
            ):
                # The single p2c(IPv4)/c2p(IPv6) case the paper reports.
                graph.set_relationship(link.a, link.b, AFI.IPV6, record.ipv4.inverse)
                hybrid_links[link] = HybridType.TRANSIT_REVERSED
                counts[HybridType.TRANSIT_REVERSED] += 1
                continue
            if counts[HybridType.PEER6_TRANSIT4] >= target_peer6_transit4:
                continue
            # Transit for IPv4, peering for IPv6.
            graph.set_relationship(link.a, link.b, AFI.IPV6, Relationship.P2P)
            hybrid_links[link] = HybridType.PEER6_TRANSIT4
            counts[HybridType.PEER6_TRANSIT4] += 1

    # ------------------------------------------------------------------
    # IPv6-only peering links (looser IPv6 peering requirements).
    # ------------------------------------------------------------------
    ipv6_pool = sorted(ipv6_ases)
    extra_target = int(round(config.ipv6_only_peering_fraction * len(dual_stack)))
    attempts = 0
    added = 0
    while added < extra_target and attempts < extra_target * 30:
        attempts += 1
        a, b = rng.sample(ipv6_pool, 2)
        if graph.has_link(a, b):
            continue
        graph.add_link(a, b, rel_v6=Relationship.P2P)
        added += 1

    annotate_tiers(graph, AFI.IPV4)
    return GeneratedTopology(
        graph=graph,
        config=config,
        tier1=tier1,
        tier2=tier2,
        tier3=tier3,
        hybrid_links=hybrid_links,
    )
