"""End-to-end synthetic snapshot: the offline stand-in for "August 2010".

:func:`build_snapshot` wires every substrate together:

1. generate an Internet-like dual-stack topology with planted hybrid
   links (:mod:`repro.topology.generator`),
2. give a fraction of the ASes documented community dictionaries
   (:mod:`repro.irr`),
3. derive per-AS routing policies — LOCAL_PREF schemes, community
   tagging, traffic-engineering overrides and the IPv6 export
   relaxations that create valley paths (including the tier-1 peering
   dispute scenario the paper cites),
4. propagate routes for both address families
   (:mod:`repro.bgp.propagation`),
5. archive RIB snapshots at a set of RouteViews / RIPE-RIS style
   collectors (:mod:`repro.collectors`), and
6. extract the cleaned observations the measurement pipeline consumes.

The result, a :class:`SyntheticSnapshot`, also keeps the ground truth
(per-AFI annotations and the set of planted hybrid links) so experiments
can report detection quality — something impossible on the real data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bgp.backends import DEFAULT_ENGINE
from repro.core.relationships import AFI, HybridType, Link, Relationship
from repro.datasets.config import DatasetConfig
from repro.topology.generator import GeneratedTopology

if TYPE_CHECKING:
    from repro.analysis.paths import ExtractionResult
    from repro.bgp.policy import RoutingPolicy
    from repro.bgp.prefixes import Prefix, PrefixAllocator
    from repro.bgp.results import PropagationResult
    from repro.collectors.archive import CollectorArchive
    from repro.collectors.collector import Collector
    from repro.core.annotation import ToRAnnotation
    from repro.core.observations import ObservedRoute
    from repro.core.store import ObservationStore
    from repro.irr.registry import IRRRegistry

#: LOCAL_PREF numbering conventions assigned round-robin-ish to ASes.
_LOCPREF_STYLES: Tuple[Tuple[int, int, int], ...] = (
    (300, 200, 100),
    (900, 800, 700),
    (130, 120, 110),
    (250, 170, 90),
    (400, 300, 200),
)


@dataclass
class SyntheticSnapshot:
    """Everything a measurement or benchmark needs from one synthetic run.

    Attributes:
        config: The configuration the snapshot was built from.
        topology: The generated topology (including ground truth).
        registry: The IRR registry (community documentation).
        policies: The per-AS routing policies used for propagation.
        collectors: The collectors that archived the snapshot.
        archive: The archived table dumps.
        observations: Cleaned observations extracted from the archive.
        store: The indexed :class:`ObservationStore` over those
            observations — what the inference stages query.
        extraction: Extraction counters (records read, loops dropped ...).
        ground_truth: Per-AFI ground-truth annotations.
        true_hybrid_links: The hybrid links planted by the generator.
        relaxed_adjacencies: The (asn, neighbor) pairs whose IPv6 export
            was relaxed (peering-dispute bridges and gratuitous leaks).
        dispute_links: Tier-1 pairs that refuse to peer over IPv6.
        propagation: Per-AFI propagation results (RIBs pruned to the
            vantage points to bound memory).
    """

    config: DatasetConfig
    topology: GeneratedTopology
    registry: IRRRegistry
    policies: Dict[int, RoutingPolicy]
    collectors: List[Collector]
    archive: CollectorArchive
    observations: List[ObservedRoute]
    store: ObservationStore
    extraction: ExtractionResult
    ground_truth: Dict[AFI, ToRAnnotation]
    true_hybrid_links: Dict[Link, HybridType]
    relaxed_adjacencies: List[Tuple[int, int]]
    dispute_links: List[Link]
    propagation: Dict[AFI, PropagationResult]

    @property
    def graph(self):
        """The ground-truth AS graph."""
        return self.topology.graph

    def observations_for(self, afi: AFI) -> List[ObservedRoute]:
        """Observations restricted to one address family."""
        return list(self.store.by_afi[afi])

    def ground_truth_annotation(self, afi: AFI) -> ToRAnnotation:
        """Ground-truth relationship annotation for one plane."""
        return self.ground_truth[afi]


# ----------------------------------------------------------------------
# policy construction
# ----------------------------------------------------------------------
def _build_policies(
    topology: GeneratedTopology,
    registry: IRRRegistry,
    config: DatasetConfig,
    rng: random.Random,
    allocator: PrefixAllocator,
) -> Dict[int, RoutingPolicy]:
    from repro.bgp.policy import (
        LocalPrefScheme,
        RoutingPolicy,
        TrafficEngineeringOverride,
    )

    graph = topology.graph
    policies: Dict[int, RoutingPolicy] = {}
    for asn in graph.ases:
        customer, peer, provider = _LOCPREF_STYLES[rng.randrange(len(_LOCPREF_STYLES))]
        scheme = LocalPrefScheme(customer=customer, peer=peer, provider=provider,
                                 sibling=(customer + peer) // 2)
        policy = RoutingPolicy(
            asn=asn,
            local_pref=scheme,
            tagger=registry.dictionary_for(asn),
            strip_communities_on_export=rng.random() < config.strip_communities_fraction,
        )
        policies[asn] = policy

    # Traffic-engineering overrides: a multi-homed AS de-prefers one of
    # its providers for a handful of prefixes.
    for asn in graph.ases:
        providers = graph.providers_of(asn, AFI.IPV4)
        if len(providers) < 2:
            continue
        if rng.random() >= config.te_override_fraction:
            continue
        neighbor = providers[rng.randrange(len(providers))]
        scheme = policies[asn].local_pref
        victim_prefixes = tuple(
            allocator.prefix(origin, afi)
            for origin, afi in (
                (rng.choice(graph.ases), AFI.IPV4),
                (rng.choice(graph.ases_in(AFI.IPV6) or graph.ases), AFI.IPV6),
            )
        )
        policies[asn].te_overrides.append(
            TrafficEngineeringOverride(
                neighbor=neighbor,
                local_pref=max(scheme.provider - 20, 10),
                action="lower-pref",
                prefixes=victim_prefixes,
            )
        )
    return policies


def _apply_peering_disputes(
    topology: GeneratedTopology,
    policies: Dict[int, RoutingPolicy],
    config: DatasetConfig,
    rng: random.Random,
) -> Tuple[List[Link], List[Tuple[int, int]]]:
    """Model IPv6 peering disputes between tier-1 ASes.

    For each dispute the IPv6 relationship of a tier-1 - tier-1 link is
    removed (the two refuse to interconnect for IPv6) and a tier-2 AS
    that buys IPv6 transit from both sides starts leaking routes between
    them (relaxed exports towards both providers), exactly the scenario
    the paper's footnote describes.  The leak keeps IPv6 reachable but
    produces valley paths with no valley-free alternative.
    """
    graph = topology.graph
    disputes: List[Link] = []
    relaxed: List[Tuple[int, int]] = []
    tier1 = topology.tier1
    candidates = [
        Link(a, b)
        for i, a in enumerate(tier1)
        for b in tier1[i + 1 :]
        if graph.has_link(a, b)
        and graph.relationship(a, b, AFI.IPV6).is_known
    ]
    rng.shuffle(candidates)
    for link in candidates[: config.ipv6_peering_disputes]:
        # Find a bridge: an AS buying IPv6 transit from both sides.
        bridge = None
        customers_a = set(graph.customers_of(link.a, AFI.IPV6))
        customers_b = set(graph.customers_of(link.b, AFI.IPV6))
        shared = sorted(customers_a & customers_b)
        if shared:
            bridge = shared[rng.randrange(len(shared))]
        if bridge is None:
            continue
        # The two tier-1s stop interconnecting for IPv6 (clearing the
        # relationship through the graph API keeps the indexes in sync).
        graph.set_relationship(link.a, link.b, AFI.IPV6, Relationship.UNKNOWN)
        disputes.append(link)
        # The bridge leaks between its providers (IPv6 only).
        for provider in (link.a, link.b):
            policies[bridge].add_relaxation(provider, AFI.IPV6)
            relaxed.append((bridge, provider))
    return disputes, relaxed


def _apply_gratuitous_leaks(
    topology: GeneratedTopology,
    policies: Dict[int, RoutingPolicy],
    config: DatasetConfig,
    rng: random.Random,
) -> List[Tuple[int, int]]:
    """Relax random IPv6 adjacencies that do not affect reachability.

    These model sloppy IPv6 policies (free transit over peering links,
    route leaks) and produce valley paths for which a valley-free
    alternative exists — the majority class in the paper's Section 3.
    """
    graph = topology.graph
    relaxed: List[Tuple[int, int]] = []
    candidates: List[Tuple[int, int]] = []
    for link in graph.links(AFI.IPV6):
        rel = graph.relationship(link.a, link.b, AFI.IPV6)
        # Leaks over peering links: either side may leak towards the other.
        if rel is Relationship.P2P:
            candidates.append((link.a, link.b))
            candidates.append((link.b, link.a))
    rng.shuffle(candidates)
    target = int(round(config.gratuitous_leak_fraction * len(candidates)))
    for asn, neighbor in candidates[:target]:
        policies[asn].add_relaxation(neighbor, AFI.IPV6)
        relaxed.append((asn, neighbor))
    return relaxed


# ----------------------------------------------------------------------
# vantage points and origins
# ----------------------------------------------------------------------
def _select_vantage_points(
    topology: GeneratedTopology, config: DatasetConfig, rng: random.Random
) -> List[int]:
    """Pick vantage ASes: dual-stack, biased towards well-connected ASes."""
    graph = topology.graph
    dual_stack = [asn for asn in graph.dual_stack_ases()]
    if not dual_stack:
        raise ValueError("the topology has no dual-stack AS to peer with collectors")
    ranked = sorted(dual_stack, key=lambda asn: -graph.degree(asn))
    core = ranked[: max(config.vantage_points // 2, 1)]
    rest = [asn for asn in ranked[len(core):]]
    rng.shuffle(rest)
    selected = (core + rest)[: config.vantage_points]
    return sorted(selected)


def _select_origins(
    topology: GeneratedTopology, allocator: PrefixAllocator, afi: AFI
) -> Dict[Prefix, int]:
    """Every AS in the ``afi`` plane originates one prefix."""
    return {
        allocator.prefix(asn, afi): asn for asn in topology.graph.ases_in(afi)
    }


# ----------------------------------------------------------------------
# the builder
# ----------------------------------------------------------------------
def build_snapshot(
    config: Optional[DatasetConfig] = None,
    cache_dir=None,
    engine: str = DEFAULT_ENGINE,
) -> SyntheticSnapshot:
    """Build a complete synthetic measurement snapshot.

    A thin composition of the staged pipeline
    (:mod:`repro.pipeline.stages`): the stages run in exactly the order
    the historical monolithic builder ran, so the result is
    bit-identical to what it built (pinned by
    ``tests/test_pipeline_golden.py``).  ``cache_dir``
    enables the on-disk artifact cache — a warm call skips every stage
    whose fingerprint is unchanged.  ``engine`` selects the propagation
    backend (see :mod:`repro.bgp.backends`); every engine must produce
    the same snapshot bit for bit.  An active tracer (see
    :mod:`repro.telemetry`) records the run; tracing is
    fingerprint-neutral, so the snapshot stays bit-identical.
    """
    # Imported here: repro.pipeline.stages imports this module's
    # private stage helpers, so a module-level import would be circular.
    from repro.pipeline.stages import PipelineConfig, PropagationConfig, run_pipeline

    pipeline_config = PipelineConfig(
        dataset=config or DatasetConfig(),
        propagation=PropagationConfig(engine=engine),
    )
    run = run_pipeline(pipeline_config, cache_dir=cache_dir, targets=("snapshot",))
    return run.value("snapshot")
