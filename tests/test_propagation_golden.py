"""Golden-equivalence suite for the optimized propagation fast path.

The optimized :class:`~repro.bgp.propagation.PropagationSimulator` must
be indistinguishable, route for route, from the frozen seed
implementation in :mod:`repro.bgp.reference`.  These tests run both over
the same generated topologies (seeds 2010 / 2011 / 2012, both address
families, policy features switched on: mixed LOCAL_PREF schemes,
community tagging, traffic-engineering overrides and IPv6 export
relaxations) and compare everything observable:

* the best path of every AS towards every prefix,
* the per-prefix reachable counts (which the optimized code tracks
  incrementally during the events instead of re-scanning),
* the event counts (the optimized loop preserves the seed's event
  ordering exactly), and
* the RIB snapshots of sampled vantage ASes.
"""

from __future__ import annotations

import pytest

from repro.core.relationships import AFI, Relationship
from repro.bgp.policy import LocalPrefScheme, RoutingPolicy, TrafficEngineeringOverride
from repro.bgp.prefixes import PrefixAllocator
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.reference import ReferencePropagationSimulator
from repro.bgp.results import originate_one_prefix_per_as
from repro.irr.registry import build_registry
from repro.topology.config import TopologyConfig
from repro.topology.generator import generate_topology

GOLDEN_SEEDS = (2010, 2011, 2012)

_SCHEMES = (
    (300, 200, 100),
    (900, 800, 700),
    (250, 170, 90),
)


def _golden_topology(seed: int):
    return generate_topology(
        TopologyConfig(
            seed=seed,
            tier1_count=4,
            tier2_count=12,
            tier3_count=40,
        )
    )


def _rich_policies(graph, seed: int):
    """Policies exercising every code path the fast loop specializes.

    Mixed LOCAL_PREF numbering, community taggers for a subset of ASes,
    community stripping, a TE override on a multi-homed AS and an IPv6
    export relaxation on the first peering link — all deterministic in
    ``seed``.
    """
    registry = build_registry(graph.ases, documented_fraction=0.6, seed=seed)
    allocator = PrefixAllocator()
    policies = {}
    for index, asn in enumerate(graph.ases):
        customer, peer, provider = _SCHEMES[(index + seed) % len(_SCHEMES)]
        policies[asn] = RoutingPolicy(
            asn=asn,
            local_pref=LocalPrefScheme(
                customer=customer,
                peer=peer,
                provider=provider,
                sibling=(customer + peer) // 2,
            ),
            tagger=registry.dictionary_for(asn),
            strip_communities_on_export=(index + seed) % 7 == 0,
        )
    # One TE override on the first multi-homed AS.
    for asn in graph.ases:
        providers = graph.providers_of(asn, AFI.IPV4)
        if len(providers) >= 2:
            policies[asn].te_overrides.append(
                TrafficEngineeringOverride(
                    neighbor=providers[0],
                    local_pref=10,
                    prefixes=(allocator.prefix(graph.ases[0], AFI.IPV4),),
                )
            )
            break
    # One IPv6 export relaxation over a peering link.
    for link in graph.links(AFI.IPV6):
        if graph.relationship(link.a, link.b, AFI.IPV6) is Relationship.P2P:
            policies[link.a].add_relaxation(link.b, AFI.IPV6)
            break
    return policies


def _assert_equivalent(graph, reference, optimized, origins):
    assert reference.events == optimized.events
    assert reference.reachable_counts == optimized.reachable_counts
    for asn in graph.ases:
        for prefix in origins:
            assert reference.best_path(asn, prefix) == optimized.best_path(
                asn, prefix
            ), f"AS{asn} towards {prefix}"


class TestGoldenEquivalence:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("afi", (AFI.IPV4, AFI.IPV6))
    def test_routes_reachability_and_events_match_reference(self, seed, afi):
        topology = _golden_topology(seed)
        graph = topology.graph
        policies = _rich_policies(graph, seed)
        origins = originate_one_prefix_per_as(graph, afi)
        reference = ReferencePropagationSimulator(graph, policies).run(origins)
        optimized = PropagationSimulator(graph, policies).run(origins)
        _assert_equivalent(graph, reference, optimized, origins)

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_snapshots_match_reference(self, seed):
        topology = _golden_topology(seed)
        graph = topology.graph
        policies = _rich_policies(graph, seed)
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        reference = ReferencePropagationSimulator(graph, policies).run(origins)
        optimized = PropagationSimulator(graph, policies).run(origins)
        for asn in graph.ases[:10]:
            assert reference.snapshot(asn).best_routes == optimized.snapshot(asn).best_routes

    def test_pruned_mode_matches_reference(self):
        topology = _golden_topology(2010)
        graph = topology.graph
        policies = _rich_policies(graph, 2010)
        keep = graph.ases[:4]
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        reference = ReferencePropagationSimulator(
            graph, policies, keep_ribs_for=keep
        ).run(origins)
        optimized = PropagationSimulator(graph, policies, keep_ribs_for=keep).run(
            origins
        )
        assert reference.reachable_counts == optimized.reachable_counts
        assert reference.events == optimized.events
        for asn in keep:
            assert reference.snapshot(asn).best_routes == optimized.snapshot(asn).best_routes
        # Non-kept speakers are fully pruned in both implementations.
        other = next(asn for asn in graph.ases if asn not in keep)
        assert not optimized.speakers[other].loc_rib.routes()

    def test_custom_policy_subclass_consulted_per_route(self):
        """Policies overriding the import hooks bypass the defaults cache."""

        class WeirdPolicy(RoutingPolicy):
            def local_pref_for(self, neighbor, relationship, prefix):
                # Prefer even-numbered neighbours, ignoring relationship:
                # only visible if the hook actually runs per route.
                return (500 if neighbor % 2 == 0 else 50), None

        topology = _golden_topology(2012)
        graph = topology.graph
        policies = {asn: WeirdPolicy(asn=asn) for asn in graph.ases}
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        reference = ReferencePropagationSimulator(graph, policies).run(origins)
        optimized = PropagationSimulator(graph, policies).run(origins)
        _assert_equivalent(graph, reference, optimized, origins)

    def test_prefix_pickle_drops_cached_hash(self):
        """The per-process hash cache must not cross a pickle boundary."""
        import pickle

        from repro.bgp.prefixes import Prefix

        prefix = Prefix("10.0.0.0/20")
        hash(prefix)  # populate the cache
        assert "_hash" not in prefix.__getstate__()
        restored = pickle.loads(pickle.dumps(prefix))
        assert restored == prefix
        assert hash(restored) == hash(prefix)  # recomputed, same process
        assert restored.afi is prefix.afi

    def test_graph_stats_identical_across_rebuilds(self):
        """The indexed graph reports the same stats() after any rebuild."""
        for seed in GOLDEN_SEEDS:
            graph = _golden_topology(seed).graph
            baseline = graph.stats()
            assert graph.copy().stats() == baseline
            graph.rebuild_indexes()
            assert graph.stats() == baseline
