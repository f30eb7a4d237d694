"""Golden-equivalence suite for the optimized propagation fast path.

The :class:`~repro.bgp.propagation.PropagationSimulator` must be
indistinguishable, route for route, from the seed event loop it
replaced.  That loop's results over the generated topologies (seeds
2010 / 2011 / 2012, both address families, policy features switched on:
mixed LOCAL_PREF schemes, community tagging, traffic-engineering
overrides and IPv6 export relaxations) are committed in
``tests/fixtures/propagation_golden.json``, and these tests compare
everything observable with them:

* the best path of every AS towards every prefix (one digest per AS,
  plus a readable sample),
* the per-prefix reachable counts (which the simulator tracks
  incrementally during the events instead of re-scanning),
* the event counts (the loop preserves the seed's event ordering
  exactly), and
* the RIB snapshots of sampled vantage ASes, every field a route's
  equality compares.

Regenerate the fixture only on purpose, with
``PYTHONPATH=src python tests/test_propagation_golden.py``.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.relationships import AFI, Relationship
from repro.bgp.policy import LocalPrefScheme, RoutingPolicy, TrafficEngineeringOverride
from repro.bgp.prefixes import PrefixAllocator
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.results import originate_one_prefix_per_as
from repro.irr.registry import build_registry
from repro.topology.config import TopologyConfig
from repro.topology.generator import generate_topology

from golden import canonical, digest, load, write

FIXTURE = "propagation_golden.json"

GOLDEN_SEEDS = (2010, 2011, 2012)
AFIS = (AFI.IPV4, AFI.IPV6)

#: Origins at each end of a plane whose best paths the fixture keeps
#: in the clear.
SAMPLE = 3
#: Vantage ASes (the first of the graph) whose snapshots are compared.
SNAPSHOT_ASES = 10
#: Speakers that keep their RIBs in the pruned run.
PRUNED_KEEP = 4

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


class WeirdPolicy(RoutingPolicy):
    def local_pref_for(self, neighbor, relationship, prefix):
        # Prefer even-numbered neighbours, ignoring relationship: only
        # visible if the hook actually runs per route.
        return (500 if neighbor % 2 == 0 else 50), None


def _rich_case(seed: int, afi: AFI):
    """The golden topology of ``seed``, its rich policies and the
    one-prefix-per-AS origins of ``afi``."""
    graph = _golden_topology(seed).graph
    return graph, _rich_policies(graph, seed), originate_one_prefix_per_as(graph, afi)


def routes_entry(graph, origins, result) -> dict:
    """What the fixture keeps of one run: its events, reachable counts,
    a digest of every AS's best paths and a readable sample of them."""
    ends = list(origins.items())
    return {
        "events": result.events,
        "reachable_counts": canonical(result.reachable_counts),
        "best_paths_sha256": {
            str(asn): digest(
                {prefix: result.best_path(asn, prefix) for prefix in origins}
            )
            for asn in graph.ases
        },
        "best_paths_sample": canonical(
            [
                [holder, prefix, result.best_path(holder, prefix)]
                for _, holder in ends[-SAMPLE:]
                for prefix, _ in ends[:SAMPLE]
            ]
        ),
    }


def snapshots_entry(result, ases) -> dict:
    """The digest of each of ``ases``'s Loc-RIB snapshot routes."""
    return {str(asn): digest(result.snapshot(asn).best_routes) for asn in ases}


def pruned_entry(result, keep) -> dict:
    """What the fixture keeps of the pruned run: events, reachable
    counts and the snapshots of the speakers that keep their RIBs."""
    return {
        "events": result.events,
        "reachable_counts": canonical(result.reachable_counts),
        "snapshots": snapshots_entry(result, keep),
    }


def golden_payload() -> dict:
    """Every case's results, as the fixture stores them."""
    routes, snapshots = {}, {}
    for seed in GOLDEN_SEEDS:
        for afi in AFIS:
            graph, policies, origins = _rich_case(seed, afi)
            result = PropagationSimulator(graph, policies).run(origins)
            routes[f"{seed}-{afi.name}"] = routes_entry(graph, origins, result)
            if afi is AFI.IPV4:
                snapshots[str(seed)] = snapshots_entry(
                    result, graph.ases[:SNAPSHOT_ASES]
                )
    graph, policies, origins = _rich_case(2010, AFI.IPV4)
    keep = graph.ases[:PRUNED_KEEP]
    pruned = PropagationSimulator(graph, policies, keep_ribs_for=keep).run(origins)
    graph = _golden_topology(2012).graph
    origins = originate_one_prefix_per_as(graph, AFI.IPV4)
    weird = {asn: WeirdPolicy(asn=asn) for asn in graph.ases}
    custom = PropagationSimulator(graph, weird).run(origins)
    return {
        "routes": routes,
        "snapshots": snapshots,
        "pruned": pruned_entry(pruned, keep),
        "custom_policy": routes_entry(graph, origins, custom),
    }


@functools.cache
def expected() -> dict:
    return load(FIXTURE)


class TestGoldenEquivalence:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("afi", AFIS)
    def test_routes_reachability_and_events_match_reference(self, seed, afi):
        graph, policies, origins = _rich_case(seed, afi)
        result = PropagationSimulator(graph, policies).run(origins)
        assert routes_entry(graph, origins, result) == (
            expected()["routes"][f"{seed}-{afi.name}"]
        )

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_snapshots_match_reference(self, seed):
        graph, policies, origins = _rich_case(seed, AFI.IPV4)
        result = PropagationSimulator(graph, policies).run(origins)
        assert snapshots_entry(result, graph.ases[:SNAPSHOT_ASES]) == (
            expected()["snapshots"][str(seed)]
        )

    def test_pruned_mode_matches_reference(self):
        graph, policies, origins = _rich_case(2010, AFI.IPV4)
        keep = graph.ases[:PRUNED_KEEP]
        result = PropagationSimulator(graph, policies, keep_ribs_for=keep).run(
            origins
        )
        assert pruned_entry(result, keep) == expected()["pruned"]
        # Non-kept speakers are fully pruned.
        other = next(asn for asn in graph.ases if asn not in keep)
        assert not result.speakers[other].loc_rib.routes()

    def test_custom_policy_subclass_consulted_per_route(self):
        """Policies overriding the import hooks bypass the defaults cache."""
        graph = _golden_topology(2012).graph
        policies = {asn: WeirdPolicy(asn=asn) for asn in graph.ases}
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        result = PropagationSimulator(graph, policies).run(origins)
        assert routes_entry(graph, origins, result) == expected()["custom_policy"]

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


if __name__ == "__main__":
    print(write(FIXTURE, golden_payload()))
