"""Cross-backend equivalence suite for the pluggable propagation engines.

The event simulator is the oracle: whatever policies are configured, its
converged state is correct by construction (it is itself pinned against
the frozen seed implementation in ``test_propagation_golden``).  Every
other backend must be indistinguishable from it on the configurations it
accepts:

* ``array`` replays the same event loop over interned ids — same event
  counts, same routes, attribute for attribute, on *arbitrary* policies
  (the rich golden mix: TE overrides, relaxations, taggers, strips),
* ``equilibrium`` computes the fixed point directly — same routes and
  reachable counts with zero events, on vanilla Gao-Rexford policies
  only, and must *refuse* anything else (``BackendNotApplicable``),
* ``auto`` selection picks the equilibrium solver exactly when it is
  applicable and falls back to the event engine — with the reason —
  otherwise.

A hypothesis harness drives the same assertions over random synthetic
topologies and random origin subsets, so the equivalence does not
silently narrow to the golden seeds.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relationships import AFI, Relationship
from repro.bgp.backends import (
    ArrayBackend,
    BackendNotApplicable,
    EquilibriumBackend,
    EventBackend,
)
from repro.bgp.backends.base import install_converged_routes
from repro.bgp.engine import PropagationEngine
from repro.bgp.policy import LocalPrefScheme, RoutingPolicy, TrafficEngineeringOverride
from repro.bgp.prefixes import PrefixAllocator
from repro.bgp.propagation import PropagationSimulator, originate_one_prefix_per_as
from repro.bgp.results import ConvergenceError
from repro.bgp.router import BGPSpeaker
from repro.irr.registry import build_registry
from repro.telemetry import Tracer, activated
from repro.topology.generator import TopologyConfig, generate_topology

from test_propagation_golden import GOLDEN_SEEDS, _golden_topology, _rich_policies

_SCHEMES = (
    (300, 200, 100),
    (900, 800, 700),
    (250, 170, 90),
)


def _vanilla_policies(graph, seed: int):
    """Gao-Rexford-conformant policies that still exercise attributes.

    Mixed LOCAL_PREF numbering across ASes, community taggers and
    export-time community stripping are all fine for the equilibrium
    solver (they never change *which* route wins, only its attributes,
    which the shared materializer replays).  No TE overrides, no export
    relaxations — those are what the applicability check rejects.
    """
    registry = build_registry(graph.ases, documented_fraction=0.6, seed=seed)
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
    return policies


def _leaky_policies(graph, seed: int):
    """The rich golden mix (a TE override, an IPv6 export relaxation)
    plus leaks over half of the IPv6 peering adjacencies.

    The rich mix alone left no stale Adj-RIB-In entry in 150 sampled
    small topologies.  With the leaks and tier-2 peering probability
    0.5, about one IPv6 plane in nine holds one.
    """
    policies = _rich_policies(graph, seed)
    peerings = [
        pair
        for link in graph.links(AFI.IPV6)
        if graph.relationship(link.a, link.b, AFI.IPV6) is Relationship.P2P
        for pair in ((link.a, link.b), (link.b, link.a))
    ]
    random.Random(seed).shuffle(peerings)
    for asn, neighbor in peerings[: len(peerings) // 2]:
        policies[asn].add_relaxation(neighbor, AFI.IPV6)
    return policies


def _stale_routes(graph, result, origins):
    """Installed routes whose path is not the sender's best path with
    the sender prepended: entries a loop check left stale."""
    stale = []
    for prefix in origins:
        for asn in graph.ases:
            route = result.best_route(asn, prefix)
            if route is None or route.learned_from is None:
                continue
            sender_best = result.best_route(route.learned_from, prefix)
            if route.as_path.hops != sender_best.full_path():
                stale.append((asn, prefix))
    return stale


def _assert_same_converged_state(graph, oracle, candidate, origins):
    """Bit-level equivalence of the converged state (not the event count)."""
    assert oracle.reachable_counts == candidate.reachable_counts
    for asn in graph.ases:
        for prefix in origins:
            assert oracle.best_route(asn, prefix) == candidate.best_route(
                asn, prefix
            ), f"AS{asn} towards {prefix}"
    for asn in graph.ases[:8]:
        assert oracle.snapshot(asn).best_routes == candidate.snapshot(asn).best_routes


class TestArrayBackendEquivalence:
    """``array`` is the event loop re-expressed — events included."""

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("afi", (AFI.IPV4, AFI.IPV6))
    def test_rich_policies_bit_identical_to_event(self, seed, afi):
        graph = _golden_topology(seed).graph
        policies = _rich_policies(graph, seed)
        origins = originate_one_prefix_per_as(graph, afi)
        event = EventBackend(graph, policies).run(origins)
        array = ArrayBackend(graph, policies).run(origins)
        assert array.events == event.events
        _assert_same_converged_state(graph, event, array, origins)

    def test_pruned_mode_matches_event(self):
        graph = _golden_topology(2010).graph
        policies = _rich_policies(graph, 2010)
        keep = graph.ases[:4]
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        event = EventBackend(graph, policies, keep_ribs_for=keep).run(origins)
        array = ArrayBackend(graph, policies, keep_ribs_for=keep).run(origins)
        assert array.events == event.events
        assert array.reachable_counts == event.reachable_counts
        for asn in keep:
            assert array.snapshot(asn).best_routes == event.snapshot(asn).best_routes
        other = next(asn for asn in graph.ases if asn not in keep)
        assert not array.speakers[other].loc_rib.routes()


class TestEquilibriumBackendEquivalence:
    """``equilibrium`` computes the same fixed point without events."""

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    @pytest.mark.parametrize("afi", (AFI.IPV4, AFI.IPV6))
    def test_vanilla_policies_same_routes_zero_events(self, seed, afi):
        graph = _golden_topology(seed).graph
        policies = _vanilla_policies(graph, seed)
        origins = originate_one_prefix_per_as(graph, afi)
        event = EventBackend(graph, policies).run(origins)
        equilibrium = EquilibriumBackend(graph, policies).run(origins)
        assert equilibrium.events == 0
        _assert_same_converged_state(graph, event, equilibrium, origins)

    def test_default_policies_accepted(self):
        """No policies at all is the most vanilla configuration there is."""
        graph = _golden_topology(2011).graph
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        event = EventBackend(graph, None).run(origins)
        equilibrium = EquilibriumBackend(graph, None).run(origins)
        _assert_same_converged_state(graph, event, equilibrium, origins)

    def test_pruned_mode_matches_event(self):
        graph = _golden_topology(2012).graph
        policies = _vanilla_policies(graph, 2012)
        keep = graph.ases[:4]
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        event = EventBackend(graph, policies, keep_ribs_for=keep).run(origins)
        equilibrium = EquilibriumBackend(graph, policies, keep_ribs_for=keep).run(
            origins
        )
        assert equilibrium.reachable_counts == event.reachable_counts
        for asn in keep:
            assert (
                equilibrium.snapshot(asn).best_routes
                == event.snapshot(asn).best_routes
            )
        other = next(asn for asn in graph.ases if asn not in keep)
        assert not equilibrium.speakers[other].loc_rib.routes()

    def test_rejects_non_gao_rexford_policies(self):
        """Direct use on a rich mix (TE override, relaxation) must refuse."""
        graph = _golden_topology(2010).graph
        policies = _rich_policies(graph, 2010)
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        with pytest.raises(BackendNotApplicable):
            EquilibriumBackend(graph, policies).run(origins)

    def test_rejects_custom_policy_subclass(self):
        class WeirdPolicy(RoutingPolicy):
            def local_pref_for(self, neighbor, relationship, prefix):
                return (500 if neighbor % 2 == 0 else 50), None

        graph = _golden_topology(2012).graph
        policies = {asn: WeirdPolicy(asn=asn) for asn in graph.ases}
        reason = EquilibriumBackend.inapplicable_reason(graph, policies, AFI.IPV4)
        assert reason is not None and "WeirdPolicy" in reason


class TestEngineSelection:
    """``engine=`` config: validation, auto selection and fallback."""

    def test_invalid_engine_rejected(self):
        graph = _golden_topology(2010).graph
        with pytest.raises(ValueError):
            PropagationEngine(graph, engine="quantum")

    def test_invalid_engine_rejected_in_pipeline_config(self):
        from repro.pipeline import PropagationConfig

        with pytest.raises(ValueError):
            PropagationConfig(engine="quantum")

    def test_auto_selects_equilibrium_on_vanilla_policies(self):
        graph = _golden_topology(2011).graph
        policies = _vanilla_policies(graph, 2011)
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        engine = PropagationEngine(graph, policies, engine="auto")
        name, reason = engine.select_backend(origins)
        assert (name, reason) == ("equilibrium", None)
        auto = engine.run(origins)
        event = PropagationEngine(graph, policies, engine="event").run(origins)
        assert auto.events == 0
        _assert_same_converged_state(graph, event, auto, origins)

    @pytest.mark.parametrize("mode", ("auto", "equilibrium"))
    def test_falls_back_to_event_on_non_gao_rexford(self, mode):
        """The adversarial case: rich policies break the class ordering,
        so selection must fall back (with the reason) and the run must be
        bit-identical to the event engine — events included."""
        graph = _golden_topology(2010).graph
        policies = _rich_policies(graph, 2010)
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        engine = PropagationEngine(graph, policies, engine=mode)
        name, reason = engine.select_backend(origins)
        assert name == "event"
        assert reason  # a human-readable explanation, never empty
        fallback = engine.run(origins)
        event = PropagationSimulator(graph, policies).run(origins)
        assert fallback.events == event.events
        _assert_same_converged_state(graph, event, fallback, origins)

    def test_fallback_triggered_by_other_afi_in_origin_set(self):
        """Selection looks at *every* AFI present in the origins: an IPv6
        relaxation must push a mixed v4+v6 origin set off the solver."""
        graph = _golden_topology(2011).graph
        policies = _vanilla_policies(graph, 2011)
        for link in graph.links(AFI.IPV6):
            if graph.relationship(link.a, link.b, AFI.IPV6) is Relationship.P2P:
                policies[link.a].add_relaxation(link.b, AFI.IPV6)
                break
        origins = dict(originate_one_prefix_per_as(graph, AFI.IPV4))
        origins.update(originate_one_prefix_per_as(graph, AFI.IPV6))
        engine = PropagationEngine(graph, policies, engine="auto")
        name, reason = engine.select_backend(origins)
        assert name == "event"
        assert "relaxes exports" in reason
        # The IPv4-only subset alone is still solver-eligible.
        v4_only = originate_one_prefix_per_as(graph, AFI.IPV4)
        assert engine.select_backend(v4_only) == ("equilibrium", None)

    @pytest.mark.parametrize("mode, per_run", (("auto", 1), ("event", 0)))
    def test_fallback_is_counted_once_per_run(self, tmp_path, capsys, mode, per_run):
        """A fallback emits one ``engine.fallback`` counter and one stderr
        line per public run; selection alone emits neither."""
        graph = _golden_topology(2011).graph
        policies = _vanilla_policies(graph, 2011)
        asn = next(a for a in graph.ases if graph.providers_of(a, AFI.IPV4))
        policies[asn].te_overrides.append(
            TrafficEngineeringOverride(
                neighbor=graph.providers_of(asn, AFI.IPV4)[0], local_pref=50
            )
        )
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        engine = PropagationEngine(graph, policies, engine=mode)
        tracer = Tracer(tmp_path)

        def fallbacks():
            return [
                r for r in tracer.records()
                if r["kind"] == "counter" and r["name"] == "engine.fallback"
            ]

        with activated(tracer):
            engine.select_backend(origins)
            engine.selection_report(origins)
            assert fallbacks() == []
            engine.run(origins)
            engine.run(origins)
        counted = fallbacks()
        assert len(counted) == 2 * per_run
        for record in counted:
            assert record["attrs"]["engine"] == mode
            assert "traffic-engineering override" in record["attrs"]["reason"]
        assert capsys.readouterr().err.count("fell back to event") == 2 * per_run

    def test_array_engine_through_engine_run(self):
        graph = _golden_topology(2012).graph
        policies = _rich_policies(graph, 2012)
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        event = PropagationEngine(graph, policies, engine="event").run(origins)
        array = PropagationEngine(graph, policies, engine="array").run(origins)
        assert array.events == event.events
        _assert_same_converged_state(graph, event, array, origins)


class TestChainWalk:
    """The converged-route materializer refuses inconsistent forests."""

    def test_sender_cycle_raises_naming_the_cycle(self):
        speakers = {asn: BGPSpeaker(asn) for asn in (1, 2, 3, 4)}
        prefix = PrefixAllocator().prefix(4, AFI.IPV4)
        calls = 0

        def resolve(asn):
            nonlocal calls
            calls += 1
            if calls > 10_000:
                pytest.fail("the chain walk does not stop on a sender cycle")
            return {1: 2, 2: 3, 3: 1}[asn], Relationship.P2C

        with pytest.raises(ConvergenceError, match="AS1 -> AS2 -> AS3 -> AS1"):
            install_converged_routes(speakers, prefix, 4, [1], resolve)

    @pytest.mark.parametrize("backend_cls", (ArrayBackend, EquilibriumBackend))
    def test_chain_through_an_unrouted_as_raises(self, backend_cls, monkeypatch):
        """Inconsistent converged state fails loudly, naming the culprit.

        ``equilibrium``: a sender chain must never index the ASN table
        with the no-route sentinel (``asns[-1]`` would silently be the
        last AS).  ``array``: a stored path that crosses a pair with no
        relationship in the plane names the prefix and that hop."""
        graph = _golden_topology(2011).graph
        backend = backend_cls(graph, _vanilla_policies(graph, 2011))
        origin, holder, unrouted = graph.ases[:3]
        ids = {asn: i for i, asn in enumerate(graph.ases)}
        prefix = PrefixAllocator().prefix(origin, AFI.IPV4)
        if backend_cls is ArrayBackend:
            stranger = next(
                asn
                for asn in graph.ases
                if asn != origin
                and not graph.relationship(asn, origin, AFI.IPV4).is_known
            )

            def plant(*_args):
                backend._best_sender[ids[origin]] = -2
                backend._best_path[ids[origin]] = (ids[origin],)
                backend._best_sender[ids[stranger]] = ids[origin]
                backend._best_path[ids[stranger]] = (ids[origin],)
                return 0, [ids[origin], ids[stranger]]

            monkeypatch.setattr(backend, "_propagate_prefix", plant)
            match = f"{prefix} crosses AS{stranger} -> AS{origin}, "
        else:

            def plant(*_args):
                backend._sender[ids[origin]] = -2
                backend._sender[ids[holder]] = ids[unrouted]
                backend._relc[ids[holder]] = 1
                return [ids[origin], ids[holder]]

            monkeypatch.setattr(backend, "_solve", plant)
            match = f"AS{unrouted} "
        with pytest.raises(ConvergenceError, match=match):
            backend.run({prefix: origin})


class TestStaleAdjRibInEntries:
    """``array`` keeps the stale entries the event oracle keeps.

    When a loop check rejects an update, the receiver keeps the
    sender's *previous* Adj-RIB-In entry, so its installed path is not
    the sender's current best path with the sender prepended.  On the
    paper-scale scenario, a materializer that walks the current best
    senders finds a loop instead of the route the oracle holds on
    ``3fff:4::/32`` (seed 2) and ``3fff:bc::/32`` (seed 7).
    """

    CASES = {
        2: ("3fff:4::/32", 4),
        7: ("3fff:bc::/32", 188),
    }

    @pytest.fixture(scope="class")
    def scenarios(self):
        from repro.datasets import paper_scale_config
        from repro.pipeline import PipelineConfig, run_pipeline

        return {
            seed: run_pipeline(
                PipelineConfig(dataset=paper_scale_config(seed=seed)),
                targets=["scenario"],
            ).value("scenario")
            for seed in self.CASES
        }

    @staticmethod
    def _origins(scenario, seed):
        text, origin = TestStaleAdjRibInEntries.CASES[seed]
        origins = {
            prefix: asn
            for prefix, asn in scenario.origins[AFI.IPV6].items()
            if str(prefix) == text
        }
        assert list(origins.values()) == [origin]
        return origins

    @pytest.mark.parametrize("pruned", (True, False), ids=("pruned", "unpruned"))
    @pytest.mark.parametrize("seed", sorted(CASES))
    def test_array_matches_event(self, scenarios, seed, pruned):
        scenario = scenarios[seed]
        graph = scenario.topology.graph
        origins = self._origins(scenario, seed)
        keep = scenario.vantage_asns if pruned else None
        event = EventBackend(graph, scenario.policies, keep_ribs_for=keep).run(origins)
        array = ArrayBackend(graph, scenario.policies, keep_ribs_for=keep).run(origins)
        assert array.events == event.events
        assert array.reachable_counts == event.reachable_counts
        for asn in graph.ases:
            for prefix in origins:
                assert array.best_route(asn, prefix) == event.best_route(
                    asn, prefix
                ), f"AS{asn} towards {prefix}"

    def test_small_leaky_topology(self):
        """The same state on a small topology the property test can draw."""
        graph = generate_topology(
            TopologyConfig(
                seed=5348,
                tier1_count=5,
                tier2_count=8,
                tier3_count=11,
                tier2_providers=(1, 2),
                tier2_peering_probability=0.5,
            )
        ).graph
        policies = _leaky_policies(graph, 730)
        origins = originate_one_prefix_per_as(graph, AFI.IPV6)
        event = EventBackend(graph, policies).run(origins)
        array = ArrayBackend(graph, policies).run(origins)
        assert _stale_routes(graph, event, origins)
        assert array.events == event.events
        _assert_same_converged_state(graph, event, array, origins)

    @pytest.mark.parametrize("backend_cls", (EventBackend, ArrayBackend))
    def test_installed_path_is_not_the_senders_best(self, scenarios, backend_cls):
        """Documents the open stale-route bug (ROADMAP item 1): AS7 holds
        ``3fff:bc::/32`` via AS8 on a path AS8 no longer uses."""
        scenario = scenarios[7]
        origins = self._origins(scenario, 7)
        (prefix,) = origins
        result = backend_cls(scenario.topology.graph, scenario.policies).run(origins)
        held = result.best_route(7, prefix)
        sender_best = result.best_route(8, prefix)
        assert held.learned_from == 8
        assert held.as_path.hops != (8,) + sender_best.as_path.hops


# ----------------------------------------------------------------------
# property-based harness: random topologies x random origin subsets
# ----------------------------------------------------------------------
@st.composite
def random_scenario(draw, rich=False):
    """A small random topology, policies and an origin subset.

    Policies are vanilla Gao-Rexford.  With ``rich`` the draw may
    instead pick :func:`_leaky_policies` over a densely peered
    topology, which can leave stale Adj-RIB-In entries behind.  Such a
    draw propagates every IPv6 prefix: the leaks are IPv6-only, and a
    stale entry sits on a single prefix of the plane.
    """
    topo_seed = draw(st.integers(min_value=1, max_value=10_000))
    policy_seed = draw(st.integers(min_value=0, max_value=999))
    leaky = rich and draw(st.booleans())
    afi = AFI.IPV6 if leaky else draw(st.sampled_from((AFI.IPV4, AFI.IPV6)))
    topology = generate_topology(
        TopologyConfig(
            seed=topo_seed,
            tier1_count=draw(st.integers(min_value=3, max_value=5)),
            tier2_count=draw(st.integers(min_value=4, max_value=10)),
            tier3_count=draw(st.integers(min_value=8, max_value=24)),
            tier2_providers=(1, 2),
            tier2_peering_probability=(
                0.5 if leaky else TopologyConfig.tier2_peering_probability
            ),
        )
    )
    graph = topology.graph
    full = originate_one_prefix_per_as(graph, afi)
    if leaky:
        return graph, _leaky_policies(graph, policy_seed), full
    policies = _vanilla_policies(graph, policy_seed)
    prefixes = sorted(full, key=str)
    chosen = draw(
        st.lists(
            st.sampled_from(prefixes),
            min_size=1,
            max_size=min(len(prefixes), 8),
            unique=True,
        )
    )
    origins = {prefix: full[prefix] for prefix in chosen}
    return graph, policies, origins


class TestPropertyBasedCrossValidation:
    @settings(max_examples=20, deadline=None)
    @given(scenario=random_scenario())
    def test_equilibrium_matches_event_on_random_scenarios(self, scenario):
        graph, policies, origins = scenario
        event = EventBackend(graph, policies).run(origins)
        equilibrium = EquilibriumBackend(graph, policies).run(origins)
        assert equilibrium.events == 0
        assert equilibrium.reachable_counts == event.reachable_counts
        for asn in graph.ases:
            for prefix in origins:
                assert event.best_route(asn, prefix) == equilibrium.best_route(
                    asn, prefix
                ), f"AS{asn} towards {prefix}"

    @settings(max_examples=50, deadline=None)
    @given(scenario=random_scenario(rich=True))
    def test_array_matches_event_on_random_scenarios(self, scenario):
        graph, policies, origins = scenario
        event = EventBackend(graph, policies).run(origins)
        array = ArrayBackend(graph, policies).run(origins)
        assert array.events == event.events
        assert array.reachable_counts == event.reachable_counts
        for asn in graph.ases:
            for prefix in origins:
                assert event.best_route(asn, prefix) == array.best_route(asn, prefix)
