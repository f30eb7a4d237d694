"""Cross-backend equivalence suite for the pluggable propagation engines.

The event simulator is the oracle: whatever policies are configured, its
converged state is correct by construction (it is itself pinned against
the seed implementation's committed results in ``test_propagation_golden``, against
hand-derived paths in ``test_asrel_tree_oracle`` and against the
synchronous best response in ``test_best_response_oracle``).  ``array``
must be indistinguishable from it — same routes, attribute for
attribute, on *arbitrary* policies (the rich golden mix: TE overrides,
relaxations, taggers, strips; leaks that leave stale Adj-RIB-In entries
behind).  A plane ``array`` solves runs no events; a plane it replays
(every disqualifier of the solver is covered by ``TestSolveGuard``)
has the event engine's event count too.  ``engine=`` accepts exactly
these two names and refuses any other.

A hypothesis harness drives the same assertions over random synthetic
topologies and random origin subsets, so the equivalence does not
silently narrow to the golden seeds.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relationships import AFI, Relationship
from repro.bgp.attributes import Community
from repro.bgp import propagation
from repro.bgp.backends import DEFAULT_ENGINE, ENGINE_CHOICES, arraycore
from repro.bgp.backends.arraycore import ArrayBackend
from repro.bgp.engine import PropagationEngine
from repro.bgp.policy import (
    LocalPrefScheme,
    RoutingPolicy,
    TrafficEngineeringOverride,
)
from repro.bgp.prefixes import Prefix, PrefixAllocator
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.results import ConvergenceError, originate_one_prefix_per_as
from repro.bgp.router import BGPSpeaker
from repro.irr.registry import build_registry
from repro.topology.config import TopologyConfig
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph

from test_cli import _loaded
from test_propagation_golden import GOLDEN_SEEDS, _golden_topology, _rich_policies

_SCHEMES = (
    (300, 200, 100),
    (900, 800, 700),
    (250, 170, 90),
)


def _vanilla_policies(graph, seed: int):
    """Gao-Rexford-conformant policies that still exercise attributes.

    Mixed LOCAL_PREF numbering across ASes, community taggers and
    export-time community stripping never change *which* route wins,
    only its attributes, which the materializer replays.  No TE
    overrides, no export relaxations.
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


class _ConsultedPolicy(RoutingPolicy):
    """The base LOCAL_PREF through an overriding hook: same routes, but
    ``array`` must replay the plane."""

    def local_pref_for(self, neighbor, relationship, prefix):
        return super().local_pref_for(neighbor, relationship, prefix)


def _replayed(policies):
    """Copies of ``policies`` that ``array`` replays instead of solving."""
    return {
        asn: _ConsultedPolicy(
            **{f.name: getattr(policy, f.name) for f in dataclasses.fields(policy)}
        )
        for asn, policy in policies.items()
    }


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
        """The rich mix's IPv4 plane (a provider TE override) is solved;
        its IPv6 plane (an export relaxation) is replayed."""
        graph = _golden_topology(seed).graph
        policies = _rich_policies(graph, seed)
        origins = originate_one_prefix_per_as(graph, afi)
        event = PropagationSimulator(graph, policies).run(origins)
        backend = ArrayBackend(graph, policies)
        array = backend.run(origins)
        if afi is AFI.IPV4:
            assert backend.methods[afi] == ("solve", None)
            assert array.events == 0
        else:
            assert backend.methods[afi][0] == "replay"
            assert array.events == event.events
        _assert_same_converged_state(graph, event, array, origins)

    def test_pruned_mode_matches_event(self):
        graph = _golden_topology(2010).graph
        policies = _rich_policies(graph, 2010)
        keep = graph.ases[:4]
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        event = PropagationSimulator(graph, policies, keep_ribs_for=keep).run(origins)
        backend = ArrayBackend(graph, policies, keep_ribs_for=keep)
        array = backend.run(origins)
        assert backend.methods[AFI.IPV4] == ("solve", None)
        assert array.events == 0
        assert array.reachable_counts == event.reachable_counts
        for asn in keep:
            assert array.snapshot(asn).best_routes == event.snapshot(asn).best_routes
        other = next(asn for asn in graph.ases if asn not in keep)
        assert not array.speakers[other].loc_rib.routes()


class TestEngineSelection:
    """``engine=`` config: exactly ``event`` and ``array``, nothing else."""

    #: Unknown names, and the two deleted ones (split so that a search
    #: for the deleted engine's name finds no code).
    REFUSED = ("quantum", "auto", "equi" "librium")

    def test_engine_names_have_one_home(self):
        """``repro.bgp.backends`` names the engines, and the engine runs
        every one of those names with the same result."""
        assert DEFAULT_ENGINE in ENGINE_CHOICES
        graph = _golden_topology(2010).graph
        policies = _rich_policies(graph, 2010)
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        oracle = PropagationSimulator(graph, policies).run(origins)
        for name in ENGINE_CHOICES:
            result = PropagationEngine(graph, policies, engine=name).run(origins)
            # `array` solves this IPv4 plane: it runs no events.
            assert result.events == (oracle.events if name == "event" else 0), name
            _assert_same_converged_state(graph, oracle, result, origins)

    def test_engine_names_import_no_backend(self):
        """Validating an engine name loads no propagation code."""
        backends = ("repro.bgp.backends.arraycore", "repro.bgp.propagation")
        assert _loaded("import repro.bgp.backends", backends)[1] == "[]"

    def test_invalid_engine_rejected(self):
        graph = _golden_topology(2010).graph
        for name in self.REFUSED:
            with pytest.raises(ValueError, match=name):
                PropagationEngine(graph, engine=name)

    def test_invalid_engine_rejected_in_pipeline_config(self):
        from repro.pipeline import PropagationConfig

        for name in self.REFUSED:
            with pytest.raises(ValueError, match=name):
                PropagationConfig(engine=name)

    def test_array_engine_through_engine_run(self):
        graph = _golden_topology(2012).graph
        policies = _rich_policies(graph, 2012)
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        event = PropagationEngine(graph, policies, engine="event").run(origins)
        array = PropagationEngine(graph, policies, engine="array").run(origins)
        assert array.events == 0  # a solved plane
        _assert_same_converged_state(graph, event, array, origins)


class TestSharedTransforms:
    """Both engines reach the import and export transforms only through
    ``BGPSpeaker`` (``import_terms``, ``export_step``): ``array`` keeps
    no copy of its own, so patching them moves both engines alike."""

    @pytest.mark.parametrize("afi", (AFI.IPV4, AFI.IPV6))
    def test_patched_transforms_move_both_engines(self, afi, monkeypatch):
        import_terms, export_step = BGPSpeaker.import_terms, BGPSpeaker.export_step

        def shifted_import(self, prefix, sender, relationship):
            # A uniform shift: every AS still prefers the same routes.
            local_pref, added = import_terms(self, prefix, sender, relationship)
            return local_pref + 1, added

        def marked_export(self, hops, communities, is_local):
            hops, communities = export_step(self, hops, communities, is_local)
            return hops, communities + (Community(self.asn, 7),)

        monkeypatch.setattr(BGPSpeaker, "import_terms", shifted_import)
        monkeypatch.setattr(BGPSpeaker, "export_step", marked_export)
        graph = _golden_topology(2010).graph
        policies = _rich_policies(graph, 2010)
        origins = originate_one_prefix_per_as(graph, afi)
        event = PropagationSimulator(graph, policies).run(origins)
        array = ArrayBackend(graph, policies).run(origins)
        _assert_same_converged_state(graph, event, array, origins)
        learned = [
            route
            for asn in graph.ases
            for route in array.snapshot(asn).routes()
            if not route.is_local
        ]
        assert learned
        scheme_values = {
            value
            for policy in policies.values()
            for value in (
                policy.local_pref.customer,
                policy.local_pref.peer,
                policy.local_pref.provider,
                policy.local_pref.sibling,
            )
        }
        assert not any(route.local_pref in scheme_values for route in learned)
        assert all(
            Community(route.learned_from, 7) in route.communities for route in learned
        )


class TestChainWalk:
    """The converged-route materializer refuses inconsistent paths."""

    @pytest.mark.parametrize("method", ("solve", "replay"))
    def test_chain_through_an_unrouted_as_raises(self, method, monkeypatch):
        """Inconsistent converged state fails loudly, naming the culprit:
        a path that crosses a pair with no relationship in the plane
        names the prefix and that hop.  A solved plane's bad hop is
        planted in the solver's next-hop picks, a replayed plane's in
        its stored paths."""
        graph = _golden_topology(2011).graph
        policies = _vanilla_policies(graph, 2011)
        backend = ArrayBackend(
            graph, policies if method == "solve" else _replayed(policies)
        )
        origin = graph.ases[0]
        ids = {asn: i for i, asn in enumerate(graph.ases)}
        prefix = PrefixAllocator().prefix(origin, AFI.IPV4)
        stranger = next(
            asn
            for asn in graph.ases
            if asn != origin and not graph.relationship(asn, origin, AFI.IPV4).is_known
        )

        def plant_picks(*_args):
            # Bit 0 is the prefix: the origin and the stranger reach it,
            # the stranger through the origin.
            reach = [0] * len(graph.ases)
            picks = [()] * len(graph.ases)
            reach[ids[origin]] = reach[ids[stranger]] = 1
            picks[ids[stranger]] = ((ids[origin], 1),)
            return reach, picks, [2]

        def plant_paths(*_args):
            backend._best_sender[ids[origin]] = -2
            backend._best_path[ids[origin]] = (ids[origin],)
            backend._best_sender[ids[stranger]] = ids[origin]
            backend._best_path[ids[stranger]] = (ids[origin],)
            return 0

        monkeypatch.setattr(backend, "_solve", plant_picks)
        monkeypatch.setattr(backend, "_propagate_prefix", plant_paths)
        match = f"{prefix} crosses AS{stranger} -> AS{origin}, "
        with pytest.raises(ConvergenceError, match=match):
            backend.run({prefix: origin})
        assert backend.methods[AFI.IPV4][0] == method


class TestEventBudget:
    """Each event loop (``event``'s, and ``array``'s replay) raises
    :class:`ConvergenceError` naming the prefix once it takes more than
    ``MAX_EVENTS_PER_PREFIX`` events; a solved plane runs none."""

    BUDGET = 5

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        monkeypatch.setattr(propagation, "MAX_EVENTS_PER_PREFIX", self.BUDGET)
        monkeypatch.setattr(arraycore, "MAX_EVENTS_PER_PREFIX", self.BUDGET)

    def _rich(self, afi: AFI):
        graph = _golden_topology(2010).graph
        origins = originate_one_prefix_per_as(graph, afi)
        return graph, _rich_policies(graph, 2010), origins

    def _exhausted(self, origins):
        first = next(iter(origins))
        return re.escape(
            f"prefix {first} did not converge within {self.BUDGET} events"
        )

    @pytest.mark.parametrize("afi", (AFI.IPV4, AFI.IPV6))
    def test_event_engine_stops_at_the_budget(self, afi):
        graph, policies, origins = self._rich(afi)
        with pytest.raises(ConvergenceError, match=self._exhausted(origins)):
            PropagationSimulator(graph, policies).run(origins)

    def test_array_replay_stops_at_the_budget(self):
        graph, policies, origins = self._rich(AFI.IPV6)
        backend = ArrayBackend(graph, policies)
        with pytest.raises(ConvergenceError, match=self._exhausted(origins)):
            backend.run(origins)
        assert backend.methods[AFI.IPV6][0] == "replay"

    def test_array_solved_plane_has_no_budget(self):
        graph, policies, origins = self._rich(AFI.IPV4)
        backend = ArrayBackend(graph, policies)
        result = backend.run(origins)
        assert backend.methods[AFI.IPV4] == ("solve", None)
        assert result.events == 0
        assert set(result.reachable_counts) == set(origins)


class TestAllOriginsSolve:
    """``array`` solves every origin of a plane in one pass: an AS may
    originate several prefixes, and a TE override's LOCAL_PREF covers
    the prefixes it names, the first matching override winning."""

    P1, P2, P3 = Prefix("10.1.0.0/20"), Prefix("10.2.0.0/20"), Prefix("10.3.0.0/20")
    Q1, Q2 = Prefix("3fff:100::/32"), Prefix("3fff:200::/32")

    @classmethod
    def _plane(cls):
        """Seven dual-stack ASes.  1 and 2 peer; 1 provides 3, 5 and 6;
        2 provides 3, 6 and 7; 3 provides 4.  AS5 originates two IPv4
        prefixes.  AS6 overrides its session to AS1 twice: LOCAL_PREF 50
        for P1 only, then 150 for every prefix.  AS3 leaks to AS1 in
        IPv6, so that plane is replayed."""
        graph = ASGraph()
        for asn in range(1, 8):
            graph.add_as(asn, ipv4=True, ipv6=True)
        transit = ((1, 3), (1, 5), (1, 6), (2, 3), (2, 6), (2, 7), (3, 4))
        links = ((1, 2, Relationship.P2P),) + tuple(
            (provider, customer, Relationship.P2C) for provider, customer in transit
        )
        for a, b, rel in links:
            graph.add_link(a, b, rel_v4=rel, rel_v6=rel)
        registry = build_registry(graph.ases, documented_fraction=1.0, seed=3)
        policies = {
            asn: RoutingPolicy(asn=asn, tagger=registry.dictionary_for(asn))
            for asn in graph.ases
        }
        policies[6].te_overrides += [
            TrafficEngineeringOverride(neighbor=1, local_pref=50, prefixes=(cls.P1,)),
            TrafficEngineeringOverride(neighbor=1, local_pref=150),
        ]
        policies[3].add_relaxation(1, AFI.IPV6)
        origins = {cls.P1: 5, cls.Q1: 4, cls.P2: 5, cls.Q2: 5, cls.P3: 7}
        return graph, policies, origins

    def test_full_state_equals_event(self):
        graph, policies, origins = self._plane()
        event = PropagationSimulator(graph, policies).run(origins)
        backend = ArrayBackend(graph, policies)
        array = backend.run(origins)
        assert backend.methods[AFI.IPV4] == ("solve", None)
        assert backend.methods[AFI.IPV6][0] == "replay"
        # `array` runs events only on the replayed plane.
        replayed = {p: asn for p, asn in origins.items() if p.afi is AFI.IPV6}
        oracle = PropagationSimulator(graph, policies).run(replayed)
        assert array.events == oracle.events
        assert list(array.reachable_counts.items()) == list(
            event.reachable_counts.items()
        )
        for asn in graph.ases:
            # Same routes, inserted in the same order.
            assert list(array.speakers[asn].loc_rib._routes.items()) == list(
                event.speakers[asn].loc_rib._routes.items()
            ), f"AS{asn}"

    def test_first_matching_override_wins(self):
        """Hand-derived: for P1 the scoped override (50) puts AS1 below
        AS2 (100); for P2 and P3 the unscoped one (150) puts it above,
        however long the path through AS1 is."""
        graph, policies, origins = self._plane()
        array = ArrayBackend(graph, policies).run(origins)
        p1, p2, p3 = (array.best_route(6, p) for p in (self.P1, self.P2, self.P3))
        assert [route.learned_from for route in (p1, p2, p3)] == [2, 1, 1]
        assert [route.local_pref for route in (p1, p2, p3)] == [100, 150, 150]
        assert p1.as_path.hops == (2, 1, 5)
        assert p3.as_path.hops == (1, 2, 7)


class TestSolveGuard:
    """``array`` solves a plane only where its stable state is unique.

    Each disqualifier forces a replay, which has the event engine's
    routes and events; the reason names the first disqualifier.
    """

    @staticmethod
    def _assert_replayed(graph, policies, afi, reason):
        origins = originate_one_prefix_per_as(graph, afi)
        event = PropagationSimulator(graph, policies).run(origins)
        backend = ArrayBackend(graph, policies)
        array = backend.run(origins)
        method, why = backend.methods[afi]
        assert method == "replay"
        assert reason in why
        assert array.events == event.events
        _assert_same_converged_state(graph, event, array, origins)

    @staticmethod
    def _override(graph, policies, relationship, local_pref):
        """A TE override on the first AS with a ``relationship`` session."""
        asn, neighbor = next(
            (asn, neighbor)
            for asn in graph.ases
            for neighbor, rel in graph.oriented_neighbors(asn, AFI.IPV4)
            if rel is relationship
        )
        policies[asn].te_overrides.append(
            TrafficEngineeringOverride(
                neighbor=neighbor,
                local_pref=local_pref(policies[asn].local_pref),
            )
        )
        return asn

    def test_ipv6_relaxed_adjacency(self):
        graph = _golden_topology(2010).graph
        policies = _rich_policies(graph, 2010)
        self._assert_replayed(graph, policies, AFI.IPV6, "relaxes exports in IPv6")

    def test_sibling_edge(self):
        graph = _golden_topology(2011).graph.copy()
        link = next(
            link
            for link in graph.links(AFI.IPV4)
            if graph.relationship(link.a, link.b, AFI.IPV4) is Relationship.P2P
        )
        graph.set_relationship(link.a, link.b, AFI.IPV4, Relationship.SIBLING)
        policies = _vanilla_policies(graph, 2011)
        self._assert_replayed(graph, policies, AFI.IPV4, "sibling edge in IPv4")

    def test_local_pref_hook(self):
        graph = _golden_topology(2012).graph
        policies = _replayed(_vanilla_policies(graph, 2012))
        self._assert_replayed(graph, policies, AFI.IPV4, "overrides local_pref_for")

    @pytest.mark.parametrize(
        "relationship", (Relationship.P2P, Relationship.P2C), ids=("peer", "customer")
    )
    def test_override_off_a_provider_session(self, relationship):
        graph = _golden_topology(2010).graph
        policies = _vanilla_policies(graph, 2010)
        asn = self._override(
            graph, policies, relationship, lambda scheme: scheme.provider - 20
        )
        self._assert_replayed(graph, policies, AFI.IPV4, f"AS{asn} has a TE override")

    @pytest.mark.parametrize("bump", (0, 50), ids=("equal", "above"))
    def test_provider_override_not_below_peer(self, bump):
        graph = _golden_topology(2011).graph
        policies = _vanilla_policies(graph, 2011)
        asn = self._override(
            graph, policies, Relationship.C2P, lambda scheme: scheme.peer + bump
        )
        self._assert_replayed(graph, policies, AFI.IPV4, f"AS{asn} has a TE override")

    def test_provider_cycle(self):
        """A tier-1 AS buying transit from a customer's customer."""
        graph = _golden_topology(2012).graph.copy()
        top, middle, bottom = next(
            (top, middle, bottom)
            for top in graph.ases
            for middle in graph.customers_of(top, AFI.IPV4)
            for bottom in graph.customers_of(middle, AFI.IPV4)
            if not graph.has_link(top, bottom)
        )
        graph.add_link(bottom, top, rel_v4=Relationship.P2C)
        policies = _vanilla_policies(graph, 2012)
        self._assert_replayed(
            graph, policies, AFI.IPV4, "provider graph of IPv4 has a cycle"
        )


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
        from repro.datasets.config import paper_scale_config
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
        event = PropagationSimulator(graph, scenario.policies, keep_ribs_for=keep).run(origins)
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
        event = PropagationSimulator(graph, policies).run(origins)
        array = ArrayBackend(graph, policies).run(origins)
        assert _stale_routes(graph, event, origins)
        assert array.events == event.events
        _assert_same_converged_state(graph, event, array, origins)

    @pytest.mark.parametrize("backend_cls", (PropagationSimulator, ArrayBackend))
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

    Policies are vanilla Gao-Rexford, plus TE overrides on up to four
    provider sessions of the drawn plane with a LOCAL_PREF below the
    AS's peer value (for one chosen prefix or for all), so ``array``
    solves the plane through per-session LOCAL_PREFs.  With ``rich`` the
    draw may instead pick :func:`_leaky_policies` over a densely peered
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
    customers = [asn for asn in graph.ases if graph.providers_of(asn, afi)]
    for asn in draw(st.lists(st.sampled_from(customers), max_size=4, unique=True)):
        scheme = policies[asn].local_pref
        policies[asn].te_overrides.append(
            TrafficEngineeringOverride(
                neighbor=draw(st.sampled_from(graph.providers_of(asn, afi))),
                local_pref=draw(st.integers(min_value=1, max_value=scheme.peer - 1)),
                prefixes=draw(st.sampled_from(((), (chosen[0],)))),
            )
        )
    return graph, policies, origins


class TestPropertyBasedCrossValidation:
    @settings(max_examples=50, deadline=None)
    @given(scenario=random_scenario(rich=True))
    def test_array_matches_event_on_random_scenarios(self, scenario):
        """Vanilla draws are solved (no events) unless the provider
        graph has a cycle; leaky draws are replayed with the event
        engine's events."""
        graph, policies, origins = scenario
        (afi,) = {prefix.afi for prefix in origins}
        event = PropagationSimulator(graph, policies).run(origins)
        backend = ArrayBackend(graph, policies)
        array = backend.run(origins)
        method, reason = backend.methods[afi]
        if not any(policy.relaxed_export_neighbors[afi] for policy in policies.values()):
            assert method == "solve" or reason.endswith("has a cycle"), reason
        assert array.events == (0 if method == "solve" else event.events)
        assert array.reachable_counts == event.reachable_counts
        for asn in graph.ases:
            for prefix in origins:
                assert event.best_route(asn, prefix) == array.best_route(asn, prefix)
