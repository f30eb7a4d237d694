"""Unit and integration tests for the BGP speaker and the propagation simulator."""

import pytest

from repro.bgp.attributes import ASPath, Community, PathAttributes
from repro.bgp.messages import Announcement, Route
from repro.bgp.policy import LocalPrefScheme, RoutingPolicy
from repro.bgp.prefixes import Prefix, PrefixAllocator
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.results import originate_one_prefix_per_as
from repro.bgp.rib import LocRib, RibSnapshot
from repro.bgp.router import BGPSpeaker
from repro.core.relationships import AFI, Relationship
from repro.irr.dictionary import CommunityDictionary
from repro.topology.graph import ASGraph

V4 = Prefix("10.1.0.0/20")
V6 = Prefix("3fff:100::/32")


def make_announcement(prefix, sender, receiver, hops, communities=()):
    return Announcement(
        prefix=prefix,
        sender=sender,
        receiver=receiver,
        attributes=PathAttributes(as_path=ASPath(hops), communities=tuple(communities)),
    )


class TestRibs:
    def test_loc_rib_install_reports_change(self):
        rib = LocRib()
        route = Route.originate(V4, 1)
        assert rib.install(route)
        assert not rib.install(route)
        assert V4 in rib
        assert rib.routes() == [route]

    def test_loc_rib_afi_filter(self):
        rib = LocRib()
        rib.install(Route.originate(V4, 1))
        rib.install(Route.originate(V6, 1))
        assert len(rib.routes(AFI.IPV4)) == 1
        assert len(rib.routes(AFI.IPV6)) == 1

    def test_snapshot_len(self):
        snapshot = RibSnapshot(asn=1, best_routes={V4: Route.originate(V4, 1)})
        assert len(snapshot) == 1
        assert snapshot.routes(AFI.IPV6) == []


class TestBGPSpeaker:
    def make_speaker(self):
        speaker = BGPSpeaker(100, RoutingPolicy(asn=100, local_pref=LocalPrefScheme()))
        speaker.add_neighbor(1, Relationship.C2P, AFI.IPV4)   # provider
        speaker.add_neighbor(2, Relationship.P2P, AFI.IPV4)   # peer
        speaker.add_neighbor(3, Relationship.P2C, AFI.IPV4)   # customer
        return speaker

    def test_add_neighbor_validation(self):
        speaker = BGPSpeaker(1)
        with pytest.raises(ValueError):
            speaker.add_neighbor(1, Relationship.P2P, AFI.IPV4)
        with pytest.raises(ValueError):
            speaker.add_neighbor(2, Relationship.UNKNOWN, AFI.IPV4)

    def test_receive_assigns_local_pref_by_relationship(self):
        speaker = self.make_speaker()
        speaker.receive(make_announcement(V4, 3, 100, [3, 30]))
        best = speaker.best_route(V4)
        assert best.local_pref == speaker.policy.local_pref.customer
        assert best.learned_from == 3

    def test_customer_route_preferred_over_shorter_provider_route(self):
        speaker = self.make_speaker()
        speaker.receive(make_announcement(V4, 1, 100, [1, 30]))
        speaker.receive(make_announcement(V4, 3, 100, [3, 33, 34, 30]))
        best = speaker.best_route(V4)
        assert best.learned_from == 3, "customer route must win despite longer path"

    def test_shorter_path_wins_within_same_relationship(self):
        speaker = self.make_speaker()
        speaker.add_neighbor(4, Relationship.P2C, AFI.IPV4)
        speaker.receive(make_announcement(V4, 3, 100, [3, 31, 30]))
        speaker.receive(make_announcement(V4, 4, 100, [4, 30]))
        assert speaker.best_route(V4).learned_from == 4

    def test_loop_prevention(self):
        speaker = self.make_speaker()
        changed = speaker.receive(make_announcement(V4, 1, 100, [1, 100, 30]))
        assert not changed
        assert speaker.best_route(V4) is None

    def test_withdraw_falls_back_to_next_best(self):
        speaker = self.make_speaker()
        speaker.receive(make_announcement(V4, 3, 100, [3, 30]))
        speaker.receive(make_announcement(V4, 2, 100, [2, 30]))
        assert speaker.best_route(V4).learned_from == 3
        assert speaker.withdraw(V4, 3)
        assert speaker.best_route(V4).learned_from == 2
        assert speaker.withdraw(V4, 2)
        assert speaker.best_route(V4) is None

    def test_withdraw_acts_on_the_candidate_index(self):
        speaker = self.make_speaker()
        speaker.receive(make_announcement(V4, 1, 100, [1, 30]))
        speaker.receive(make_announcement(V4, 3, 100, [3, 30]))
        best = speaker.best_route(V4)
        held = {prefix: dict(routes) for prefix, routes in speaker._routes_by_prefix.items()}
        # Senders that hold no route for the prefix: AS2 is a neighbour
        # without one, AS9 is no neighbour, and nobody announced V6.
        assert not speaker.withdraw(V4, 2)
        assert not speaker.withdraw(V4, 9)
        assert not speaker.withdraw(V6, 3)
        assert speaker.best_route(V4) is best
        assert speaker._routes_by_prefix == held
        # A withdrawn route that is not the best leaves the best in place
        # but is no candidate any more: withdrawing the best empties the RIB.
        assert not speaker.withdraw(V4, 1)
        assert speaker.best_route(V4) is best
        assert speaker.withdraw(V4, 3)
        assert speaker.best_route(V4) is None
        assert speaker._routes_by_prefix == {}

    def test_export_applies_valley_free_rule(self):
        speaker = self.make_speaker()
        speaker.receive(make_announcement(V4, 2, 100, [2, 30]))  # learned from peer
        assert speaker.export_to(3, V4) is not None              # to customer: ok
        assert speaker.export_to(1, V4) is None                  # to provider: no

    def test_export_prepends_own_asn_and_strips_local_pref(self):
        speaker = self.make_speaker()
        speaker.receive(make_announcement(V4, 3, 100, [3, 30]))
        announcement = speaker.export_to(1, V4)
        assert announcement.as_path.hops == (100, 3, 30)
        assert announcement.attributes.local_pref is None

    def test_export_never_returns_to_sender(self):
        speaker = self.make_speaker()
        speaker.receive(make_announcement(V4, 3, 100, [3, 30]))
        assert speaker.export_to(3, V4) is None

    def test_origin_export_does_not_duplicate_asn(self):
        speaker = self.make_speaker()
        speaker.originate(V4)
        announcement = speaker.export_to(1, V4)
        assert announcement.as_path.hops == (100,)

    def test_community_tagging_on_import(self):
        dictionary = CommunityDictionary(100)
        dictionary.add_relationship(10, Relationship.P2C)
        speaker = BGPSpeaker(100, RoutingPolicy(asn=100, tagger=dictionary))
        speaker.add_neighbor(3, Relationship.P2C, AFI.IPV4)
        speaker.receive(make_announcement(V4, 3, 100, [3, 30]))
        assert Community(100, 10) in speaker.best_route(V4).communities

    def test_strip_communities_on_export(self):
        policy = RoutingPolicy(asn=100, strip_communities_on_export=True)
        speaker = BGPSpeaker(100, policy)
        speaker.add_neighbor(3, Relationship.P2C, AFI.IPV4)
        speaker.add_neighbor(5, Relationship.P2C, AFI.IPV4)
        speaker.receive(
            make_announcement(V4, 3, 100, [3, 30], communities=[Community(3, 99)])
        )
        exported = speaker.export_to(5, V4)
        assert exported.attributes.communities == ()

    def test_prune_prefix(self):
        speaker = self.make_speaker()
        speaker.receive(make_announcement(V4, 3, 100, [3, 30]))
        speaker.prune_prefix(V4, keep_best=True)
        assert speaker.best_route(V4) is not None
        assert not speaker.withdraw(V4, 3)  # the Adj-RIB-In entry is gone
        speaker.prune_prefix(V4, keep_best=False)
        assert speaker.best_route(V4) is None


@pytest.fixture()
def diamond_graph():
    """AS1 (top) provides to AS2 and AS3 (peers); both provide to AS4."""
    graph = ASGraph()
    graph.add_link(1, 2, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
    graph.add_link(1, 3, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
    graph.add_link(2, 3, rel_v4=Relationship.P2P, rel_v6=Relationship.P2P)
    graph.add_link(2, 4, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
    graph.add_link(3, 4, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
    for asn in (1, 2, 3, 4):
        graph.node(asn).ipv6 = True
    return graph


class TestPropagation:
    def test_full_reachability_in_diamond(self, diamond_graph):
        simulator = PropagationSimulator(diamond_graph)
        origins = originate_one_prefix_per_as(diamond_graph, AFI.IPV4)
        result = simulator.run(origins)
        for asn in (1, 2, 3, 4):
            assert len(result.speakers[asn].loc_rib.routes(AFI.IPV4)) == 4

    def test_paths_are_valley_free_without_relaxation(self, diamond_graph):
        simulator = PropagationSimulator(diamond_graph)
        allocator = PrefixAllocator()
        origins = originate_one_prefix_per_as(diamond_graph, AFI.IPV4, allocator)
        result = simulator.run(origins)
        # AS2's route to AS3's prefix must go through AS2-AS3 peering or
        # via the shared provider AS1, never through customer AS4.
        path = result.best_path(2, allocator.ipv4_prefix(3))
        assert 4 not in path

    def test_customer_route_preferred_network_wide(self, diamond_graph):
        allocator = PrefixAllocator()
        simulator = PropagationSimulator(diamond_graph)
        result = simulator.run({allocator.ipv4_prefix(4): 4})
        # AS1 hears AS4's prefix from its customers AS2/AS3, never directly.
        path = result.best_path(1, allocator.ipv4_prefix(4))
        assert path[0] == 1
        assert path[-1] == 4
        assert len(path) == 3

    def test_relaxation_creates_valley(self, diamond_graph):
        # AS4 leaks routes learned from provider AS2 to provider AS3.
        policies = {asn: RoutingPolicy(asn=asn) for asn in (1, 2, 3, 4)}
        policies[4].add_relaxation(3, AFI.IPV6)
        # Remove the direct links that would otherwise carry the route.
        diamond_graph.remove_link(1, 3)
        diamond_graph.remove_link(2, 3)
        allocator = PrefixAllocator()
        simulator = PropagationSimulator(diamond_graph, policies)
        result = simulator.run({allocator.ipv6_prefix(2): 2})
        path = result.best_path(3, allocator.ipv6_prefix(2))
        assert path == (3, 4, 2), "AS3 should reach AS2 only through the leak at AS4"

    def test_reachable_counts_recorded(self, diamond_graph):
        allocator = PrefixAllocator()
        simulator = PropagationSimulator(diamond_graph)
        prefix = allocator.ipv4_prefix(1)
        result = simulator.run({prefix: 1})
        assert result.reachable_counts[prefix] == 4

    def test_keep_ribs_for_prunes_non_vantage_state(self, diamond_graph):
        allocator = PrefixAllocator()
        simulator = PropagationSimulator(diamond_graph, keep_ribs_for=[4])
        prefix = allocator.ipv4_prefix(1)
        result = simulator.run({prefix: 1})
        assert result.best_route(4, prefix) is not None
        assert result.best_route(2, prefix) is None
        assert result.reachable_counts[prefix] == 4

    def test_unknown_origin_rejected(self, diamond_graph):
        simulator = PropagationSimulator(diamond_graph)
        with pytest.raises(KeyError):
            simulator.run({Prefix("10.0.0.0/20"): 999})

    def test_origin_must_support_afi(self, diamond_graph):
        diamond_graph.add_as(5, ipv4=True, ipv6=False)
        diamond_graph.add_link(2, 5, rel_v4=Relationship.P2C)
        simulator = PropagationSimulator(diamond_graph)
        with pytest.raises(ValueError):
            simulator.run({Prefix("3fff:5::/32"): 5})

    def test_originate_one_prefix_per_as_respects_afi(self, diamond_graph):
        diamond_graph.add_as(5, ipv4=True, ipv6=False)
        diamond_graph.add_link(2, 5, rel_v4=Relationship.P2C)
        origins = originate_one_prefix_per_as(diamond_graph, AFI.IPV6)
        assert 5 not in set(origins.values())
        assert set(origins.values()) == {1, 2, 3, 4}
