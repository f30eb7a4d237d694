"""Regression tests for the indexed ASGraph.

Covers the two satellite bugfixes of the fast-path PR:

* read-only queries used to *mutate* ``_adjacency`` for unknown ASNs via
  ``defaultdict`` access — they must raise ``KeyError`` instead, and
  probing must leave the graph untouched;
* ``remove_link`` used to leave the endpoints' plane flags stale — the
  default behaviour is now documented, and ``recompute_planes=True``
  re-derives the flags;

plus consistency checks: the incrementally maintained directed indexes
must always agree with a graph freshly rebuilt from the relationship
records, through any sequence of mutations.
"""

from __future__ import annotations

import random

import pytest

from repro.core.relationships import AFI, Relationship
from repro.topology.graph import ASGraph


@pytest.fixture()
def simple_graph():
    graph = ASGraph()
    graph.add_link(1, 2, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
    graph.add_link(1, 3, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
    graph.add_link(2, 3, rel_v4=Relationship.P2P, rel_v6=Relationship.P2P)
    graph.add_link(2, 4, rel_v4=Relationship.P2C)
    graph.add_link(3, 5, rel_v6=Relationship.P2P)
    return graph


class TestUnknownAsnValidation:
    @pytest.mark.parametrize(
        "query",
        ["providers_of", "customers_of", "peers_of"],
    )
    def test_relationship_queries_raise_for_unknown_asn(self, simple_graph, query):
        with pytest.raises(KeyError):
            getattr(simple_graph, query)(999, AFI.IPV4)

    def test_customer_cone_raises_for_unknown_asn(self, simple_graph):
        with pytest.raises(KeyError):
            simple_graph.customer_cone(999, AFI.IPV4)

    def test_transit_free_and_degree_raise_for_unknown_asn(self, simple_graph):
        with pytest.raises(KeyError):
            simple_graph.transit_free(999, AFI.IPV4)
        with pytest.raises(KeyError):
            simple_graph.degree(999)
        with pytest.raises(KeyError):
            simple_graph.oriented_neighbors(999, AFI.IPV4)

    def test_probing_does_not_grow_the_graph(self, simple_graph):
        """The seed defaultdict silently created adjacency entries."""
        before = len(simple_graph)
        for probe in (999, 1000, 12345):
            with pytest.raises(KeyError):
                simple_graph.providers_of(probe, AFI.IPV4)
            assert probe not in simple_graph
        assert len(simple_graph) == before
        # relationship() stays tolerant for absent pairs (documented).
        assert simple_graph.relationship(999, 1, AFI.IPV4) is Relationship.UNKNOWN


class TestRemoveLinkPlanes:
    def test_default_keeps_plane_flags(self):
        graph = ASGraph()
        graph.add_link(1, 2, rel_v6=Relationship.P2P)
        graph.remove_link(1, 2)
        # Documented behaviour: flags are conservative, not recomputed.
        assert graph.node(1).ipv6
        assert graph.node(2).ipv6

    def test_recompute_planes_clears_stale_flags(self):
        graph = ASGraph()
        graph.add_link(1, 2, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
        graph.add_link(1, 3, rel_v4=Relationship.P2C)
        graph.remove_link(1, 2, recompute_planes=True)
        # AS1 keeps IPv4 (link to 3 remains) but loses IPv6.
        assert graph.node(1).ipv4
        assert not graph.node(1).ipv6
        # AS2 lost its only link in both planes.
        assert not graph.node(2).ipv4
        assert not graph.node(2).ipv6
        assert graph.node(3).ipv4

    def test_remove_link_updates_indexes(self, simple_graph):
        assert simple_graph.customers_of(1, AFI.IPV4) == [2, 3]
        simple_graph.remove_link(1, 2)
        assert simple_graph.customers_of(1, AFI.IPV4) == [3]
        assert simple_graph.providers_of(2, AFI.IPV4) == []
        assert simple_graph.relationship(1, 2, AFI.IPV4) is Relationship.UNKNOWN
        assert simple_graph.neighbors(1) == [3]
        assert simple_graph.customer_cone(1, AFI.IPV4) == {1, 3}


class TestIndexConsistency:
    def test_set_relationship_updates_directed_indexes(self, simple_graph):
        simple_graph.set_relationship(2, 3, AFI.IPV4, Relationship.P2C)
        assert simple_graph.customers_of(2, AFI.IPV4) == [3, 4]
        assert simple_graph.providers_of(3, AFI.IPV4) == [1, 2]
        assert simple_graph.peers_of(2, AFI.IPV4) == []

    def test_set_relationship_unknown_clears_plane(self, simple_graph):
        simple_graph.set_relationship(2, 3, AFI.IPV4, Relationship.UNKNOWN)
        assert simple_graph.relationship(2, 3, AFI.IPV4) is Relationship.UNKNOWN
        assert simple_graph.peers_of(2, AFI.IPV4) == []
        assert 3 not in simple_graph.neighbors(2, AFI.IPV4)
        # The link itself survives (still present in IPv6).
        assert simple_graph.has_link(2, 3)
        assert simple_graph.peers_of(2, AFI.IPV6) == [3]

    def test_rebuild_after_direct_record_mutation(self, simple_graph):
        record = simple_graph.dual_stack_relationship(2, 3)
        record.ipv4 = Relationship.P2C  # bypasses the indexes on purpose
        simple_graph.rebuild_indexes()
        assert simple_graph.customers_of(2, AFI.IPV4) == [3, 4]

    def _assert_matches_rebuilt(self, graph: ASGraph) -> None:
        # The copy carries the indexes over; rebuild them from its
        # relationship records.
        rebuilt = graph.copy()
        rebuilt.rebuild_indexes()
        assert graph.stats() == rebuilt.stats()
        for asn in graph.ases:
            for afi in (AFI.IPV4, AFI.IPV6):
                assert graph.providers_of(asn, afi) == rebuilt.providers_of(asn, afi)
                assert graph.customers_of(asn, afi) == rebuilt.customers_of(asn, afi)
                assert graph.peers_of(asn, afi) == rebuilt.peers_of(asn, afi)
                assert graph.neighbors(asn, afi) == rebuilt.neighbors(asn, afi)
                assert graph.oriented_neighbors(asn, afi) == rebuilt.oriented_neighbors(asn, afi)

    def test_random_mutation_fuzz_matches_rebuilt_graph(self):
        """Incremental indexes equal a from-scratch rebuild at every step."""
        rng = random.Random(4242)
        relationships = [
            Relationship.P2C,
            Relationship.C2P,
            Relationship.P2P,
            Relationship.SIBLING,
        ]
        graph = ASGraph()
        asns = list(range(1, 21))
        for asn in asns:
            graph.add_as(asn)
        links = []
        for step in range(120):
            action = rng.random()
            if action < 0.5 or not links:
                a, b = rng.sample(asns, 2)
                if not graph.has_link(a, b):
                    links.append((a, b))
                graph.add_link(
                    a,
                    b,
                    rel_v4=rng.choice(relationships),
                    rel_v6=rng.choice(relationships) if rng.random() < 0.7 else None,
                )
            elif action < 0.8:
                a, b = links[rng.randrange(len(links))]
                afi = AFI.IPV4 if rng.random() < 0.5 else AFI.IPV6
                rel = rng.choice(relationships + [Relationship.UNKNOWN])
                graph.set_relationship(a, b, afi, rel)
            else:
                a, b = links.pop(rng.randrange(len(links)))
                graph.remove_link(a, b, recompute_planes=rng.random() < 0.5)
            if step % 20 == 19:
                self._assert_matches_rebuilt(graph)
        self._assert_matches_rebuilt(graph)
