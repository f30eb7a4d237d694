"""Unit tests for the annotated AS graph."""

import pytest

from repro.core.relationships import AFI, Link, Relationship
from repro.topology.graph import ASGraph


@pytest.fixture()
def simple_graph():
    """A five-AS dual-stack graph with one IPv6-only link.

    AS1 is the provider of AS2 and AS3; AS2 and AS3 peer; AS2 provides to
    AS4; the link AS3-AS5 exists only in the IPv6 plane.
    """
    graph = ASGraph()
    graph.add_link(1, 2, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
    graph.add_link(1, 3, rel_v4=Relationship.P2C, rel_v6=Relationship.P2C)
    graph.add_link(2, 3, rel_v4=Relationship.P2P, rel_v6=Relationship.P2P)
    graph.add_link(2, 4, rel_v4=Relationship.P2C)
    graph.add_link(3, 5, rel_v6=Relationship.P2P)
    return graph


class TestConstruction:
    def test_add_as_idempotent_updates(self):
        graph = ASGraph()
        graph.add_as(1, name="first", tier=2)
        graph.add_as(1, ipv6=True)
        node = graph.node(1)
        assert node.name == "first"
        assert node.tier == 2
        assert node.ipv6

    def test_add_link_creates_missing_ases(self, simple_graph):
        assert 4 in simple_graph
        assert len(simple_graph) == 5

    def test_negative_asn_rejected(self):
        with pytest.raises(ValueError):
            ASGraph().add_as(-5)

    def test_set_relationship_requires_existing_link(self):
        graph = ASGraph()
        graph.add_as(1)
        graph.add_as(2)
        with pytest.raises(KeyError):
            graph.set_relationship(1, 2, AFI.IPV4, Relationship.P2P)

    def test_remove_link(self, simple_graph):
        simple_graph.remove_link(2, 3)
        assert not simple_graph.has_link(2, 3)
        with pytest.raises(KeyError):
            simple_graph.remove_link(2, 3)

    def test_add_link_marks_afi_participation(self):
        graph = ASGraph()
        graph.add_link(1, 2, rel_v6=Relationship.P2P)
        assert graph.node(1).ipv6
        assert graph.node(2).ipv6


class TestRelationshipQueries:
    def test_relationship_orientation(self, simple_graph):
        assert simple_graph.relationship(1, 2, AFI.IPV4) is Relationship.P2C
        assert simple_graph.relationship(2, 1, AFI.IPV4) is Relationship.C2P

    def test_relationship_missing_link_unknown(self, simple_graph):
        assert simple_graph.relationship(1, 4, AFI.IPV4) is Relationship.UNKNOWN
        assert simple_graph.relationship(4, 4, AFI.IPV4) is Relationship.UNKNOWN

    def test_relationship_missing_plane_unknown(self, simple_graph):
        assert simple_graph.relationship(2, 4, AFI.IPV6) is Relationship.UNKNOWN
        assert simple_graph.relationship(3, 5, AFI.IPV4) is Relationship.UNKNOWN

    def test_providers_customers_peers(self, simple_graph):
        assert simple_graph.providers_of(2, AFI.IPV4) == [1]
        assert simple_graph.customers_of(1, AFI.IPV4) == [2, 3]
        assert simple_graph.peers_of(2, AFI.IPV4) == [3]
        assert simple_graph.peers_of(3, AFI.IPV6) == [2, 5]

    def test_transit_free(self, simple_graph):
        assert simple_graph.transit_free(1, AFI.IPV4)
        assert not simple_graph.transit_free(2, AFI.IPV4)

    def test_customer_cone(self, simple_graph):
        assert simple_graph.customer_cone(1, AFI.IPV4) == {1, 2, 3, 4}
        assert simple_graph.customer_cone(2, AFI.IPV4) == {2, 4}
        assert simple_graph.customer_cone(4, AFI.IPV4) == {4}


class TestPlaneViews:
    def test_links_per_afi(self, simple_graph):
        assert len(simple_graph.links(AFI.IPV4)) == 4
        assert len(simple_graph.links(AFI.IPV6)) == 4
        assert len(simple_graph.links()) == 5

    def test_dual_stack_links(self, simple_graph):
        dual = simple_graph.dual_stack_links()
        assert Link(1, 2) in dual
        assert Link(2, 4) not in dual
        assert Link(3, 5) not in dual
        assert len(dual) == 3

    def test_ases_in_plane(self, simple_graph):
        assert simple_graph.ases_in(AFI.IPV4) == [1, 2, 3, 4]
        assert simple_graph.ases_in(AFI.IPV6) == [1, 2, 3, 5]

    def test_neighbors_per_plane(self, simple_graph):
        assert simple_graph.neighbors(3) == [1, 2, 5]
        assert simple_graph.neighbors(3, AFI.IPV4) == [1, 2]
        assert simple_graph.degree(3, AFI.IPV6) == 3

    def test_copy_is_independent(self, simple_graph):
        clone = simple_graph.copy()
        clone.set_relationship(2, 3, AFI.IPV4, Relationship.P2C)
        assert simple_graph.relationship(2, 3, AFI.IPV4) is Relationship.P2P
        assert clone.relationship(2, 3, AFI.IPV4) is Relationship.P2C

    def test_stats(self, simple_graph):
        stats = simple_graph.stats()
        assert stats["ases"] == 5
        assert stats["links"] == 5
        assert stats["dual_stack_links"] == 3


def graph_tables(graph):
    """Every table of a graph, in insertion order where it has one, as
    values (no live record is held)."""
    return (
        [
            (asn, node.asn, node.name, node.tier, node.ipv4, node.ipv6)
            for asn, node in graph._nodes.items()
        ],
        [(asn, sorted(peers)) for asn, peers in graph._adjacency.items()],
        [
            (link, record.link, record.ipv4, record.ipv6)
            for link, record in graph._relationships.items()
        ],
        {
            afi: [(asn, list(row.items())) for asn, row in index.items()]
            for afi, index in graph._rel_from.items()
        },
        list(graph._sorted_cache.items()),
    )


class TestCopy:
    """``ASGraph.copy`` is what a pickle round trip yields, without the
    pickling, and shares nothing a mutation can reach."""

    @pytest.fixture()
    def generated(self):
        from repro.topology.config import TopologyConfig
        from repro.topology.generator import generate_topology

        graph = generate_topology(
            TopologyConfig(seed=3, tier1_count=4, tier2_count=12, tier3_count=40)
        ).graph
        graph.remove_link(*graph.links(AFI.IPV6)[0])
        # Fill the memoized query results a copy carries along.
        for asn in graph.ases:
            graph.customers_of(asn, AFI.IPV4)
            graph.oriented_neighbors(asn, AFI.IPV6)
        graph.links(AFI.IPV6)
        return graph

    def test_copy_equals_pickle_round_trip(self, generated, simple_graph):
        import pickle

        for graph in (generated, simple_graph):
            clone = graph.copy()
            expected = pickle.loads(pickle.dumps(graph))
            assert graph_tables(clone) == graph_tables(expected)
            for afi in (AFI.IPV4, AFI.IPV6):
                assert clone.links(afi) == expected.links(afi)
                for asn in graph.ases:
                    assert clone.customers_of(asn, afi) == expected.customers_of(asn, afi)
                    for neighbor in graph.neighbors(asn):
                        assert clone.relationship(asn, neighbor, afi) is (
                            expected.relationship(asn, neighbor, afi)
                        )

    def test_mutating_the_copy_leaves_the_original_unchanged(self, generated):
        link = generated.links(AFI.IPV4)[0]
        first, stub = generated.ases[0], generated.ases[-1]
        before = graph_tables(generated)
        clone = generated.copy()
        clone.set_relationship(link.a, link.b, AFI.IPV4, Relationship.UNKNOWN)
        clone.set_relationship(link.a, link.b, AFI.IPV6, Relationship.P2C)
        clone.add_link(first, stub, rel_v6=Relationship.P2P)
        clone.add_as(stub, name="renamed", tier=1, ipv6=True)
        clone.add_as(stub + 1)
        assert graph_tables(generated) == before
        assert graph_tables(clone) != before
