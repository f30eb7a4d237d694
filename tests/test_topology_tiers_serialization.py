"""Unit tests for tier classification and topology serialization."""

import io

import pytest

from repro.core.relationships import AFI, Relationship
from repro.topology.graph import ASGraph
from repro.topology.serialization import (
    TopologyFormatError,
    read_caida_asrel,
    read_dual_stack,
    write_caida_asrel,
    write_dual_stack,
)
from repro.topology.tiers import (
    TierThresholds,
    annotate_tiers,
    classify_tiers,
    tier_of_link,
)


@pytest.fixture()
def hierarchy_graph():
    """Tier1 (1), tier2 (2, 3), stubs (4, 5, 6)."""
    graph = ASGraph()
    graph.add_link(1, 2, rel_v4=Relationship.P2C)
    graph.add_link(1, 3, rel_v4=Relationship.P2C)
    graph.add_link(2, 3, rel_v4=Relationship.P2P)
    graph.add_link(2, 4, rel_v4=Relationship.P2C)
    graph.add_link(2, 5, rel_v4=Relationship.P2C)
    graph.add_link(3, 6, rel_v4=Relationship.P2C)
    graph.add_link(3, 5, rel_v4=Relationship.P2C)
    return graph


class TestTiers:
    def test_classification(self, hierarchy_graph):
        tiers = classify_tiers(hierarchy_graph, AFI.IPV4)
        assert tiers == {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3}

    def test_thresholds_affect_tier2(self, hierarchy_graph):
        strict = classify_tiers(
            hierarchy_graph, AFI.IPV4, TierThresholds(tier2_min_cone=10)
        )
        assert strict[2] == 3

    def test_annotate_writes_node_metadata(self, hierarchy_graph):
        annotate_tiers(hierarchy_graph, AFI.IPV4)
        assert hierarchy_graph.node(1).tier == 1
        assert hierarchy_graph.node(4).tier == 3

    def test_tier_of_link(self, hierarchy_graph):
        tiers = classify_tiers(hierarchy_graph, AFI.IPV4)
        assert tier_of_link(tiers, 1, 2) == 1
        assert tier_of_link(tiers, 4, 5) == 3
        assert tier_of_link(tiers, 4, 999) == 3


class TestCaidaSerialization:
    def test_round_trip(self, hierarchy_graph):
        buffer = io.StringIO()
        written = write_caida_asrel(hierarchy_graph, buffer, AFI.IPV4)
        assert written == 7
        buffer.seek(0)
        loaded = read_caida_asrel(buffer, AFI.IPV4)
        for link in hierarchy_graph.links(AFI.IPV4):
            assert loaded.relationship(link.a, link.b, AFI.IPV4) == hierarchy_graph.relationship(
                link.a, link.b, AFI.IPV4
            )

    def test_p2c_written_provider_first(self, hierarchy_graph):
        buffer = io.StringIO()
        write_caida_asrel(hierarchy_graph, buffer, AFI.IPV4)
        lines = [l for l in buffer.getvalue().splitlines() if not l.startswith("#")]
        assert "1|2|-1" in lines
        assert "2|1|-1" not in lines

    def test_merge_two_planes(self, hierarchy_graph):
        v4 = io.StringIO()
        write_caida_asrel(hierarchy_graph, v4, AFI.IPV4)
        v4.seek(0)
        graph = read_caida_asrel(v4, AFI.IPV4)
        v6 = io.StringIO("2|3|0\n")
        read_caida_asrel(v6, AFI.IPV6, graph)
        assert graph.relationship(2, 3, AFI.IPV6) is Relationship.P2P
        assert graph.relationship(2, 3, AFI.IPV4) is Relationship.P2P

    def test_malformed_line_raises(self):
        with pytest.raises(TopologyFormatError):
            read_caida_asrel(io.StringIO("1|2\n"), AFI.IPV4)
        with pytest.raises(TopologyFormatError):
            read_caida_asrel(io.StringIO("a|b|-1\n"), AFI.IPV4)
        with pytest.raises(TopologyFormatError):
            read_caida_asrel(io.StringIO("1|2|9\n"), AFI.IPV4)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n1|2|-1\n"
        graph = read_caida_asrel(io.StringIO(text), AFI.IPV4)
        assert graph.relationship(1, 2, AFI.IPV4) is Relationship.P2C


class TestDualStackSerialization:
    def test_round_trip_preserves_both_planes(self, hierarchy_graph):
        hierarchy_graph.set_relationship(2, 3, AFI.IPV4, Relationship.P2P)
        hierarchy_graph.add_link(2, 3, rel_v6=Relationship.P2C)
        buffer = io.StringIO()
        write_dual_stack(hierarchy_graph, buffer)
        buffer.seek(0)
        loaded = read_dual_stack(buffer)
        assert loaded.relationship(2, 3, AFI.IPV4) is Relationship.P2P
        assert loaded.relationship(2, 3, AFI.IPV6) is Relationship.P2C
        assert len(loaded.links()) == len(hierarchy_graph.links())

    def test_ipv6_only_link_round_trip(self):
        graph = ASGraph()
        graph.add_link(10, 20, rel_v6=Relationship.P2P)
        buffer = io.StringIO()
        write_dual_stack(graph, buffer)
        buffer.seek(0)
        loaded = read_dual_stack(buffer)
        assert loaded.relationship(10, 20, AFI.IPV6) is Relationship.P2P
        assert loaded.relationship(10, 20, AFI.IPV4) is Relationship.UNKNOWN

    def test_file_round_trip(self, tmp_path, hierarchy_graph):
        path = tmp_path / "topology.txt"
        write_dual_stack(hierarchy_graph, path)
        loaded = read_dual_stack(path)
        assert loaded.stats()["links"] == hierarchy_graph.stats()["links"]

    def test_malformed_dual_stack_raises(self):
        with pytest.raises(TopologyFormatError):
            read_dual_stack(io.StringIO("1|2|-1\n"))
        with pytest.raises(TopologyFormatError):
            read_dual_stack(io.StringIO("2|1|-1|0\n"))  # non-canonical orientation
        with pytest.raises(TopologyFormatError):
            read_dual_stack(io.StringIO("1|2|-1|7\n"))
