"""Unit tests for the synthetic topology generator."""

import pytest

from repro.core.relationships import AFI, HybridType, Relationship
from repro.topology.config import TopologyConfig
from repro.topology.generator import generate_topology
from repro.topology.tiers import classify_tiers


@pytest.fixture(scope="module")
def generated():
    """A mid-sized generated topology shared by the tests in this module."""
    config = TopologyConfig(seed=11, tier1_count=6, tier2_count=30, tier3_count=120)
    return generate_topology(config)


class TestConfigValidation:
    def test_requires_two_tier1(self):
        with pytest.raises(ValueError):
            TopologyConfig(tier1_count=1)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            TopologyConfig(hybrid_fraction=1.5)
        with pytest.raises(ValueError):
            TopologyConfig(tier2_ipv6_fraction=-0.1)

    def test_total_ases(self):
        config = TopologyConfig(tier1_count=3, tier2_count=4, tier3_count=5)
        assert config.total_ases == 12


class TestHierarchy:
    def test_as_counts_match_config(self, generated):
        config = generated.config
        assert len(generated.tier1) == config.tier1_count
        assert len(generated.tier2) == config.tier2_count
        assert len(generated.tier3) == config.tier3_count
        assert len(generated.graph) == config.total_ases

    def test_tier1_is_a_clique_of_peers(self, generated):
        graph = generated.graph
        for i, a in enumerate(generated.tier1):
            for b in generated.tier1[i + 1 :]:
                assert graph.relationship(a, b, AFI.IPV4) is Relationship.P2P

    def test_tier1_ases_are_transit_free(self, generated):
        graph = generated.graph
        for asn in generated.tier1:
            assert graph.transit_free(asn, AFI.IPV4)

    def test_every_tier2_has_a_tier1_provider(self, generated):
        graph = generated.graph
        tier1 = set(generated.tier1)
        for asn in generated.tier2:
            assert set(graph.providers_of(asn, AFI.IPV4)) & tier1

    def test_every_stub_has_a_provider(self, generated):
        graph = generated.graph
        for asn in generated.tier3:
            assert graph.providers_of(asn, AFI.IPV4)

    def test_tier_classification_agrees_with_generator(self, generated):
        tiers = classify_tiers(generated.graph, AFI.IPV4)
        for asn in generated.tier1:
            assert tiers[asn] == 1


class TestIPv6Plane:
    def test_all_tier1_are_ipv6(self, generated):
        graph = generated.graph
        for asn in generated.tier1:
            assert graph.node(asn).ipv6

    def test_ipv6_links_only_between_ipv6_ases(self, generated):
        graph = generated.graph
        for link in graph.links(AFI.IPV6):
            assert graph.node(link.a).ipv6
            assert graph.node(link.b).ipv6

    def test_ipv6_only_links_exist(self, generated):
        graph = generated.graph
        ipv6_only = set(graph.links(AFI.IPV6)) - set(graph.links(AFI.IPV4))
        assert ipv6_only, "generator should add IPv6-only peering links"
        for link in ipv6_only:
            assert graph.relationship(link.a, link.b, AFI.IPV6) is Relationship.P2P


class TestHybridLinks:
    def test_hybrid_fraction_close_to_target(self, generated):
        dual_stack = generated.graph.dual_stack_links()
        fraction = len(generated.hybrid_links) / len(dual_stack)
        assert 0.08 <= fraction <= 0.18

    def test_hybrid_links_really_differ(self, generated):
        graph = generated.graph
        for link in generated.hybrid_links:
            record = graph.dual_stack_relationship(link.a, link.b)
            assert record.is_hybrid

    def test_single_reversed_transit_case(self, generated):
        reversed_links = [
            link
            for link, hybrid_type in generated.hybrid_links.items()
            if hybrid_type is HybridType.TRANSIT_REVERSED
        ]
        assert len(reversed_links) == 1

    def test_dominant_type_is_peer4_transit6(self, generated):
        counts = {}
        for hybrid_type in generated.hybrid_links.values():
            counts[hybrid_type] = counts.get(hybrid_type, 0) + 1
        assert counts[HybridType.PEER4_TRANSIT6] >= counts.get(HybridType.PEER6_TRANSIT4, 0)

    def test_non_hybrid_dual_stack_links_agree(self, generated):
        graph = generated.graph
        hybrid = set(generated.hybrid_links)
        for link in graph.dual_stack_links():
            if link in hybrid:
                continue
            record = graph.dual_stack_relationship(link.a, link.b)
            assert record.ipv4 is record.ipv6


class TestDeterminism:
    def test_same_seed_same_topology(self):
        config = TopologyConfig(seed=99, tier1_count=4, tier2_count=10, tier3_count=30)
        first = generate_topology(config)
        second = generate_topology(config)
        assert first.graph.stats() == second.graph.stats()
        assert first.hybrid_links == second.hybrid_links

    def test_different_seed_different_topology(self):
        base = TopologyConfig(seed=1, tier1_count=4, tier2_count=10, tier3_count=30)
        other = TopologyConfig(seed=2, tier1_count=4, tier2_count=10, tier3_count=30)
        assert (
            generate_topology(base).graph.stats() != generate_topology(other).graph.stats()
        )
