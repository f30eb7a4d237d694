"""Unit tests for routing policies (LOCAL_PREF, tagging, export rules)."""

import pytest

from repro.bgp.attributes import Community
from repro.bgp.policy import (
    LocalPrefScheme,
    RoutingPolicy,
    TrafficEngineeringOverride,
    gao_rexford_export_allowed,
)
from repro.bgp.prefixes import Prefix
from repro.core.relationships import AFI, Relationship
from repro.irr.dictionary import CommunityDictionary


class TestLocalPrefScheme:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            LocalPrefScheme(customer=100, peer=200, provider=300)

    def test_for_relationship(self):
        scheme = LocalPrefScheme(customer=300, peer=200, provider=100)
        assert scheme.for_relationship(Relationship.P2C) == 300
        assert scheme.for_relationship(Relationship.P2P) == 200
        assert scheme.for_relationship(Relationship.C2P) == 100
        with pytest.raises(ValueError):
            scheme.for_relationship(Relationship.UNKNOWN)

    def test_reverse_lookup(self):
        scheme = LocalPrefScheme()
        assert scheme.relationship_for(300) is Relationship.P2C
        assert scheme.relationship_for(42) is Relationship.UNKNOWN


class TestGaoRexfordRule:
    def test_local_routes_exported_everywhere(self):
        for export_rel in (Relationship.P2C, Relationship.P2P, Relationship.C2P):
            assert gao_rexford_export_allowed(None, export_rel)

    def test_customer_routes_exported_everywhere(self):
        for export_rel in (Relationship.P2C, Relationship.P2P, Relationship.C2P):
            assert gao_rexford_export_allowed(Relationship.P2C, export_rel)

    def test_peer_routes_only_to_customers(self):
        assert gao_rexford_export_allowed(Relationship.P2P, Relationship.P2C)
        assert not gao_rexford_export_allowed(Relationship.P2P, Relationship.P2P)
        assert not gao_rexford_export_allowed(Relationship.P2P, Relationship.C2P)

    def test_provider_routes_only_to_customers(self):
        assert gao_rexford_export_allowed(Relationship.C2P, Relationship.P2C)
        assert not gao_rexford_export_allowed(Relationship.C2P, Relationship.P2P)
        assert not gao_rexford_export_allowed(Relationship.C2P, Relationship.C2P)


class TestTrafficEngineeringOverride:
    def test_applies_to_matching_neighbor(self):
        override = TrafficEngineeringOverride(neighbor=7, local_pref=50)
        assert override.applies_to(7, Prefix("10.0.0.0/24"))
        assert not override.applies_to(8, Prefix("10.0.0.0/24"))

    def test_prefix_restriction(self):
        target = Prefix("10.1.0.0/16")
        override = TrafficEngineeringOverride(neighbor=7, local_pref=50, prefixes=(target,))
        assert override.applies_to(7, target)
        assert not override.applies_to(7, Prefix("10.2.0.0/16"))


class TestRoutingPolicy:
    def test_local_pref_uses_scheme_by_default(self):
        policy = RoutingPolicy(asn=1)
        value, override = policy.local_pref_for(2, Relationship.P2C, Prefix("10.0.0.0/24"))
        assert value == policy.local_pref.customer
        assert override is None

    def test_local_pref_override_applies(self):
        override = TrafficEngineeringOverride(neighbor=2, local_pref=55, action="lower-pref")
        policy = RoutingPolicy(asn=1, te_overrides=[override])
        value, applied = policy.local_pref_for(2, Relationship.C2P, Prefix("10.0.0.0/24"))
        assert value == 55
        assert applied is override

    def test_import_communities_with_tagger(self):
        dictionary = CommunityDictionary(1)
        dictionary.add_relationship(100, Relationship.P2C)
        dictionary.add_traffic_engineering(666, "lower-pref")
        policy = RoutingPolicy(asn=1, tagger=dictionary)
        plain = policy.import_communities(Relationship.P2C, None)
        assert plain == [Community(1, 100)]
        override = TrafficEngineeringOverride(neighbor=2, local_pref=50, action="lower-pref")
        tagged = policy.import_communities(Relationship.P2C, override)
        assert Community(1, 666) in tagged

    def test_import_communities_without_tagger(self):
        policy = RoutingPolicy(asn=1)
        assert policy.import_communities(Relationship.P2P, None) == []

    def test_relaxation_lifts_export_restriction(self):
        policy = RoutingPolicy(asn=1)
        assert not policy.export_allowed(Relationship.P2P, Relationship.P2P, 9, AFI.IPV6)
        policy.add_relaxation(9, AFI.IPV6)
        assert policy.export_allowed(Relationship.P2P, Relationship.P2P, 9, AFI.IPV6)
        # Relaxation is per address family.
        assert not policy.export_allowed(Relationship.P2P, Relationship.P2P, 9, AFI.IPV4)
