"""Unit tests for the LocPrf (Rosetta Stone) and combined inference."""

import pytest

from repro.bgp.attributes import Community
from repro.bgp.prefixes import Prefix
from repro.core.combined_inference import CombinedInference
from repro.core.locpref_inference import LocPrefInference
from repro.core.observations import ObservedRoute
from repro.core.relationships import AFI, Link, Relationship
from repro.core.store import ObservationStore
from repro.irr.dictionary import CommunityDictionary
from repro.irr.registry import IRRRegistry


def observe(path, communities=(), local_pref=None, prefix="3fff:9::/32"):
    return ObservedRoute(
        path=tuple(path),
        prefix=Prefix(prefix),
        vantage=path[0],
        communities=tuple(communities),
        local_pref=local_pref,
    )


class TestCalibration:
    def test_rosetta_mapping_built_from_communities(self, rosetta):
        inference = LocPrefInference(rosetta.registry)
        mappings = inference.calibrate(ObservationStore(rosetta.observations))
        mapping = mappings[rosetta.vantage]
        assert mapping.mapping[rosetta.CUSTOMER_PREF] is Relationship.P2C
        assert mapping.mapping[rosetta.PEER_PREF] is Relationship.P2P
        assert mapping.mapping[rosetta.PROVIDER_PREF] is Relationship.C2P
        assert rosetta.TE_PREF not in mapping.mapping

    def test_ambiguous_values_discarded(self, rosetta):
        registry = rosetta.registry
        conflicting = rosetta.observations + [
            observe(
                [100, 500],
                communities=[Community(100, 20)],  # peer tag...
                local_pref=900,                     # ...but the "customer" value
            )
        ]
        inference = LocPrefInference(registry)
        mapping = inference.calibrate(ObservationStore(conflicting))[100]
        assert 900 in mapping.ambiguous_values
        assert 900 not in mapping.mapping

    def test_traffic_engineering_routes_excluded_from_calibration(self, rosetta):
        registry = rosetta.registry
        observations = [
            observe(
                [100, 270],
                communities=[Community(100, 10), Community(100, 666)],
                local_pref=50,
            )
        ] + rosetta.observations
        inference = LocPrefInference(registry)
        mapping = inference.calibrate(ObservationStore(observations))[100]
        assert 50 not in mapping.mapping

    def test_rank_calibration_when_validation_disabled(self, rosetta):
        inference = LocPrefInference(rosetta.registry, validate_with_communities=False)
        mapping = inference.calibrate(ObservationStore(rosetta.observations))[100]
        # Highest value observed becomes customer, lowest provider.
        assert mapping.mapping[900] is Relationship.P2C
        assert mapping.mapping[50] is Relationship.C2P


class TestLocPrefInference:
    def test_first_hop_link_inferred_from_calibrated_value(self, rosetta):
        inference = LocPrefInference(rosetta.registry)
        result = inference.infer(ObservationStore(rosetta.observations))
        annotation = result.annotation(AFI.IPV6)
        # The (100, 250) link had no relationship community but LOCAL_PREF
        # 800 which calibrates to peer.
        assert annotation.get(100, 250) is Relationship.P2P

    def test_te_routes_filtered_and_counted(self, rosetta):
        inference = LocPrefInference(rosetta.registry)
        result = inference.infer(ObservationStore(rosetta.observations))
        assert result.filtered_traffic_engineering == 1
        assert result.annotation(AFI.IPV6).get(100, 260) is Relationship.UNKNOWN

    def test_te_filter_can_be_disabled(self, rosetta):
        inference = LocPrefInference(rosetta.registry, filter_traffic_engineering=False)
        result = inference.infer(ObservationStore(rosetta.observations))
        assert result.filtered_traffic_engineering == 0

    def test_unmapped_values_counted(self, rosetta):
        extra = rosetta.observations + [observe([100, 280, 281], local_pref=555)]
        inference = LocPrefInference(rosetta.registry)
        result = inference.infer(ObservationStore(extra))
        assert result.unmapped_observations >= 1
        assert result.annotation(AFI.IPV6).get(100, 280) is Relationship.UNKNOWN

    def test_routes_without_local_pref_ignored(self, rosetta):
        extra = rosetta.observations + [observe([100, 290, 291], local_pref=None)]
        inference = LocPrefInference(rosetta.registry)
        result = inference.infer(ObservationStore(extra))
        assert result.annotation(AFI.IPV6).get(100, 290) is Relationship.UNKNOWN


class TestCombinedInference:
    def test_communities_take_precedence_and_locpref_fills_gaps(self, rosetta):
        engine = CombinedInference(rosetta.registry)
        result = engine.infer(ObservationStore(rosetta.observations))
        annotation = result.annotation(AFI.IPV6)
        # From communities: vantage-customer link.
        assert annotation.get(100, 400) is Relationship.P2C
        # From LocPrf only: the (100, 250) link.
        assert annotation.get(100, 250) is Relationship.P2P

    def test_coverage_reports(self, rosetta):
        engine = CombinedInference(rosetta.registry)
        result = engine.infer(ObservationStore(rosetta.observations))
        coverage = result.coverage[AFI.IPV6]
        assert coverage.total_links >= 5
        assert 0.0 < coverage.fraction <= 1.0
        assert coverage.annotated_links <= coverage.total_links

    def test_dual_stack_coverage_requires_both_planes(self, rosetta):
        engine = CombinedInference(rosetta.registry)
        result = engine.infer(ObservationStore(rosetta.observations))
        # No IPv4 observations at all: dual-stack coverage of any link is 0.
        report = result.dual_stack_coverage([Link(100, 400)])
        assert report.annotated_links == 0
        assert report.fraction == 0.0

    def test_relationship_shortcut(self, rosetta):
        engine = CombinedInference(rosetta.registry)
        result = engine.infer(ObservationStore(rosetta.observations))
        assert result.relationship(400, 100, AFI.IPV6) is Relationship.C2P

    def test_locpref_never_overrides_communities(self):
        """A link whose communities say peer keeps that label even when a
        (mis-calibrated) LocPrf value suggests otherwise."""
        registry = IRRRegistry()
        dictionary = CommunityDictionary(100)
        dictionary.add_relationship(10, Relationship.P2C)
        dictionary.add_relationship(20, Relationship.P2P)
        dictionary.add_relationship(30, Relationship.C2P)
        registry.register(dictionary)
        observations = [
            # Calibration: 300 = customer.
            observe([100, 7], communities=[Community(100, 10)], local_pref=300),
            # The link 100-8 carries a peer tag but the customer LOCAL_PREF.
            observe([100, 8, 9], communities=[Community(100, 20)], local_pref=300),
        ]
        engine = CombinedInference(registry)
        result = engine.infer(ObservationStore(observations))
        assert result.relationship(100, 8, AFI.IPV6) is Relationship.P2P
