"""Tests for the hand-built scenarios and the synthetic snapshot builder."""

import pytest

from repro.core.annotation import ToRAnnotation
from repro.core.customer_tree import customer_tree
from repro.core.relationships import AFI, HybridType, Relationship
from repro.core.valley import PathValidity, validate_path
from repro.datasets.scenarios import (
    figure1_scenario,
    hybrid_scenario,
    rosetta_scenario,
    valley_scenario,
)
from repro.datasets.config import DatasetConfig, small_config
from repro.datasets.synthetic import build_snapshot
from repro.topology.config import TopologyConfig


class TestScenarios:
    def test_figure1_trees(self):
        scenario = figure1_scenario()
        assert (
            customer_tree(scenario.annotation_p2c, 1).members
            == scenario.expected_tree_p2c
        )
        assert (
            customer_tree(scenario.annotation_p2p, 1).members
            == scenario.expected_tree_p2p
        )

    def test_hybrid_scenario_link(self):
        scenario = hybrid_scenario()
        graph = scenario.graph
        record = graph.dual_stack_relationship(10, 20)
        assert record.is_hybrid
        assert record.hybrid_type is HybridType.PEER4_TRANSIT6

    def test_rosetta_scenario_shape(self):
        scenario = rosetta_scenario()
        assert len(scenario.observations) == 5
        assert scenario.vantage in scenario.registry
        assert all(o.vantage == scenario.vantage for o in scenario.observations)

    def test_valley_scenario_is_a_reachability_valley(self):
        scenario = valley_scenario()
        validation = validate_path(scenario.valley_path, scenario.annotation)
        assert validation.validity is PathValidity.VALLEY
        assert (
            validate_path(scenario.valley_free_path, scenario.annotation).validity
            is PathValidity.VALLEY_FREE
        )


class TestDatasetConfig:
    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            DatasetConfig(documented_fraction=1.2)
        with pytest.raises(ValueError):
            DatasetConfig(vantage_points=0)

    def test_small_config_is_small(self):
        config = small_config()
        assert config.topology.total_ases <= 200


class TestSyntheticSnapshot:
    """Integration checks on the session-scoped snapshot fixture."""

    def test_observations_cover_both_planes(self, snapshot):
        v4 = snapshot.observations_for(AFI.IPV4)
        v6 = snapshot.observations_for(AFI.IPV6)
        assert v4 and v6
        assert len(v4) + len(v6) == len(snapshot.observations)

    def test_observations_are_clean(self, snapshot):
        for observation in snapshot.observations[:500]:
            assert len(set(observation.path)) == len(observation.path)
            assert observation.vantage == observation.path[0]

    def test_vantage_points_are_dual_stack(self, snapshot):
        graph = snapshot.graph
        for collector in snapshot.collectors:
            for vantage in collector.vantage_points:
                assert graph.node(vantage.asn).dual_stack

    def test_ground_truth_matches_graph(self, snapshot):
        annotation = snapshot.ground_truth_annotation(AFI.IPV6)
        graph = snapshot.graph
        for link in list(annotation.links())[:200]:
            assert (
                annotation.get(link.a, link.b)
                is graph.relationship(link.a, link.b, AFI.IPV6)
            )

    def test_true_hybrid_links_are_hybrid_in_ground_truth(self, snapshot):
        v4 = snapshot.ground_truth_annotation(AFI.IPV4)
        v6 = snapshot.ground_truth_annotation(AFI.IPV6)
        for link in snapshot.true_hybrid_links:
            assert v4.get_canonical(link).is_known
            assert v6.get_canonical(link).is_known
            assert v4.get_canonical(link) is not v6.get_canonical(link)

    def test_dispute_removed_ipv6_relationship(self, snapshot):
        for link in snapshot.dispute_links:
            assert (
                snapshot.graph.relationship(link.a, link.b, AFI.IPV6)
                is Relationship.UNKNOWN
            )
            assert snapshot.graph.relationship(link.a, link.b, AFI.IPV4).is_known

    def test_relaxations_are_ipv6_only(self, snapshot):
        for asn, neighbor in snapshot.relaxed_adjacencies:
            policy = snapshot.policies[asn]
            assert policy.is_relaxed(neighbor, AFI.IPV6)
            assert not policy.is_relaxed(neighbor, AFI.IPV4)

    def test_propagation_results_pruned_to_vantages(self, snapshot):
        vantages = {
            vantage.asn
            for collector in snapshot.collectors
            for vantage in collector.vantage_points
        }
        result = snapshot.propagation[AFI.IPV6]
        non_vantage = next(iter(set(snapshot.graph.ases) - vantages))
        assert not result.speakers[non_vantage].loc_rib.routes()

    def test_deterministic_rebuild(self):
        first = build_snapshot(small_config(seed=123))
        second = build_snapshot(small_config(seed=123))
        assert len(first.observations) == len(second.observations)
        assert first.true_hybrid_links == second.true_hybrid_links
        assert [o.path for o in first.observations[:50]] == [
            o.path for o in second.observations[:50]
        ]

    def test_extraction_counters_consistent(self, snapshot):
        assert snapshot.extraction.stats.observations == len(snapshot.observations)
        assert snapshot.extraction.stats.records >= len(snapshot.observations)
