"""End-to-end integration tests: the full paper pipeline on a synthetic snapshot.

These tests assert the *shape* of the paper's findings (see DESIGN.md):
coverage, hybrid share and mix, hybrid path visibility, valley fractions,
the Figure-1 effect, the Figure-2 trend and the two ablations (A1:
LocPrf without Communities validation; A2: IPv6 propagation without the
valley-free relaxations).
"""

import pytest

from repro.analysis.partition import analyze_reachability
from repro.analysis.stats import compute_section3
from repro.bgp.engine import PropagationEngine
from repro.bgp.policy import RoutingPolicy
from repro.bgp.propagation import PropagationSimulator
from repro.core.combined_inference import CombinedInference
from repro.core.correction import CorrectionExperiment, plane_agnostic_annotation
from repro.core.customer_tree import customer_tree, union_of_customer_trees
from repro.core.hybrid import HybridDetector
from repro.core.locpref_inference import LocPrefInference
from repro.core.relationships import AFI, HybridType, Relationship
from repro.core.valley import ValleyAnalyzer
from repro.core.visibility import build_visibility_index
from repro.inference.comparison import compare_annotations
from repro.inference.degree_based import DegreeBasedInference
from repro.inference.gao import GaoInference
from repro.topology.tiers import classify_tiers, tier_of_link


@pytest.fixture(scope="module")
def section3(snapshot):
    """Section-3 artifacts computed once for this module."""
    return compute_section3(snapshot.observations, snapshot.registry)


class TestSection3Shape:
    def test_path_and_link_counts_positive(self, section3):
        report = section3.report
        assert report.ipv6_paths > 100
        assert report.ipv6_links > 50
        assert 0 < report.dual_stack_links <= report.ipv6_links

    def test_coverage_in_paper_regime(self, section3):
        report = section3.report
        assert 0.5 <= report.ipv6_coverage <= 1.0
        assert 0.5 <= report.dual_stack_coverage <= 1.0
        # Dual-stack (core) links are at least as well covered as the
        # overall IPv6 link population, as in the paper (81% vs 72%).
        assert report.dual_stack_coverage >= report.ipv6_coverage - 0.05

    def test_hybrid_share_in_paper_regime(self, section3):
        report = section3.report
        assert 0.05 <= report.hybrid_fraction <= 0.25
        # The dominant type is peering-for-IPv4 / transit-for-IPv6.
        assert report.hybrid_share_peer4_transit6 >= report.hybrid_share_peer6_transit4

    def test_hybrid_links_highly_visible(self, section3):
        report = section3.report
        # 10-15% of links produce >25% of path crossings (paper: 13% -> 28%).
        assert report.fraction_paths_crossing_hybrid > report.hybrid_fraction
        assert report.fraction_paths_crossing_hybrid > 0.15

    def test_hybrid_links_live_in_the_core(self, snapshot, section3):
        """Paper: "the hybrid links usually happen among tier-1 or tier-2 ASes"."""
        tiers = classify_tiers(snapshot.graph, AFI.IPV4)
        hybrid_links = section3.hybrid.hybrid_link_set()
        core = sum(
            1 for link in hybrid_links if tier_of_link(tiers, link.a, link.b) <= 2
        )
        assert hybrid_links
        assert core / len(hybrid_links) >= 0.5

    def test_valley_paths_exist_but_are_minority(self, section3):
        report = section3.report
        assert 0.0 < report.valley_fraction < 0.5
        assert report.reachability_valley_paths <= report.valley_paths

    def test_detected_hybrids_against_ground_truth(self, snapshot, section3):
        detector = HybridDetector(
            section3.inference.annotation(AFI.IPV4),
            section3.inference.annotation(AFI.IPV6),
        )
        validation = detector.validate(
            section3.hybrid, snapshot.true_hybrid_links, assessable_only=True
        )
        assert validation.precision >= 0.9
        assert validation.recall >= 0.9

    def test_validated_locpref_at_least_as_accurate_as_naive(self, snapshot):
        """Ablation A1: LocPrf calibrated with the Communities validation
        and the traffic-engineering filter vs naive rank-based LocPrf."""
        reference = snapshot.ground_truth_annotation(AFI.IPV6)
        validated = LocPrefInference(snapshot.registry).infer(snapshot.observations)
        naive = LocPrefInference(
            snapshot.registry,
            validate_with_communities=False,
            filter_traffic_engineering=False,
        ).infer(snapshot.observations)
        validated_report = compare_annotations(validated.annotation(AFI.IPV6), reference)
        naive_report = compare_annotations(naive.annotation(AFI.IPV6), reference)
        assert validated_report.common_links and naive_report.common_links
        assert validated_report.accuracy >= naive_report.accuracy - 1e-9

    def test_inferred_relationships_match_ground_truth(self, snapshot, section3):
        """Communities/LocPrf inference should essentially never contradict
        the ground truth (the paper treats it as actual relationships)."""
        for afi in (AFI.IPV4, AFI.IPV6):
            report = compare_annotations(
                section3.inference.annotation(afi),
                snapshot.ground_truth_annotation(afi),
            )
            assert report.accuracy >= 0.95


class TestValleyAndPartition:
    def test_ipv6_plane_is_partitioned_without_relaxation(self, snapshot):
        annotation = snapshot.ground_truth_annotation(AFI.IPV6)
        ases = [
            asn
            for asn in snapshot.graph.ases_in(AFI.IPV6)
            if annotation.neighbors(asn)
        ][:60]
        report = analyze_reachability(annotation, ases=ases)
        assert report.ases == len(ases)
        # The peering dispute partitions part of the plane.
        if snapshot.dispute_links:
            assert report.reachable_fraction <= 1.0

    def test_relaxations_never_lose_reachability(self, snapshot):
        """Ablation A2 at the routing layer: the same IPv6 origins reach at
        least as many (origin, AS) pairs with the relaxed adjacencies as
        under strict valley-free export."""
        sample_origins = dict(
            list(snapshot.propagation[AFI.IPV6].origins.items())[:40]
        )
        vantages = [
            vantage.asn
            for collector in snapshot.collectors
            for vantage in collector.vantage_points
        ]
        strict_policies = {
            asn: RoutingPolicy(
                asn=asn,
                local_pref=policy.local_pref,
                tagger=policy.tagger,
                te_overrides=policy.te_overrides,
                strip_communities_on_export=policy.strip_communities_on_export,
            )
            for asn, policy in snapshot.policies.items()
        }
        relaxed = PropagationSimulator(
            snapshot.graph, snapshot.policies, keep_ribs_for=vantages
        ).run(sample_origins)
        strict = PropagationSimulator(
            snapshot.graph, strict_policies, keep_ribs_for=vantages
        ).run(sample_origins)
        assert sum(relaxed.reachable_counts.values()) >= sum(
            strict.reachable_counts.values()
        )

    def test_ground_truth_annotation_has_valley_paths(self, snapshot):
        report = ValleyAnalyzer(snapshot.ground_truth_annotation(AFI.IPV6)).analyze(
            snapshot.observations_for(AFI.IPV6), afi=AFI.IPV6
        )
        assert report.valley_count > 0

    def test_valley_paths_traverse_relaxed_adjacencies(self, snapshot, section3):
        relaxed = {frozenset(pair) for pair in snapshot.relaxed_adjacencies}
        traversing = 0
        for valley_path in section3.valley.valley_paths:
            hops = valley_path.path
            pairs = {frozenset((hops[i], hops[i + 1])) for i in range(len(hops) - 1)}
            if pairs & relaxed:
                traversing += 1
        if section3.valley.valley_paths:
            assert traversing / len(section3.valley.valley_paths) >= 0.5


class TestEngineRunOnSnapshot:
    def test_reaches_exactly_its_origins(self, snapshot):
        origins = snapshot.propagation[AFI.IPV6].origins
        engine = PropagationEngine(snapshot.graph, snapshot.policies)
        result = engine.run(origins)
        assert set(result.reachable_counts) == set(origins)


class TestFigure1OnSnapshot:
    def test_customer_tree_union_is_all_transit(self, section3):
        """Every edge of the union of the IPv6 customer trees (Figure 2's
        substrate) is a P2C/C2P edge of the annotation."""
        annotation = section3.inference.annotation(AFI.IPV6)
        union = union_of_customer_trees(annotation)
        assert union.size > 0
        for link in union.edges:
            assert annotation.get_canonical(link) in (Relationship.P2C, Relationship.C2P)

    def test_transit_flip_never_grows_the_tree(self, section3):
        """Figure-1 effect on the measured topology: re-labelling the most
        visible hybrid transit link as p2p shrinks (or keeps) the
        provider's customer tree."""
        annotation = section3.inference.annotation(AFI.IPV6)
        hybrid_links = [
            link
            for link in section3.visibility.top_links(
                20, links=section3.hybrid.hybrid_link_set()
            )
            if annotation.get_canonical(link).is_transit
        ]
        assert hybrid_links
        link = hybrid_links[0]
        provider = link.a if annotation.get(link.a, link.b) is Relationship.P2C else link.b
        flipped = annotation.copy()
        flipped.set_canonical(link, Relationship.P2P)
        assert customer_tree(flipped, provider).size <= customer_tree(
            annotation, provider
        ).size


class TestFigure2Trend:
    def test_correcting_most_visible_hybrids_moves_the_metric(self, snapshot, section3):
        """Figure 2 machinery: start from the plane-agnostic (misinferred)
        IPv6 annotation and correct the most visible hybrid links; every
        step is measured, the series covers all corrected links, and the
        customer-tree metric responds to the corrections."""
        reference = section3.inference.annotation(AFI.IPV6)
        misinferred = plane_agnostic_annotation(
            reference, section3.inference.annotation(AFI.IPV4)
        )
        experiment = CorrectionExperiment(misinferred, reference, max_sources=40)
        visibility = section3.visibility
        hybrid_links = section3.hybrid.hybrid_link_set()
        series = experiment.run_with_visibility(hybrid_links, visibility, top=10)
        assert len(series.steps) >= 2
        assert series.steps[0].corrected_links == 0
        assert series.steps[-1].corrected_links == len(series.steps) - 1
        assert all(metric > 0 for metric in series.averages)
        # The corrections are not a no-op: at least one step changes the metric.
        assert any(
            series.averages[i] != series.averages[i - 1]
            or series.diameters[i] != series.diameters[i - 1]
            for i in range(1, len(series.steps))
        )

    def test_visibility_order_moves_metric_more_than_random_order(self, section3):
        """DESIGN.md ablation: correcting the most visible links changes the
        metric at least as much as correcting randomly chosen ones with the
        same budget."""
        reference = section3.inference.annotation(AFI.IPV6)
        misinferred = plane_agnostic_annotation(
            reference, section3.inference.annotation(AFI.IPV4)
        )
        experiment = CorrectionExperiment(misinferred, reference, max_sources=40)
        hybrid_links = section3.hybrid.hybrid_link_set()
        budget = 3
        by_visibility = experiment.run_with_visibility(
            hybrid_links, section3.visibility, top=budget
        )
        random_order = experiment.run_random_order(hybrid_links, count=budget, seed=5)
        delta_visibility = abs(by_visibility.averages[-1] - by_visibility.averages[0])
        delta_random = abs(random_order.averages[-1] - random_order.averages[0])
        assert delta_visibility >= delta_random * 0.5

    def test_misinference_exists_to_correct(self, snapshot, section3):
        baseline = GaoInference().infer(snapshot.observations_for(AFI.IPV6), AFI.IPV6)
        reference = section3.inference.annotation(AFI.IPV6)
        report = compare_annotations(baseline, reference)
        assert report.disagreement_count > 0

    def test_degree_baseline_overlaps_the_inference(self, snapshot, section3):
        baseline = DegreeBasedInference().infer(
            snapshot.observations_for(AFI.IPV6), AFI.IPV6
        )
        reference = section3.inference.annotation(AFI.IPV6)
        assert compare_annotations(baseline, reference).common_links > 0

    def test_plane_agnostic_annotation_misinfers_exactly_the_hybrids(self, section3):
        reference = section3.inference.annotation(AFI.IPV6)
        misinferred = plane_agnostic_annotation(
            reference, section3.inference.annotation(AFI.IPV4)
        )
        differing = set(reference.differing_links(misinferred))
        assert differing == section3.hybrid.hybrid_link_set() & differing
        assert differing, "the snapshot should contain detectable hybrid links"
