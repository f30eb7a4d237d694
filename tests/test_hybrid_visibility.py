"""Unit tests for hybrid-link detection and path-visibility indexing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.prefixes import Prefix
from repro.core.annotation import ToRAnnotation
from repro.core.hybrid import HybridDetector
from repro.core.observations import ObservedRoute
from repro.core.relationships import AFI, HybridType, Link, Relationship
from repro.core.store import ObservationStore
from repro.core.visibility import build_visibility_index


def annotation_pair():
    """IPv4/IPv6 annotations over four links, one of which is hybrid."""
    ipv4 = ToRAnnotation(AFI.IPV4)
    ipv6 = ToRAnnotation(AFI.IPV6)
    # Same in both planes.
    ipv4.set(1, 2, Relationship.P2C)
    ipv6.set(1, 2, Relationship.P2C)
    # Hybrid: peer in IPv4, transit in IPv6.
    ipv4.set(2, 3, Relationship.P2P)
    ipv6.set(2, 3, Relationship.P2C)
    # IPv4-only and IPv6-only links.
    ipv4.set(3, 4, Relationship.P2C)
    ipv6.set(4, 5, Relationship.P2P)
    return ipv4, ipv6


class TestHybridDetector:
    def test_dual_stack_links(self):
        ipv4, ipv6 = annotation_pair()
        detector = HybridDetector(ipv4, ipv6)
        assert detector.dual_stack_links() == [Link(1, 2), Link(2, 3)]

    def test_classification(self):
        ipv4, ipv6 = annotation_pair()
        detector = HybridDetector(ipv4, ipv6)
        entry = detector.classify(Link(2, 3))
        assert entry.is_hybrid
        assert entry.hybrid_type is HybridType.PEER4_TRANSIT6
        assert detector.classify(Link(1, 2)).hybrid_type is HybridType.NOT_HYBRID
        assert detector.classify(Link(3, 4)) is None  # unknown in IPv6

    def test_detect_report(self):
        ipv4, ipv6 = annotation_pair()
        report = HybridDetector(ipv4, ipv6).detect()
        assert len(report.assessed_links) == 2
        assert len(report.hybrid_links) == 1
        assert report.hybrid_fraction == pytest.approx(0.5)
        assert report.type_share(HybridType.PEER4_TRANSIT6) == pytest.approx(1.0)
        assert report.hybrid_link_set() == {Link(2, 3)}
        summary = report.summary()
        assert summary["hybrid_links"] == 1.0

    def test_detect_with_link_restriction(self):
        ipv4, ipv6 = annotation_pair()
        report = HybridDetector(ipv4, ipv6).detect(links=[Link(1, 2)])
        assert len(report.assessed_links) == 1
        assert report.hybrid_fraction == 0.0

    def test_empty_report_fractions(self):
        ipv4, ipv6 = annotation_pair()
        report = HybridDetector(ipv4, ipv6).detect(links=[])
        assert report.hybrid_fraction == 0.0
        assert report.type_share(HybridType.PEER4_TRANSIT6) == 0.0

    def test_afi_order_enforced(self):
        ipv4, ipv6 = annotation_pair()
        with pytest.raises(ValueError):
            HybridDetector(ipv6, ipv4)

    def test_validation_scores(self):
        ipv4, ipv6 = annotation_pair()
        detector = HybridDetector(ipv4, ipv6)
        report = detector.detect()
        perfect = detector.validate(report, true_hybrid_links=[Link(2, 3)])
        assert perfect.precision == 1.0
        assert perfect.recall == 1.0
        assert perfect.f1 == 1.0
        miss = detector.validate(report, true_hybrid_links=[Link(1, 2)])
        assert miss.precision == 0.0
        assert miss.recall == 0.0
        assert miss.f1 == 0.0

    def test_validation_assessable_only(self):
        ipv4, ipv6 = annotation_pair()
        detector = HybridDetector(ipv4, ipv6)
        report = detector.detect()
        # Link (3,4) is hybrid in the ground truth but not assessable:
        # with assessable_only it is excluded from the recall denominator.
        truth = [Link(2, 3), Link(3, 4)]
        scoped = detector.validate(report, truth, assessable_only=True)
        assert scoped.recall == 1.0
        unscoped = detector.validate(report, truth, assessable_only=False)
        assert unscoped.recall == pytest.approx(0.5)

    def test_ground_truth_snapshot_detection(self, hybrid_topology):
        graph = hybrid_topology.graph
        detector = HybridDetector(
            ToRAnnotation.from_graph(graph, AFI.IPV4),
            ToRAnnotation.from_graph(graph, AFI.IPV6),
        )
        report = detector.detect()
        assert report.hybrid_link_set() == {hybrid_topology.hybrid_link}


def observe(path, prefix="3fff:1::/32"):
    return ObservedRoute(path=tuple(path), prefix=Prefix(prefix), vantage=path[0])


class TestVisibilityIndex:
    def make_observations(self):
        return [
            observe([1, 2, 3]),
            observe([1, 2, 4]),
            observe([5, 2, 3]),
            observe([1, 2, 3], prefix="3fff:2::/32"),  # same path, other prefix
            observe([9, 8], prefix="10.0.0.0/20"),      # IPv4, ignored with afi filter
        ]

    def test_distinct_path_counting(self):
        index = build_visibility_index(ObservationStore(self.make_observations()), afi=AFI.IPV6)
        assert index.path_count == 3
        assert index.visibility_of(Link(1, 2)) == 2
        assert index.visibility_of(Link(2, 3)) == 2
        assert index.visibility_of(Link(8, 9)) == 0

    def test_ranking_and_top_links(self):
        index = build_visibility_index(ObservationStore(self.make_observations()), afi=AFI.IPV6)
        ranked = index.rank_links()
        assert ranked[0][1] >= ranked[-1][1]
        top = index.top_links(1, links=[Link(2, 3), Link(2, 4)])
        assert top == [Link(2, 3)]
        with pytest.raises(ValueError):
            index.top_links(-1)

    def test_paths_crossing_any(self):
        store = ObservationStore(self.make_observations())
        assert store.paths_crossing_any([Link(2, 3), Link(2, 4)], AFI.IPV6) == 3

    def test_empty_index(self):
        store = ObservationStore([])
        index = build_visibility_index(store, afi=AFI.IPV6)
        assert index.path_count == 0

    @settings(max_examples=80, deadline=None)
    @given(
        routes=st.lists(
            st.tuples(
                # Hops 1-8 only, so links touching AS 9 are on no path.
                st.lists(st.integers(1, 8), min_size=1, max_size=5, unique=True),
                st.sampled_from(["3fff:1::/32", "3fff:2::/32", "10.0.0.0/20"]),
            ),
            max_size=12,
        ),
        pairs=st.lists(
            st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda p: p[0] != p[1]),
            max_size=8,
        ),
        afi=st.sampled_from([AFI.IPV4, AFI.IPV6, None]),
    )
    def test_paths_crossing_any_matches_brute_force(self, routes, pairs, afi):
        store = ObservationStore([observe(path, prefix) for path, prefix in routes])
        links = {Link(a, b) for a, b in pairs}
        expected = sum(
            1
            for path in store.distinct_paths(afi)
            if any(Link(path[i], path[i + 1]) in links for i in range(len(path) - 1))
        )
        assert store.paths_crossing_any(links, afi) == expected
