"""Unit tests for the Section-3 report object and its rendering."""

import pytest

from repro.analysis.report import format_table, to_json
from repro.analysis.stats import Section3Report, compute_section3
from repro.core.relationships import AFI
from repro.core.store import ObservationStore


class TestSection3Report:
    def test_rows_cover_every_paper_statistic(self):
        report = Section3Report(
            ipv6_paths=100,
            ipv6_links=50,
            dual_stack_links=40,
            ipv6_links_with_relationship=36,
            ipv6_coverage=0.72,
            dual_stack_links_with_relationship=32,
            dual_stack_coverage=0.81,
            hybrid_links=5,
            hybrid_fraction=0.13,
            hybrid_share_peer4_transit6=0.67,
            valley_paths=13,
            valley_fraction=0.13,
            reachability_valley_paths=2,
            reachability_valley_fraction=0.16,
        )
        rows = dict(report.rows())
        assert rows["IPv6 AS paths"] == "100"
        assert "72%" in rows["IPv6 links with relationship"]
        assert "81%" in rows["dual-stack links with relationship"]
        assert "13%" in rows["hybrid links"]
        assert "67%" in rows["hybrid: p2p IPv4 / transit IPv6"]
        assert "16%" in rows["valley paths needed for reachability"]
        # The rows render into a table without error.
        assert "IPv6 AS paths" in format_table(report.rows())

    def test_as_dict_is_json_serializable(self):
        report = Section3Report(ipv6_paths=10, hybrid_fraction=0.5)
        text = to_json(report.as_dict())
        assert '"ipv6_paths": 10' in text

    def test_empty_report_defaults(self):
        report = Section3Report()
        assert report.ipv6_coverage == 0.0
        assert report.hybrid_fraction == 0.0
        assert len(report.rows()) == 12


class TestComputeSection3Artifacts:
    def test_artifacts_are_consistent(self, snapshot):
        artifacts = compute_section3(snapshot.store, snapshot.registry)
        report = artifacts.report
        # The report's counts agree with the underlying artifacts.
        assert report.ipv6_links == len(artifacts.inventory.ipv6_links)
        assert report.dual_stack_links == len(artifacts.inventory.dual_stack_links)
        assert report.hybrid_links == len(artifacts.hybrid.hybrid_links)
        assert report.valley_paths == artifacts.valley.valley_count
        assert report.ipv6_paths == artifacts.visibility.path_count
        # Coverage counts never exceed the denominators.
        assert report.ipv6_links_with_relationship <= report.ipv6_links
        assert report.dual_stack_links_with_relationship <= report.dual_stack_links
        # Fractions are consistent with the counts.
        if report.ipv6_links:
            assert report.ipv6_coverage == pytest.approx(
                report.ipv6_links_with_relationship / report.ipv6_links
            )
        if report.valley_paths:
            assert report.reachability_valley_fraction == pytest.approx(
                report.reachability_valley_paths / report.valley_paths
            )

    def test_ipv6_only_observations(self, snapshot):
        """The pipeline degrades gracefully when only IPv6 data is supplied."""
        artifacts = compute_section3(
            ObservationStore(snapshot.observations_for(AFI.IPV6)), snapshot.registry
        )
        assert artifacts.report.ipv4_links == 0
        assert artifacts.report.dual_stack_links == 0
        assert artifacts.report.hybrid_links == 0
        assert artifacts.report.ipv6_paths > 0
