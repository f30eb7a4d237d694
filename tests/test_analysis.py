"""Unit tests for the analysis pipeline: extraction, links, reports, partition."""

import pytest

from repro.analysis.links import build_link_inventory
from repro.analysis.partition import analyze_reachability
from repro.analysis.paths import store_from_records
from repro.analysis.report import format_series, format_summary, format_table, to_json
from repro.bgp.attributes import ASPath, Community
from repro.bgp.prefixes import Prefix
from repro.collectors.mrt import TableDumpRecord
from repro.core.annotation import ToRAnnotation
from repro.core.observations import ObservedRoute
from repro.core.relationships import AFI, Link, Relationship
from repro.core.store import ObservationStore


def record(path, prefix="3fff:77::/32", peer_as=None, local_pref=200):
    peer_as = peer_as if peer_as is not None else path[0]
    return TableDumpRecord(
        timestamp=1282262400,
        peer_ip="2001:db8::1",
        peer_as=peer_as,
        prefix=Prefix(prefix),
        as_path=ASPath(path),
        local_pref=local_pref,
        communities=(Community(path[0], 100),),
        collector="route-views6",
    )


class TestPathExtraction:
    def test_observation_from_record_basic(self):
        (observation,) = store_from_records([record([10, 20, 30])])
        assert observation.path == (10, 20, 30)
        assert observation.vantage == 10
        assert observation.local_pref == 200
        assert observation.communities == (Community(10, 100),)

    def test_prepending_collapsed(self):
        (observation,) = store_from_records([record([10, 20, 20, 30])])
        assert observation.path == (10, 20, 30)

    def test_looped_path_dropped(self):
        result = store_from_records([record([10, 20, 10, 30])])
        assert len(result) == 0
        assert result.stats.looped_paths == 1

    def test_local_pref_values_survive_extraction(self):
        # A genuinely exported LOCAL_PREF 0 is kept distinct from a feed
        # that does not export the attribute at all.
        (observation,) = store_from_records([record([10, 20], local_pref=0)])
        assert observation.local_pref == 0
        (observation,) = store_from_records([record([10, 20], local_pref=None)])
        assert observation.local_pref is None

    def test_missing_vantage_hop_reanchored(self):
        (observation,) = store_from_records([record([20, 30], peer_as=10)])
        assert observation.path == (10, 20, 30)
        assert observation.vantage == 10

    def test_extract_observations_counters_and_dedup(self):
        records = [
            record([10, 20, 30]),
            record([10, 20, 30]),              # duplicate
            record([10, 20, 10, 30]),          # loop
            record([11, 20, 30], prefix="10.3.0.0/20"),
        ]
        result = store_from_records(records)
        assert result.stats.records == 4
        assert result.stats.looped_paths == 1
        assert result.stats.observations == 2
        assert result.stats.distinct_paths == 2
        assert len(result) == 2

    def test_dedup_merges_duplicate_attributes(self):
        """A stripped copy must not shadow one carrying LOCAL_PREF/communities."""
        base = dict(
            timestamp=1282262400,
            peer_ip="2001:db8::1",
            peer_as=10,
            prefix=Prefix("3fff:77::/32"),
            as_path=ASPath([10, 20]),
        )
        poor = TableDumpRecord(**base, local_pref=None, communities=())
        rich = TableDumpRecord(
            **base, local_pref=200, communities=(Community(10, 100),)
        )
        for ordering in ([poor, rich], [rich, poor]):
            result = store_from_records(ordering)
            assert result.stats.observations == 1
            assert result.observations[0].local_pref == 200
            assert result.observations[0].communities == (Community(10, 100),)
        # Complementary duplicates: each copy carries an attribute the
        # other lacks; the merge must preserve both.
        lp_only = TableDumpRecord(**base, local_pref=120, communities=())
        comm_only = TableDumpRecord(
            **base, local_pref=None, communities=(Community(20, 300),)
        )
        result = store_from_records([lp_only, comm_only])
        assert result.stats.observations == 1
        assert result.observations[0].local_pref == 120
        assert result.observations[0].communities == (Community(20, 300),)


class TestLinkInventory:
    def make_observations(self):
        return [
            ObservedRoute(path=(1, 2, 3), prefix=Prefix("3fff:1::/32"), vantage=1),
            ObservedRoute(path=(1, 2, 4), prefix=Prefix("10.1.0.0/20"), vantage=1),
            ObservedRoute(path=(5, 2), prefix=Prefix("10.2.0.0/20"), vantage=5),
        ]

    def test_inventory_sets(self):
        inventory = build_link_inventory(ObservationStore(self.make_observations()))
        assert inventory.ipv6_links == {Link(1, 2), Link(2, 3)}
        assert inventory.ipv4_links == {Link(1, 2), Link(2, 4), Link(2, 5)}
        assert inventory.dual_stack_links == {Link(1, 2)}
        assert inventory.ipv6_only_links == {Link(2, 3)}
        assert inventory.summary()["dual_stack_links"] == 1

    def test_links_of_and_helpers(self):
        store = ObservationStore(self.make_observations())
        assert store.links(AFI.IPV6) == {Link(1, 2), Link(2, 3)}


class TestReachabilityPartition:
    def connected_annotation(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2C)
        annotation.set(1, 3, Relationship.P2C)
        return annotation

    def partitioned_annotation(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2C)   # island {1, 2}
        annotation.set(3, 4, Relationship.P2C)   # island {3, 4}
        return annotation

    def test_fully_connected(self):
        report = analyze_reachability(self.connected_annotation())
        assert report.reachable_fraction == 1.0
        assert report.reachable_pairs == report.ordered_pairs
        assert report.island_count == 1
        assert report.fully_reachable_ases == 3

    def test_partitioned(self):
        report = analyze_reachability(self.partitioned_annotation())
        assert report.reachable_pairs < report.ordered_pairs
        assert report.island_count == 2
        assert report.island_sizes == [2, 2]
        assert report.reachable_fraction == pytest.approx(4 / 12)
        assert report.unreachable_examples

    def test_single_as(self):
        annotation = ToRAnnotation(AFI.IPV6)
        report = analyze_reachability(annotation, ases=[42])
        assert report.ordered_pairs == 0
        assert report.reachable_fraction == 0.0

    def test_two_peer_hops_partition(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2P)
        annotation.set(2, 3, Relationship.P2P)
        report = analyze_reachability(annotation)
        assert report.reachable_pairs < report.ordered_pairs  # 1 cannot reach 3 valley-free

    def test_summary(self):
        summary = analyze_reachability(self.partitioned_annotation()).summary()
        assert summary["island_count"] == 2.0
        assert summary["largest_island"] == 2.0


class TestReportFormatting:
    def test_format_table(self):
        text = format_table([("paths", "100"), ("links", "20")], title="Totals")
        assert "Totals" in text
        assert "paths" in text and "100" in text
        assert text.count("\n") >= 4

    def test_format_summary_percentages(self):
        text = format_summary({"valley_fraction": 0.131, "links": 20})
        assert "13.1%" in text
        assert "20" in text

    def test_format_series(self):
        text = format_series(
            "corrected", {"average": [3.8, 2.2], "diameter": [11, 7]}, title="Figure 2"
        )
        assert "Figure 2" in text
        assert "3.800" in text
        assert "7" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", {"a": [1], "b": [1, 2]})

    def test_to_json_handles_enums_and_sets(self):
        text = to_json({"relationship": Relationship.P2C, "links": {Link(1, 2)}})
        assert "p2c" in text
        assert "AS1-AS2" in text
