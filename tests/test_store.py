"""Golden equivalence of the indexed ObservationStore vs the legacy
list pipeline, plus the store's index invariants.

The store is a pure accelerator: every consumer that accepts it must
produce *identical* results to the plain-list path.  These tests pin
that equivalence on two differently seeded snapshots, and also pin it
against the frozen seed pipeline (``repro.analysis.reference``).
"""

import pytest

from repro.analysis.paths import (
    distinct_paths,
    extract_observations,
    paths_by_origin,
    store_from_records,
)
from repro.analysis.reference import (
    reference_extract_observations,
    reference_pipeline,
)
from repro.analysis.stats import compute_section3
from repro.bgp.attributes import ASPath, Community
from repro.bgp.prefixes import Prefix
from repro.collectors.mrt import TableDumpRecord
from repro.core.observations import ObservedRoute
from repro.core.relationships import AFI, Link
from repro.core.store import ObservationStore
from repro.core.visibility import build_visibility_index
from repro.datasets import build_snapshot, small_config


@pytest.fixture(scope="module", params=[7, 13], ids=["seed7", "seed13"])
def seeded_snapshot(request):
    """Two differently seeded small snapshots (built once per module)."""
    return build_snapshot(small_config(seed=request.param))


class TestGoldenEquivalence:
    def test_section3_identical_via_store_and_list(self, seeded_snapshot):
        snapshot = seeded_snapshot
        legacy = compute_section3(list(snapshot.observations), snapshot.registry)
        fast = compute_section3(snapshot.store, snapshot.registry)
        assert legacy.report.as_dict() == fast.report.as_dict()
        # Communities evidence: raw votes, conflicts and annotations.
        assert legacy.inference.communities.votes == fast.inference.communities.votes
        assert (
            legacy.inference.communities.conflicting_links
            == fast.inference.communities.conflicting_links
        )
        for afi in (AFI.IPV4, AFI.IPV6):
            assert dict(legacy.inference.annotation(afi).items()) == dict(
                fast.inference.annotation(afi).items()
            )
        # LocPrf evidence: mappings, counters, annotations.
        legacy_locpref, fast_locpref = (
            legacy.inference.locpref,
            fast.inference.locpref,
        )
        assert (
            legacy_locpref.filtered_traffic_engineering
            == fast_locpref.filtered_traffic_engineering
        )
        assert legacy_locpref.unmapped_observations == fast_locpref.unmapped_observations
        assert {
            vantage: (mapping.mapping, mapping.ambiguous_values, mapping.samples)
            for vantage, mapping in legacy_locpref.mappings.items()
        } == {
            vantage: (mapping.mapping, mapping.ambiguous_values, mapping.samples)
            for vantage, mapping in fast_locpref.mappings.items()
        }
        # Valley statistics down to the individual valley paths.
        assert legacy.valley.summary() == fast.valley.summary()
        assert [vp.path for vp in legacy.valley.valley_paths] == [
            vp.path for vp in fast.valley.valley_paths
        ]
        # Visibility tables.
        assert legacy.visibility.path_count == fast.visibility.path_count
        assert legacy.visibility.link_paths == fast.visibility.link_paths

    def test_reference_pipeline_matches_store_pipeline(self, seeded_snapshot):
        snapshot = seeded_snapshot
        reference_report = reference_pipeline(snapshot.archive, snapshot.registry)
        fast = compute_section3(snapshot.store, snapshot.registry)
        assert reference_report.as_dict() == fast.report.as_dict()

    def test_reference_extraction_matches_live(self, seeded_snapshot):
        snapshot = seeded_snapshot
        reference = reference_extract_observations(
            snapshot.archive.records(), deduplicate=True
        )
        live = extract_observations(snapshot.archive.records(), deduplicate=True)
        assert reference.observations == live.observations
        assert reference.stats == live.stats

    def test_wrappers_match_store_queries(self, seeded_snapshot):
        snapshot = seeded_snapshot
        store, observations = snapshot.store, snapshot.observations
        assert distinct_paths(store) == distinct_paths(observations)
        assert distinct_paths(store, AFI.IPV6) == distinct_paths(
            observations, AFI.IPV6
        )
        assert paths_by_origin(store) == paths_by_origin(observations)
        assert paths_by_origin(store, AFI.IPV4) == paths_by_origin(
            observations, AFI.IPV4
        )
        store_index = build_visibility_index(store, afi=AFI.IPV6)
        list_index = build_visibility_index(
            [o for o in observations if o.afi is AFI.IPV6], afi=AFI.IPV6
        )
        assert store_index.path_count == list_index.path_count
        assert store_index.link_paths == list_index.link_paths
        some_links = sorted(list_index.link_paths)[:5]
        assert store_index.paths_crossing_any(
            some_links
        ) == list_index.paths_crossing_any(some_links)


class TestStoreIndexes:
    #: Attributes that are lazily derived (and therefore may differ in
    #: "not yet computed" state between two freshly built stores).
    LAZY_ATTRIBUTES = {
        "_all_links",
        "_dual_stack_links",
        "_visibility",
        "_next_hops",
        "_by_origin",
        "_by_link",
        "_paths_by_origin",
    }

    def test_streaming_store_matches_rebuild(self, seeded_snapshot):
        result = store_from_records(seeded_snapshot.archive.records(), deduplicate=True)
        rebuilt = ObservationStore(result.observations)
        # Compare the FULL eager index state generically, so that an
        # index added to ObservationStore._build but forgotten in the
        # streaming path (repro.analysis.paths._extract) fails here even
        # before any test queries it.
        eager = set(rebuilt.__dict__) - self.LAZY_ATTRIBUTES
        assert set(result.store.__dict__) == set(rebuilt.__dict__)
        for attribute in sorted(eager):
            assert (
                result.store.__dict__[attribute] == rebuilt.__dict__[attribute]
            ), f"streaming and rebuilt stores disagree on {attribute}"
        # Lazily derived tables agree once forced.
        for afi in (None, AFI.IPV4, AFI.IPV6):
            assert result.store.distinct_paths(afi) == rebuilt.distinct_paths(afi)
        assert result.store.dual_stack_links() == rebuilt.dual_stack_links()
        assert result.store.paths_by_origin() == rebuilt.paths_by_origin()

    def make_observations(self):
        return [
            ObservedRoute(
                path=(1, 2, 3),
                prefix=Prefix("3fff:1::/32"),
                vantage=1,
                local_pref=100,
            ),
            ObservedRoute(
                path=(1, 2, 3),
                prefix=Prefix("10.1.0.0/20"),
                vantage=1,
                communities=(Community(1, 100),),
            ),
            ObservedRoute(path=(4, 2, 3), prefix=Prefix("3fff:1::/32"), vantage=4),
            ObservedRoute(path=(1, 5), prefix=Prefix("3fff:2::/32"), vantage=1),
        ]

    def test_basic_indexes(self):
        store = ObservationStore(self.make_observations())
        assert len(store) == 4
        assert [o.vantage for o in store.by_afi[AFI.IPV6]] == [1, 4, 1]
        assert [o.vantage for o in store.by_afi[AFI.IPV4]] == [1]
        assert store.vantages == [1, 4]
        assert len(store.by_vantage[1]) == 3
        assert [o.local_pref for o in store.with_local_pref] == [100]
        assert len(store.with_communities) == 1
        # Distinct paths, first-seen order, per plane and mixed.
        assert store.distinct_paths(AFI.IPV6) == [(1, 2, 3), (4, 2, 3), (1, 5)]
        assert store.distinct_paths(AFI.IPV4) == [(1, 2, 3)]
        assert store.distinct_paths() == [(1, 2, 3), (4, 2, 3), (1, 5)]
        assert store.distinct_path_count(AFI.IPV6) == 3
        # Link tables.
        assert store.links(AFI.IPV4) == {Link(1, 2), Link(2, 3)}
        assert store.links(AFI.IPV6) == {
            Link(1, 2),
            Link(2, 3),
            Link(2, 4),
            Link(1, 5),
        }
        assert store.dual_stack_links() == {Link(1, 2), Link(2, 3)}
        assert store.links() == store.links(AFI.IPV4) | store.links(AFI.IPV6)
        # Per-origin and per-link observation indexes.
        assert sorted(store.by_origin) == [3, 5]
        assert len(store.by_origin[3]) == 3
        assert [o.prefix for o in store.observations_crossing(Link(2, 4))] == [
            Prefix("3fff:1::/32")
        ]
        assert store.observations_crossing(Link(7, 8)) == []
        # Path helpers.
        assert store.path_links((1, 2, 3)) == (Link(1, 2), Link(2, 3))
        assert dict(store.next_hops((1, 2, 3))) == {1: 2, 2: 3}
        assert store.paths_by_origin(AFI.IPV6) == {
            3: [(1, 2, 3), (4, 2, 3)],
            5: [(1, 5)],
        }
        assert store.observations_for(None) is store.observations

    def test_visibility_index_counts_observations_when_asked(self):
        store = ObservationStore(self.make_observations())
        distinct = store.visibility_index(AFI.IPV6)
        assert distinct.path_count == 3
        all_obs = store.visibility_index(AFI.IPV6, distinct_paths_only=False)
        assert all_obs.path_count == 3  # the v6 duplicates share no path
        mixed = store.visibility_index(None, distinct_paths_only=False)
        assert mixed.path_count == 4

    def test_streaming_dedup_replacement_rebuilds_indexes(self):
        base = dict(
            timestamp=0,
            peer_ip="::1",
            peer_as=10,
            prefix=Prefix("3fff:77::/32"),
            as_path=ASPath([10, 20]),
        )
        poor = TableDumpRecord(**base, local_pref=None, communities=())
        rich = TableDumpRecord(
            **base, local_pref=200, communities=(Community(10, 100),)
        )
        result = store_from_records([poor, rich], deduplicate=True)
        assert len(result.observations) == 1
        assert result.observations[0].local_pref == 200
        # The replacement forces a rebuild: every index must reference
        # the surviving (richer) observation.
        assert result.store.with_local_pref == result.observations
        assert result.store.with_communities == result.observations
        assert result.store.by_vantage[10] == result.observations
