"""The indexed ObservationStore pinned to the frozen seed pipeline,
plus the store's index invariants.

The store is the only input of the measurement layer.  These tests pin
its results, from the extraction counters through the communities and
LocPrf evidence to the Section-3 report, against the frozen seed
implementation (``repro.analysis.reference``) on two differently seeded
snapshots.
"""

import gc
import tracemalloc

import pytest

from repro.analysis.paths import store_from_records
from repro.analysis.reference import (
    _reference_collect_votes,
    _reference_communities_annotations,
    _reference_locpref_annotations,
    reference_extract_observations,
    reference_pipeline,
)
from repro.analysis.stats import compute_section3
from repro.bgp.attributes import ASPath, Community
from repro.bgp.prefixes import Prefix
from repro.collectors.mrt import TableDumpRecord
from repro.core.communities_inference import CommunitiesInference
from repro.core.observations import ObservedRoute
from repro.core.relationships import AFI, Link
from repro.core.store import ObservationStore
from repro.datasets.config import small_config
from repro.datasets.synthetic import build_snapshot
from repro.pipeline.stages import PipelineConfig, run_pipeline


@pytest.fixture(scope="module", params=[7, 13], ids=["seed7", "seed13"])
def seeded_snapshot(request):
    """Two differently seeded small snapshots (built once per module)."""
    return build_snapshot(small_config(seed=request.param))


class TestGoldenEquivalence:
    def test_reference_pipeline_matches_store_pipeline(self, seeded_snapshot):
        snapshot = seeded_snapshot
        registry = snapshot.registry
        reference_report = reference_pipeline(snapshot.archive, registry)
        fast = compute_section3(snapshot.store, registry)
        assert reference_report.as_dict() == fast.report.as_dict()
        # Below the report: the inference evidence of the seed scans.
        observations, _ = reference_extract_observations(snapshot.archive.records())
        assert CommunitiesInference(registry).collect_votes(
            snapshot.store
        ) == _reference_collect_votes(observations, registry)
        communities = _reference_communities_annotations(observations, registry)
        locpref = _reference_locpref_annotations(observations, registry)
        for afi in (AFI.IPV4, AFI.IPV6):
            assert (
                fast.inference.communities.annotation(afi).records()
                == communities[afi].records()
            )
            assert (
                fast.inference.locpref.annotation(afi).records()
                == locpref[afi].records()
            )

    def test_reference_extraction_matches_live(self, seeded_snapshot):
        snapshot = seeded_snapshot
        observations, stats = reference_extract_observations(
            snapshot.archive.records(), deduplicate=True
        )
        live = store_from_records(snapshot.archive.records())
        assert observations == live.observations
        assert observations == live.store.observations
        assert stats == live.stats


class TestStoreIndexes:
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
        # The mixed count is taken from the planes before the mixed
        # table exists, and agrees with it afterwards.
        assert store.distinct_path_count() == 3
        assert store.distinct_paths() == [(1, 2, 3), (4, 2, 3), (1, 5)]
        assert store.distinct_path_count() == 3
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
        # Path helpers.
        assert store.path_links((1, 2, 3)) == (Link(1, 2), Link(2, 3))
        assert store.observations_for(None) is store.observations
        # Visibility counts each distinct path of the plane once.
        assert store.visibility_index(AFI.IPV6).path_count == 3
        assert store.visibility_index(None).path_count == 3

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
        result = store_from_records([poor, rich])
        assert len(result.observations) == 1
        assert result.observations[0].local_pref == 200
        # Every index must reference the surviving (richer) observation.
        assert result.store.with_local_pref == result.observations
        assert result.store.with_communities == result.observations
        assert result.store.by_vantage[10] == result.observations


class TestStoreBuildMemory:
    def test_extraction_peak_is_the_store_it_returns(self):
        """``store_from_records`` runs while the collector archive is
        alive, so whatever it allocates beyond the store it returns
        adds to a cold run's peak.  It keys its dedupe table on the
        prefix and then the path (no key tuple per record), drops that
        table before the store is built, and the store defers its link
        tables to first use: at ``--small`` seed 7 the traced peak
        stays within a fifth of the returned store above it (the
        per-record key tuples and the eager link tables put it at
        almost half)."""
        config = PipelineConfig(dataset=small_config(seed=7))
        archive = run_pipeline(config, targets=("archive",)).value("archive")
        store_from_records(archive.records())  # first-run allocations
        # Collect first and keep the collector off inside the window,
        # so it holds the extraction's allocations alone.
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = store_from_records(archive.records())
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if gc_was_enabled:
                gc.enable()
        assert len(result.store) == result.stats.observations > 0
        kept = after - before
        assert peak - after <= kept // 5, (peak - after, kept)
