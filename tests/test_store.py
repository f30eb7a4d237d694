"""The indexed ObservationStore pinned to the frozen seed pipeline,
plus the store's index invariants.

The store is the only input of the measurement layer.  These tests pin
its results, from the extraction counters through the communities and
LocPrf evidence to the Section-3 report, on two differently seeded
snapshots.  ``tests/fixtures/store_golden_small.json`` holds what the
retired seed pipeline (one list re-scan per stage) computed for them:
the reports and counters as values, the observations, votes and
annotations as digests (see ``tests/golden.py``).

Regenerate (only on purpose, and say why in CHANGES.md)::

    PYTHONPATH=src python tests/test_store.py
"""

import gc
import inspect
import tracemalloc

import pytest

from golden import canonical, digest, load, write
from repro.analysis.paths import store_from_records
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

FIXTURE = "store_golden_small.json"
SEEDS = (7, 13)
AFIS = (AFI.IPV4, AFI.IPV6)


def golden_entry(snapshot) -> dict:
    """What the fixture records for one snapshot, from the live store."""
    registry = snapshot.registry
    live = store_from_records(snapshot.archive.records())
    section3 = compute_section3(live.store, registry)
    votes = CommunitiesInference(registry).collect_votes(live.store)
    inference = section3.inference
    return {
        "section3": section3.report.as_dict(),
        "extraction_stats": canonical(live.stats),
        "observations_sha256": digest(live.observations),
        "votes": {
            "links": len(votes),
            "votes": sum(map(len, votes.values())),
            "sha256": digest(votes),
        },
        "communities_sha256": {
            afi.name: digest(inference.communities.annotation(afi).records())
            for afi in AFIS
        },
        "locpref_sha256": {
            afi.name: digest(inference.locpref.annotation(afi).records())
            for afi in AFIS
        },
    }


@pytest.fixture(scope="module", params=SEEDS, ids=[f"seed{seed}" for seed in SEEDS])
def seeded_snapshot(request):
    """Two differently seeded small snapshots (built once per module),
    with their fixture entry."""
    return build_snapshot(small_config(seed=request.param)), load(FIXTURE)[
        f"seed{request.param}"
    ]


class TestGoldenEquivalence:
    def test_reference_pipeline_matches_store_pipeline(self, seeded_snapshot):
        snapshot, expected = seeded_snapshot
        registry = snapshot.registry
        fast = compute_section3(snapshot.store, registry)
        assert fast.report.as_dict() == expected["section3"]
        # Below the report: the inference evidence of the seed scans.
        votes = CommunitiesInference(registry).collect_votes(snapshot.store)
        assert digest(votes) == expected["votes"]["sha256"]
        for afi in AFIS:
            assert (
                digest(fast.inference.communities.annotation(afi).records())
                == expected["communities_sha256"][afi.name]
            )
            assert (
                digest(fast.inference.locpref.annotation(afi).records())
                == expected["locpref_sha256"][afi.name]
            )

    def test_reference_extraction_matches_live(self, seeded_snapshot):
        snapshot, expected = seeded_snapshot
        live = store_from_records(snapshot.archive.records())
        assert digest(live.observations) == expected["observations_sha256"]
        assert digest(live.store.observations) == expected["observations_sha256"]
        assert canonical(live.stats) == expected["extraction_stats"]


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

    def test_link_scans_keep_nothing_per_path(self):
        """The link set of each plane, the IPv6 visibility index and the
        hybrid path-crossing count read every distinct path's links,
        and keep none of them per path: what the scans leave behind
        (the interned links, the plane sets, the visibility counters)
        grows with the hop pairs, not with the paths.  At ``--small``
        seed 7 the store module retains far fewer blocks than the IPv6
        plane has distinct paths (a per-path link table retains more
        than both planes have)."""
        config = PipelineConfig(dataset=small_config(seed=7))
        store = run_pipeline(config, targets=("store",)).value("store").store
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            store.links(AFI.IPV4)
            store.links(AFI.IPV6)
            store.visibility_index(AFI.IPV6)
            store.paths_crossing_any(store.dual_stack_links(), AFI.IPV6)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        only_store = [tracemalloc.Filter(True, inspect.getsourcefile(ObservationStore))]
        retained = sum(
            stat.count_diff
            for stat in after.filter_traces(only_store).compare_to(
                before.filter_traces(only_store), "lineno"
            )
        )
        assert 0 < retained < store.distinct_path_count(AFI.IPV6), retained


if __name__ == "__main__":
    print(
        write(
            FIXTURE,
            {
                f"seed{seed}": golden_entry(build_snapshot(small_config(seed=seed)))
                for seed in SEEDS
            },
        )
    )
