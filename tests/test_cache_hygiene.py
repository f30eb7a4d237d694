"""Cache hygiene: size accounting, recency, age/LRU eviction.

Sweeps multiply cache entries, so the cache reports its footprint
(:meth:`ArtifactCache.stats`, which deletes nothing) and evicts
(:meth:`ArtifactCache.prune`) — by age, then LRU down to a byte budget,
ordered by each payload's mtime (set by the write, bumped by every
verified read).  Evicting a live artifact is always safe: the next run
recomputes it (a miss, never an error).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.datasets.config import DatasetConfig
from repro.pipeline import ArtifactCache, PipelineConfig, run_pipeline
from repro.topology.config import TopologyConfig


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path)


def _store(cache, stage, seed, payload_size=100):
    fingerprint = f"{seed:064x}"
    cache.store(stage, fingerprint, b"x" * payload_size, code_version="1")
    return fingerprint


def _age(cache, stage, fingerprint, by_seconds):
    """Make an entry look unused for ``by_seconds`` (its payload mtime
    is its last-used time)."""
    old = time.time() - by_seconds
    os.utime(cache.payload_path(stage, fingerprint), (old, old))


class TestStats:
    def test_empty_cache(self, cache):
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.total_bytes == 0
        assert stats.per_stage == {}

    def test_counts_and_bytes_match_disk(self, cache):
        fp_a = _store(cache, "alpha", 1, payload_size=10)
        fp_b = _store(cache, "beta", 2, payload_size=1000)
        stats = cache.stats()
        assert stats.entries == 2
        assert set(stats.per_stage) == {"alpha", "beta"}
        expected_alpha = (
            cache.payload_path("alpha", fp_a).stat().st_size
            + cache.meta_path("alpha", fp_a).stat().st_size
        )
        assert stats.per_stage["alpha"]["bytes"] == expected_alpha
        assert stats.total_bytes == sum(
            bucket["bytes"] for bucket in stats.per_stage.values()
        )
        assert stats.to_dict()["entries"] == 2


class TestRecency:
    def test_read_access_bumps_payload_mtime(self, cache):
        """Warm hits are O(1): a read bumps the payload's mtime, which
        is the entry's last-used time."""
        fp = _store(cache, "alpha", 1)
        payload = cache.payload_path("alpha", fp)
        old = payload.stat().st_mtime - 3600
        os.utime(payload, (old, old))
        cache.load("alpha", fp)
        assert payload.stat().st_mtime > old + 1800
        entry = {e.fingerprint: e for e in cache._scan_entries()}[fp]
        assert entry.last_used > old + 1800


class TestPrune:
    def test_requires_a_bound(self, cache):
        with pytest.raises(ValueError, match="max_bytes"):
            cache.prune()

    @pytest.mark.parametrize(
        "bounds, name",
        [({"max_bytes": -1}, "max_bytes"), ({"max_age_seconds": -1.0}, "max_age_seconds")],
    )
    def test_negative_bounds_rejected(self, cache, bounds, name):
        """A negative bound would read as "evict everything"; it is an
        error instead, and the cache is left untouched.  Zero stays a
        valid (empty-the-cache) bound."""
        fp = _store(cache, "alpha", 1)
        for dry_run in (False, True):
            with pytest.raises(ValueError, match=f"{name} must be >= 0"):
                cache.prune(dry_run=dry_run, **bounds)
        assert cache.contains("alpha", fp)
        zero = {key: 0 for key in bounds}
        assert [e.fingerprint for e in cache.prune(dry_run=True, **zero).removed] == [fp]

    def test_prune_by_age(self, cache):
        fp_old = _store(cache, "alpha", 1)
        fp_new = _store(cache, "alpha", 2)
        _age(cache, "alpha", fp_old, by_seconds=3600)
        report = cache.prune(max_age_seconds=60)
        assert [e.fingerprint for e in report.removed] == [fp_old]
        assert cache.contains("alpha", fp_new)
        assert not cache.contains("alpha", fp_old)

    def test_prune_lru_keeps_recently_used(self, cache):
        fp_cold = _store(cache, "alpha", 1, payload_size=500)
        fp_warm = _store(cache, "beta", 2, payload_size=500)
        # Touch the older entry: it becomes the most recently used.
        cache.load("alpha", fp_cold)
        total = cache.stats().total_bytes
        report = cache.prune(max_bytes=total - 1)
        assert [e.fingerprint for e in report.removed] == [fp_warm]
        assert cache.contains("alpha", fp_cold)
        assert report.remaining_entries == 1
        assert report.remaining_bytes == cache.stats().total_bytes

    def test_prune_to_zero_removes_everything(self, cache):
        _store(cache, "alpha", 1)
        _store(cache, "beta", 2)
        report = cache.prune(max_bytes=0)
        assert report.remaining_entries == 0
        assert cache.stats().entries == 0
        # Emptied stage directories are cleaned up too.
        assert not (cache.root / "alpha").exists()

    def test_dry_run_deletes_nothing(self, cache):
        fp = _store(cache, "alpha", 1)
        report = cache.prune(max_bytes=0, dry_run=True)
        assert report.dry_run
        assert len(report.removed) == 1
        assert cache.contains("alpha", fp)

    def test_report_serializes(self, cache):
        _store(cache, "alpha", 1)
        payload = cache.prune(max_bytes=0).to_dict()
        assert payload["freed_bytes"] > 0
        assert payload["removed"][0]["stage"] == "alpha"


class TestPruneLiveCache:
    def test_pruned_pipeline_cache_recomputes_cleanly(self, tmp_path):
        """Evicting live artifacts is a miss, never an error: the next
        run recomputes the evicted suffix and repairs the cache."""
        config = PipelineConfig(
            dataset=DatasetConfig(
                topology=TopologyConfig(
                    seed=5, tier1_count=3, tier2_count=8, tier3_count=20
                ),
                seed=5,
                vantage_points=4,
            ),
            top=2,
            )
        cold = run_pipeline(config, cache_dir=tmp_path, targets=("section3",))
        reference = cold.value("section3").as_dict()
        cache = ArtifactCache(tmp_path)
        cache.prune(max_bytes=0)
        assert cache.stats().entries == 0
        recomputed = run_pipeline(config, cache_dir=tmp_path, targets=("section3",))
        assert recomputed.cached_stages() == []
        assert recomputed.value("section3").as_dict() == reference


class TestTempFileSweep:
    """Orphaned temp files (crashed writers) are swept by prune and
    surfaced in the report; nothing else deletes them."""

    def _plant_orphan(self, cache, age_seconds=7200.0):
        orphan = cache.root / "alpha" / ".tmp-crashed-writer"
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(b"half-written payload")
        old = time.time() - age_seconds
        os.utime(orphan, (old, old))
        return orphan

    def test_prune_counts_and_removes_aged_orphans(self, cache):
        _store(cache, "alpha", 1)
        orphan = self._plant_orphan(cache)
        report = cache.prune(max_age_seconds=10**9)
        assert report.temp_files_removed == 1
        assert not orphan.exists()
        assert cache.load("alpha", f"{1:064x}") is not None  # live entry kept

    def test_fresh_temp_files_are_left_alone(self, cache):
        """An in-flight write (young temp file) must never be swept."""
        orphan = self._plant_orphan(cache, age_seconds=1.0)
        report = cache.prune(max_age_seconds=10**9)
        assert report.temp_files_removed == 0
        assert orphan.exists()

    def test_stats_leaves_aged_orphans_alone(self, cache):
        """Reporting is read-only: only prune sweeps orphans."""
        _store(cache, "alpha", 1)
        orphan = self._plant_orphan(cache)
        assert cache.stats().entries == 1
        assert orphan.exists()

    def test_dry_run_counts_without_deleting(self, cache):
        orphan = self._plant_orphan(cache)
        report = cache.prune(max_age_seconds=10**9, dry_run=True)
        assert report.temp_files_removed == 1
        assert orphan.exists()

    def test_report_dict_carries_the_count(self, cache):
        self._plant_orphan(cache)
        report = cache.prune(max_age_seconds=10**9)
        assert report.to_dict()["temp_files_removed"] == 1
