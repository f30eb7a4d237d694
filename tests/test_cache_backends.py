"""The directory store under the artifact cache, and the cache over it.

The store (:class:`repro.pipeline.artifacts._CacheDirectory`) carries
every safety property the cache relies on: atomic ``put``, an atomic
test-and-set ``put_if_absent`` (the dedupe primitive for concurrent
writers, with an ``O_EXCL`` fallback where hardlinks are unsupported),
truthful ``scan`` sizes, an ``flock`` serializing read-modify-write,
and the aged orphan-temp-file sweep.

On top of it, the ArtifactCache must store/load/verify/stats/prune
correctly, and the hygiene commands must tolerate caches whose advisory
index is stale, missing or written by someone else — sizes always come
from ``stat`` of the files themselves.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import repro.pipeline.artifacts as artifacts_module
from repro.pipeline import ArtifactCache
from repro.pipeline.artifacts import (
    INDEX_FILENAME,
    LOCK_FILENAME,
    TEMP_GC_AGE_SECONDS,
    _CacheDirectory,
)

#: The stores the suite runs against: the cache keeps exactly one.
STORES = ("directory",)


@pytest.fixture(params=STORES)
def directory(request, tmp_path):
    return _CacheDirectory(tmp_path / "store")


def stat_of(directory, key):
    """The stat ``scan`` reports for ``key``, or ``None`` when absent."""
    return dict(directory.scan()).get(key)


def race(count, contender):
    """Run ``contender(index)`` on ``count`` threads released together."""
    barrier = threading.Barrier(count)

    def run(index: int) -> None:
        barrier.wait()
        contender(index)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "a contender hung"


class TestConformance:
    def test_get_missing_is_none(self, directory):
        assert directory.get("alpha/missing.pkl") is None
        assert stat_of(directory, "alpha/missing.pkl") is None

    def test_put_get_roundtrip(self, directory):
        directory.put("alpha/a.pkl", b"payload")
        assert directory.get("alpha/a.pkl") == b"payload"
        assert stat_of(directory, "alpha/a.pkl").st_size == len(b"payload")

    def test_put_overwrites(self, directory):
        directory.put("alpha/a.pkl", b"one")
        directory.put("alpha/a.pkl", b"two-longer")
        assert directory.get("alpha/a.pkl") == b"two-longer"
        assert stat_of(directory, "alpha/a.pkl").st_size == len(b"two-longer")

    def test_put_is_atomic(self, directory, monkeypatch):
        """Readers racing an overwrite see the old or the new bytes,
        never a prefix; a write that dies before publishing leaves the
        old bytes and only an invisible temp file behind."""
        old, new = b"o" * 1_000_000, b"n" * 1_000_000
        directory.put("alpha/a.pkl", old)
        seen = set()

        def contender(index: int) -> None:
            for step in range(20):
                if index == 0:
                    directory.put("alpha/a.pkl", new if step % 2 else old)
                else:
                    seen.add(directory.get("alpha/a.pkl"))

        race(3, contender)
        assert seen <= {old, new}

        def crash(src, dst):
            raise OSError(5, "Input/output error")

        directory.put("alpha/a.pkl", old)
        monkeypatch.setattr(artifacts_module.os, "replace", crash)
        with pytest.raises(OSError):
            directory.put("alpha/a.pkl", new)
        assert directory.get("alpha/a.pkl") == old
        assert [key for key, _ in directory.scan()] == ["alpha/a.pkl"]

    def test_put_if_absent_first_wins(self, directory):
        assert directory.put_if_absent("alpha/a.pkl", b"winner")
        assert not directory.put_if_absent("alpha/a.pkl", b"loser")
        assert directory.get("alpha/a.pkl") == b"winner"

    def test_put_if_absent_after_delete_stores_again(self, directory):
        directory.put_if_absent("alpha/a.pkl", b"one")
        assert directory.delete("alpha/a.pkl")
        assert directory.put_if_absent("alpha/a.pkl", b"two")
        assert directory.get("alpha/a.pkl") == b"two"

    def test_delete_reports_existence(self, directory):
        directory.put("alpha/a.pkl", b"x")
        assert directory.delete("alpha/a.pkl")
        assert not directory.delete("alpha/a.pkl")
        assert directory.get("alpha/a.pkl") is None

    def test_list_prefix_and_sorting(self, directory):
        directory.put("beta/b.pkl", b"x")
        directory.put("alpha/a.pkl", b"x")
        directory.put("alpha/a.json", b"x")
        directory.put("top-level.json", b"x")
        assert [key for key, _ in directory.scan()] == [
            "alpha/a.json", "alpha/a.pkl", "beta/b.pkl", "top-level.json",
        ]
        assert [key for key, _ in directory.scan(prefix="alpha/")] == [
            "alpha/a.json", "alpha/a.pkl",
        ]

    def test_touch_bumps_mtime(self, directory):
        directory.put("alpha/a.pkl", b"x")
        # Force a visible clock difference regardless of fs granularity.
        old = stat_of(directory, "alpha/a.pkl").st_mtime - 3600
        os.utime(directory.path("alpha/a.pkl"), (old, old))
        directory.touch("alpha/a.pkl")
        assert stat_of(directory, "alpha/a.pkl").st_mtime > old + 1800

    def test_key_validation(self, directory):
        for bad in ("", "/abs.pkl", "a//b.pkl", "../escape.pkl", "a/../b.pkl",
                    "a\\b.pkl", "./a.pkl", "a/./b.pkl", "."):
            with pytest.raises(ValueError):
                directory.put(bad, b"x")

    def test_scan_matches_list_plus_stat(self, directory):
        directory.put("alpha/a.pkl", b"x" * 10)
        directory.put("alpha/a.json", b"y" * 5)
        directory.put("beta/b.pkl", b"z" * 20)
        scanned = directory.scan()
        assert [key for key, _ in scanned] == ["alpha/a.json", "alpha/a.pkl", "beta/b.pkl"]
        for key, stat in scanned:
            assert stat == directory.path(key).stat()

    def test_list_prefix_is_literal_not_a_pattern(self, directory):
        """Wildcard characters in a prefix must match literally."""
        directory.put("a%b/x.pkl", b"x")
        directory.put("axb/y.pkl", b"y")
        assert [key for key, _ in directory.scan(prefix="a%b/")] == ["a%b/x.pkl"]

    def test_concurrent_put_if_absent_single_winner(self, directory):
        """The dedupe primitive: N racing writers, exactly one victory,
        and the stored bytes are the winner's."""
        results = {}

        def contender(index: int) -> None:
            results[index] = directory.put_if_absent(
                "alpha/contested.pkl", f"writer-{index}".encode()
            )

        race(8, contender)
        winners = [index for index, won in results.items() if won]
        assert len(winners) == 1
        assert directory.get("alpha/contested.pkl") == f"writer-{winners[0]}".encode()

    def test_lock_serializes_read_modify_write(self, directory):
        """Unlocked RMW of one object loses updates; under the
        directory lock every increment must survive."""
        directory.put("counter.json", b"0")

        def bump(_index: int) -> None:
            for _ in range(25):
                with directory.lock():
                    value = int(directory.get("counter.json"))
                    directory.put("counter.json", str(value + 1).encode())

        race(4, bump)
        assert directory.get("counter.json") == b"100"

    def test_busy_lock_times_out_as_oserror(self, directory):
        """A bounded wait on a held lock raises the built-in
        TimeoutError, an OSError the cache's index bookkeeping absorbs."""
        with directory.lock():
            with pytest.raises(TimeoutError):
                with directory.lock(timeout=0.05):
                    pass
        assert issubclass(TimeoutError, OSError)


class TestHardlinkFreeFallback:
    def test_put_if_absent_without_os_link(self, tmp_path, monkeypatch):
        """Filesystems without hardlink support (exFAT, some mounts)
        must keep the single-winner put-if-absent semantics through the
        exclusive-create fallback, also under concurrent writers."""

        def no_link(src, dst, **kwargs):
            raise OSError(1, "Operation not permitted")  # EPERM

        monkeypatch.setattr(artifacts_module.os, "link", no_link)
        cache = ArtifactCache(tmp_path / "store")
        directory = cache._dir
        assert directory.put_if_absent("alpha/a.pkl", b"winner")
        assert not directory.put_if_absent("alpha/a.pkl", b"loser")
        assert directory.get("alpha/a.pkl") == b"winner"
        results = {}

        def contender(index: int) -> None:
            results[index] = directory.put_if_absent(
                "alpha/contested.pkl", f"writer-{index}".encode()
            )

        race(8, contender)
        winners = [index for index, won in results.items() if won]
        assert len(winners) == 1
        assert directory.get("alpha/contested.pkl") == f"writer-{winners[0]}".encode()
        # The ArtifactCache store path (put_if_absent + adoption) works.
        cache.store("beta", "b" * 64, {"x": 1}, code_version="1")
        assert cache.load("beta", "b" * 64)[0] == {"x": 1}


class TestOrphanedTempFileCollection:
    def test_stale_temp_files_are_collected(self, tmp_path):
        """A writer SIGKILLed mid-put leaves a dot-prefixed temp file
        that scan() hides; collect_orphans must remove old ones so a
        budgeted cache cannot leak invisible disk — while in-flight
        (recent) temp files and the lock file are untouched, and
        ``dry_run`` only counts."""
        directory = _CacheDirectory(tmp_path / "store")
        directory.put("alpha/a.pkl", b"x")
        with directory.lock():
            pass  # materialize the lock file
        stage_dir = directory.root / "alpha"
        stale = stage_dir / ".a.pkl.orphan"
        stale.write_bytes(b"big orphan payload")
        old = time.time() - 2 * TEMP_GC_AGE_SECONDS
        os.utime(stale, (old, old))
        fresh = stage_dir / ".b.pkl.inflight"
        fresh.write_bytes(b"in-flight write")
        lock = directory.root / LOCK_FILENAME
        assert lock.exists()

        assert directory.collect_orphans(dry_run=True) == 1
        assert stale.exists()
        assert directory.collect_orphans() == 1
        assert not stale.exists()
        assert fresh.exists()
        assert lock.exists()
        assert directory.get("alpha/a.pkl") == b"x"
        # scan itself stays read-only: no hidden deletion side effects.
        fresh2 = stage_dir / ".c.pkl.orphan"
        fresh2.write_bytes(b"x")
        os.utime(fresh2, (old, old))
        directory.scan()
        assert fresh2.exists()


@pytest.fixture(params=STORES)
def cache(request, tmp_path):
    return ArtifactCache(tmp_path / "store")


class TestArtifactCacheOverBackends:
    def test_store_load_verify(self, cache):
        record = cache.store("alpha", "f" * 64, {"x": 1}, code_version="1")
        assert cache.contains("alpha", "f" * 64)
        loaded = cache.load("alpha", "f" * 64)
        assert loaded[0] == {"x": 1}
        assert loaded[1].payload_sha256 == record.payload_sha256

    def test_concurrent_identical_store_dedupes(self, cache):
        """Two workers publishing the same fingerprint: the second store
        adopts the first write (same payload hash) instead of rewriting."""
        first = cache.store("alpha", "a" * 64, {"x": 1}, code_version="1")
        second = cache.store("alpha", "a" * 64, {"x": 1}, code_version="1")
        assert second.payload_sha256 == first.payload_sha256
        assert second.created_at == first.created_at  # adopted, not rewritten
        assert cache.load("alpha", "a" * 64)[0] == {"x": 1}

    def test_corrupt_entry_is_repaired_by_store(self, cache):
        cache.store("alpha", "a" * 64, {"x": 1}, code_version="1")
        cache.payload_path("alpha", "a" * 64).write_bytes(b"corrupted!")
        assert cache.load("alpha", "a" * 64) is None
        cache.store("alpha", "a" * 64, {"x": 2}, code_version="1")
        assert cache.load("alpha", "a" * 64)[0] == {"x": 2}

    def test_stats_and_prune(self, cache):
        cache.store("alpha", "a" * 64, b"x" * 100, code_version="1")
        cache.store("beta", "b" * 64, b"y" * 1000, code_version="1")
        stats = cache.stats()
        assert stats.entries == 2
        assert set(stats.per_stage) == {"alpha", "beta"}
        assert stats.total_bytes > 1100  # payloads + sidecars, stat'd
        report = cache.prune(max_bytes=0)
        assert report.remaining_entries == 0
        assert cache.stats().entries == 0

    def test_entries_listing(self, cache):
        cache.store("alpha", "a" * 64, b"x", code_version="1")
        cache.store("alpha", "b" * 64, b"x", code_version="1")
        assert cache.entries() == {"alpha": ["a" * 64, "b" * 64]}


class TestStaleIndexTolerance:
    """`repro cache stats|prune` must survive advisory-index rot
    (entries for artifacts that no longer exist, artifacts the index
    never heard of, missing sidecars) with true stat-based sizes."""

    def test_index_entries_for_missing_artifacts_are_ignored(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("alpha", "a" * 64, b"x" * 100, code_version="1")
        index = {
            "layout_version": 1,
            "entries": {f"ghost/{'0' * 64}": 1.0, f"alpha/{'a' * 64}": 2.0},
        }
        (tmp_path / INDEX_FILENAME).write_text(json.dumps(index))
        stats = cache.stats()
        assert stats.entries == 1
        assert "ghost" not in stats.per_stage
        report = cache.prune(max_bytes=0)  # must not crash on the ghost
        assert report.remaining_entries == 0

    def test_artifacts_unknown_to_index_get_statted_sizes(self, tmp_path):
        """An artifact written by another process (index never updated)
        is sized by stat, not treated as zero bytes."""
        cache = ArtifactCache(tmp_path)
        cache.store("alpha", "a" * 64, b"x" * 500, code_version="1")
        (tmp_path / INDEX_FILENAME).unlink()  # the whole index is lost
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.per_stage["alpha"]["bytes"] >= 500
        assert stats.total_bytes >= 500

    def test_payload_without_sidecar_is_still_counted(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("alpha", "a" * 64, b"x" * 300, code_version="1")
        cache.meta_path("alpha", "a" * 64).unlink()
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.per_stage["alpha"]["bytes"] >= 300
        # And pruning the sidecar-less entry works.
        report = cache.prune(max_bytes=0)
        assert report.remaining_entries == 0

    def test_cli_stats_on_non_database_file_errors_cleanly(self, tmp_path, capsys):
        """A regular file in place of the cache directory gets the CLI's
        clean error contract from the hygiene commands, and is refused
        before anything (index, lock, temp file) is written beside it."""
        from repro.cli import main

        bogus = tmp_path / "notes.txt"
        bogus.write_text("not a database")
        assert main(["cache", "stats", "--cache-dir", str(bogus)]) == 2
        assert "cannot open cache" in capsys.readouterr().err
        prune = ["cache", "prune", "--max-bytes", "0", "--cache-dir", str(bogus)]
        assert main(prune) == 2
        assert "cannot open cache" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["notes.txt"]
        assert bogus.read_text() == "not a database"
