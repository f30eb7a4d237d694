"""The artifact cache's files, and the cache operations over them.

:class:`repro.pipeline.ArtifactCache` keeps every entry as a
``<stage>/<fingerprint>.pkl`` + ``.json`` pair and carries every safety
property the pipeline relies on: atomic writes (temp file +
``os.replace``), key validation, truthful ``stat``-based listings, the
aged orphan-temp-file sweep, and lock-free concurrent stores of one
fingerprint (every writer writes the same bytes).

On top of them the cache must store/load/verify/stats/prune correctly,
and the hygiene commands must tolerate caches an older layout filled —
with a leftover ``cache-index.json`` and ``.cache.lock`` — and entries
missing their sidecar: sizes always come from ``stat`` of the files
themselves.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

import repro.pipeline.artifacts as artifacts_module
from repro.pipeline import ArtifactCache
from repro.pipeline.artifacts import TEMP_GC_AGE_SECONDS


@pytest.fixture()
def cache(tmp_path):
    return ArtifactCache(tmp_path / "store")


def stat_of(cache, key):
    """The stat ``_scan`` reports for ``key``, or ``None`` when absent."""
    return dict(cache._scan()).get(key)


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
    def test_get_missing_is_none(self, cache):
        assert cache._read("alpha/missing.pkl") is None
        assert stat_of(cache, "alpha/missing.pkl") is None

    def test_put_get_roundtrip(self, cache):
        cache._write("alpha/a.pkl", b"payload")
        assert cache._read("alpha/a.pkl") == b"payload"
        assert stat_of(cache, "alpha/a.pkl").st_size == len(b"payload")

    def test_put_overwrites(self, cache):
        cache._write("alpha/a.pkl", b"one")
        cache._write("alpha/a.pkl", b"two-longer")
        assert cache._read("alpha/a.pkl") == b"two-longer"
        assert stat_of(cache, "alpha/a.pkl").st_size == len(b"two-longer")

    def test_put_is_atomic(self, cache, monkeypatch):
        """Readers racing an overwrite see the old or the new bytes,
        never a prefix; a write that dies before publishing leaves the
        old bytes and nothing visible behind."""
        old, new = b"o" * 1_000_000, b"n" * 1_000_000
        cache._write("alpha/a.pkl", old)
        seen = set()

        def contender(index: int) -> None:
            for step in range(20):
                if index == 0:
                    cache._write("alpha/a.pkl", new if step % 2 else old)
                else:
                    seen.add(cache._read("alpha/a.pkl"))

        race(3, contender)
        assert seen <= {old, new}

        def crash(src, dst):
            raise OSError(5, "Input/output error")

        cache._write("alpha/a.pkl", old)
        monkeypatch.setattr(artifacts_module.os, "replace", crash)
        with pytest.raises(OSError):
            cache._write("alpha/a.pkl", new)
        assert cache._read("alpha/a.pkl") == old
        assert [key for key, _ in cache._scan()] == ["alpha/a.pkl"]

    def test_delete_reports_existence(self, cache):
        cache._write("alpha/a.pkl", b"x")
        assert cache._delete("alpha/a.pkl")
        assert not cache._delete("alpha/a.pkl")
        assert cache._read("alpha/a.pkl") is None

    def test_scan_lists_every_visible_key_sorted(self, cache):
        cache._write("beta/b.pkl", b"x")
        cache._write("alpha/a.pkl", b"x")
        cache._write("alpha/a.json", b"x")
        cache._write("top-level.json", b"x")
        assert [key for key, _ in cache._scan()] == [
            "alpha/a.json", "alpha/a.pkl", "beta/b.pkl", "top-level.json",
        ]

    def test_touch_bumps_mtime(self, cache):
        cache.store("alpha", "a" * 64, b"x", code_version="1")
        payload = cache.payload_path("alpha", "a" * 64)
        # Force a visible clock difference regardless of fs granularity.
        old = payload.stat().st_mtime - 3600
        os.utime(payload, (old, old))
        cache._touch("alpha", "a" * 64)
        assert payload.stat().st_mtime > old + 1800

    def test_key_validation(self, cache):
        for bad in ("", "/abs.pkl", "a//b.pkl", "../escape.pkl", "a/../b.pkl",
                    "a\\b.pkl", "./a.pkl", "a/./b.pkl", "."):
            with pytest.raises(ValueError):
                cache._write(bad, b"x")

    def test_scan_matches_list_plus_stat(self, cache):
        cache._write("alpha/a.pkl", b"x" * 10)
        cache._write("alpha/a.json", b"y" * 5)
        cache._write("beta/b.pkl", b"z" * 20)
        scanned = cache._scan()
        assert [key for key, _ in scanned] == ["alpha/a.json", "alpha/a.pkl", "beta/b.pkl"]
        for key, stat in scanned:
            assert stat == cache._path(key).stat()


class TestOrphanedTempFileCollection:
    def test_stale_temp_files_are_collected(self, cache):
        """A writer SIGKILLed mid-write leaves a dot-prefixed temp file
        that _scan() hides; _collect_orphans must remove old ones so a
        budgeted cache cannot leak invisible disk — while in-flight
        (recent) temp files are untouched, and ``dry_run`` only
        counts."""
        cache._write("alpha/a.pkl", b"x")
        stage_dir = cache.root / "alpha"
        stale = stage_dir / ".a.pkl.orphan"
        stale.write_bytes(b"big orphan payload")
        old = time.time() - 2 * TEMP_GC_AGE_SECONDS
        os.utime(stale, (old, old))
        fresh = stage_dir / ".b.pkl.inflight"
        fresh.write_bytes(b"in-flight write")

        assert cache._collect_orphans(dry_run=True) == 1
        assert stale.exists()
        assert cache._collect_orphans() == 1
        assert not stale.exists()
        assert fresh.exists()
        assert cache._read("alpha/a.pkl") == b"x"
        # _scan itself stays read-only: no hidden deletion side effects.
        fresh2 = stage_dir / ".c.pkl.orphan"
        fresh2.write_bytes(b"x")
        os.utime(fresh2, (old, old))
        cache._scan()
        assert fresh2.exists()


class TestArtifactCacheOverBackends:
    def test_store_load_verify(self, cache):
        record = cache.store("alpha", "f" * 64, {"x": 1}, code_version="1")
        assert cache.contains("alpha", "f" * 64)
        loaded = cache.load("alpha", "f" * 64)
        assert loaded[0] == {"x": 1}
        assert loaded[1].payload_sha256 == record.payload_sha256

    def test_concurrent_identical_store_dedupes(self, cache):
        """Eight writers storing one fingerprint at once need no lock:
        they write the same payload bytes, each file is replaced
        atomically, and afterwards the entry verifies with no temp file
        left behind."""
        records = {}

        def contender(index: int) -> None:
            records[index] = cache.store("alpha", "a" * 64, {"x": 1}, code_version="1")

        race(8, contender)
        assert len({record.payload_sha256 for record in records.values()}) == 1
        value, record = cache.load("alpha", "a" * 64)
        assert value == {"x": 1}
        assert record.payload_sha256 == records[0].payload_sha256
        assert [path.name for path in cache.root.rglob(".*")] == []
        assert [key for key, _ in cache._scan()] == [
            f"alpha/{'a' * 64}.json", f"alpha/{'a' * 64}.pkl",
        ]

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
    """`repro cache stats|prune` must survive what older layouts and
    crashes leave behind (an access index, a lock file, missing
    sidecars) with true stat-based sizes."""

    @pytest.mark.parametrize(
        "index_bytes",
        [
            json.dumps(
                {
                    "layout_version": 1,
                    "entries": {f"ghost/{'0' * 64}": 1.0, f"alpha/{'a' * 64}": 2.0},
                }
            ).encode("utf-8"),
            b"\xff\xfe broken",
        ],
        ids=["json", "non-utf8"],
    )
    def test_parent_layout_leftovers_are_inert(self, tmp_path, index_bytes):
        """Caches filled by the layout that kept a ``cache-index.json``
        and a ``.cache.lock`` beside the entries stay usable: loads
        verify, stats counts only artifacts, and pruning to zero evicts
        every entry without tripping over the leftovers."""
        cache = ArtifactCache(tmp_path)
        cache.store("alpha", "a" * 64, b"x" * 500, code_version="1")
        cache.store("beta", "b" * 64, b"y" * 50, code_version="1")
        (tmp_path / "cache-index.json").write_bytes(index_bytes)
        (tmp_path / ".cache.lock").touch()

        assert cache.load("alpha", "a" * 64)[0] == b"x" * 500
        stats = cache.stats()
        assert stats.entries == 2
        assert set(stats.per_stage) == {"alpha", "beta"}
        assert stats.total_bytes == sum(
            cache.payload_path(stage, fp).stat().st_size
            + cache.meta_path(stage, fp).stat().st_size
            for stage, fp in (("alpha", "a" * 64), ("beta", "b" * 64))
        )
        report = cache.prune(max_bytes=0)
        assert report.remaining_entries == 0
        assert cache.stats().entries == 0

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

    def test_cli_stats_on_a_regular_file_errors_cleanly(self, tmp_path, capsys):
        """A regular file in place of the cache directory gets the CLI's
        clean error contract from the hygiene commands, and is refused
        before anything (a stage directory, a temp file) is written
        beside it."""
        from repro.cli import main

        bogus = tmp_path / "notes.txt"
        bogus.write_text("not a cache directory")
        assert main(["cache", "stats", "--cache-dir", str(bogus)]) == 2
        assert "cannot open cache" in capsys.readouterr().err
        prune = ["cache", "prune", "--max-bytes", "0", "--cache-dir", str(bogus)]
        assert main(prune) == 2
        assert "cannot open cache" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["notes.txt"]
        assert bogus.read_text() == "not a cache directory"
