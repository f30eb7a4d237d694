"""Snapshot-directory round trip: save to disk, load, same report.

Closes the loop the CLI opens with ``repro snapshot``: a directory of
RIB dumps + ground truth + IRR corpus must reconstruct into an archive
and registry that produce a Section-3 report identical to the in-memory
snapshot that wrote the directory.
"""

from __future__ import annotations

import pytest

from repro.analysis.paths import store_from_records
from repro.analysis.stats import compute_section3
from repro.core.relationships import AFI
from repro.datasets.snapshot_io import (
    GROUND_TRUTH_FILENAME,
    MANIFEST_FILENAME,
    load_snapshot,
    save_snapshot,
)


@pytest.fixture(scope="module")
def saved(tmp_path_factory, snapshot):
    directory = tmp_path_factory.mktemp("snapshot-dir")
    summary = save_snapshot(snapshot, directory)
    return directory, summary


class TestSave:
    def test_writes_expected_tree(self, saved):
        directory, summary = saved
        assert (directory / "rib-dumps" / "projects.json").exists()
        assert (directory / GROUND_TRUTH_FILENAME).exists()
        assert list((directory / "irr").glob("AS*.txt"))
        assert (directory / MANIFEST_FILENAME).exists()
        assert summary["manifest"]["records"] > 0


class TestRoundTrip:
    def test_archive_round_trips_record_for_record(self, saved, snapshot):
        directory, _ = saved
        loaded = load_snapshot(directory)
        assert loaded.archive.snapshots() == snapshot.archive.snapshots()
        assert len(loaded.archive) == len(snapshot.archive)
        for collector in snapshot.archive.collectors:
            assert loaded.archive.project_of(collector) == snapshot.archive.project_of(
                collector
            )

    def test_registry_round_trips(self, saved, snapshot):
        directory, _ = saved
        loaded = load_snapshot(directory)
        assert loaded.registry.documented_ases == snapshot.registry.documented_ases
        assert (
            loaded.registry.documentation_corpus()
            == snapshot.registry.documentation_corpus()
        )

    def test_ground_truth_round_trips(self, saved, snapshot):
        directory, _ = saved
        loaded = load_snapshot(directory)
        for afi in (AFI.IPV4, AFI.IPV6):
            assert (
                loaded.ground_truth_annotation(afi).records()
                == snapshot.ground_truth_annotation(afi).records()
            )

    def test_section3_report_identical_from_disk(self, saved, snapshot):
        """The acceptance criterion: a loaded snapshot yields the same
        Section-3 report as the in-memory snapshot that wrote it."""
        directory, _ = saved
        loaded = load_snapshot(directory)
        extraction = store_from_records(loaded.archive.records())
        from_disk = compute_section3(extraction.store, loaded.registry)
        in_memory = compute_section3(snapshot.store, snapshot.registry)
        assert from_disk.report.as_dict() == in_memory.report.as_dict()


class TestLoaderErrors:
    def test_missing_rib_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(tmp_path)

    def test_empty_rib_dir_raises(self, tmp_path):
        (tmp_path / "rib-dumps").mkdir()
        with pytest.raises(ValueError):
            load_snapshot(tmp_path)

    def test_ground_truth_optional(self, saved, tmp_path):
        directory, _ = saved
        import shutil

        partial = tmp_path / "partial"
        shutil.copytree(directory, partial)
        (partial / GROUND_TRUTH_FILENAME).unlink()
        loaded = load_snapshot(partial)
        assert loaded.ground_truth_graph is None
        with pytest.raises(ValueError):
            loaded.ground_truth_annotation(AFI.IPV6)

    def test_missing_manifest_raises(self, saved, tmp_path):
        """Snapshot directories are versioned artifacts now: loading one
        without its manifest must fail loudly, not limp along
        (tests/test_snapshot_io_failures.py covers the other defects)."""
        directory, _ = saved
        import shutil

        from repro.datasets.snapshot_io import SnapshotFormatError

        partial = tmp_path / "no-manifest"
        shutil.copytree(directory, partial)
        (partial / MANIFEST_FILENAME).unlink()
        with pytest.raises(SnapshotFormatError, match="manifest"):
            load_snapshot(partial)
