"""Snapshot-directory failure modes: corrupt input must fail loudly.

A snapshot directory is an interchange artifact — it gets copied,
archived and hand-edited.  ``load_snapshot`` therefore cross-checks the
member files against the manifest and raises
:class:`~repro.datasets.snapshot_io.SnapshotFormatError` with a message naming the
defect; none of these cases may come back as a silently partial (and
wrong) archive/registry.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.datasets.snapshot_io import (
    GROUND_TRUTH_FILENAME,
    IRR_DIRNAME,
    MANIFEST_FILENAME,
    RIB_DIRNAME,
    SNAPSHOT_FORMAT_VERSION,
    SnapshotFormatError,
    load_snapshot,
    save_snapshot,
)


@pytest.fixture(scope="module")
def intact(tmp_path_factory, snapshot):
    directory = tmp_path_factory.mktemp("snapshot-io") / "intact"
    save_snapshot(snapshot, directory)
    return directory


@pytest.fixture()
def broken(intact, tmp_path):
    """A private copy of the intact directory, free to corrupt."""
    copy = tmp_path / "broken"
    shutil.copytree(intact, copy)
    return copy


def _edit_manifest(directory, **changes):
    path = directory / MANIFEST_FILENAME
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.update(changes)
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestManifestDefects:
    def test_missing_manifest(self, broken):
        (broken / MANIFEST_FILENAME).unlink()
        with pytest.raises(SnapshotFormatError, match="manifest"):
            load_snapshot(broken)

    def test_unparseable_manifest(self, broken):
        (broken / MANIFEST_FILENAME).write_text("{truncated", encoding="utf-8")
        with pytest.raises(SnapshotFormatError, match="not valid JSON"):
            load_snapshot(broken)

    def test_manifest_must_be_an_object(self, broken):
        (broken / MANIFEST_FILENAME).write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(SnapshotFormatError, match="JSON object"):
            load_snapshot(broken)

    def test_future_format_version(self, broken):
        _edit_manifest(broken, format_version=SNAPSHOT_FORMAT_VERSION + 1)
        with pytest.raises(SnapshotFormatError, match="format_version"):
            load_snapshot(broken)

    def test_missing_format_version(self, broken):
        path = broken / MANIFEST_FILENAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["format_version"]
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(SnapshotFormatError, match="format_version"):
            load_snapshot(broken)

    def test_wrong_typed_record_count(self, broken):
        """Valid JSON with a corrupt value must still fail as a
        SnapshotFormatError naming the field, not a bare TypeError."""
        _edit_manifest(broken, records="100")
        with pytest.raises(SnapshotFormatError, match="'records'"):
            load_snapshot(broken)

    def test_wrong_typed_collectors(self, broken):
        _edit_manifest(broken, collectors=5)
        with pytest.raises(SnapshotFormatError, match="'collectors'"):
            load_snapshot(broken)

    def test_wrong_typed_documented_ases(self, broken):
        _edit_manifest(broken, documented_ases=[1])
        with pytest.raises(SnapshotFormatError, match="'documented_ases'"):
            load_snapshot(broken)


class TestMemberFileDefects:
    def test_truncated_rib_dump(self, broken):
        """Cutting a dump file in half drops records; the manifest's
        record count catches it."""
        dumps = sorted((broken / RIB_DIRNAME).glob("*.txt"))
        assert dumps
        victim = dumps[0]
        lines = victim.read_text(encoding="utf-8").splitlines()
        victim.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        with pytest.raises(SnapshotFormatError, match="truncated or missing"):
            load_snapshot(broken)

    def test_deleted_rib_dump(self, broken):
        dumps = sorted((broken / RIB_DIRNAME).glob("*.txt"))
        dumps[0].unlink()
        with pytest.raises(SnapshotFormatError):
            load_snapshot(broken)

    def test_missing_irr_corpus(self, broken):
        """The manifest promises documented ASes; an absent corpus would
        silently disable the Communities inference."""
        shutil.rmtree(broken / IRR_DIRNAME)
        with pytest.raises(SnapshotFormatError, match="IRR corpus"):
            load_snapshot(broken)

    def test_deleted_irr_member_file(self, broken):
        members = sorted((broken / IRR_DIRNAME).glob("AS*.txt"))
        assert members
        members[0].unlink()
        with pytest.raises(SnapshotFormatError, match="IRR corpus"):
            load_snapshot(broken)

    def test_corrupt_ground_truth(self, broken):
        (broken / GROUND_TRUTH_FILENAME).write_text(
            "1|2|not-a-relationship|x\n", encoding="utf-8"
        )
        with pytest.raises(SnapshotFormatError, match="ground.?truth"):
            load_snapshot(broken)


class TestIntactStillLoads:
    def test_intact_directory_loads(self, intact, snapshot):
        loaded = load_snapshot(intact)
        assert len(loaded.archive) == len(snapshot.archive)
        assert loaded.manifest["format_version"] == SNAPSHOT_FORMAT_VERSION

    def test_absent_ground_truth_is_still_optional(self, broken):
        (broken / GROUND_TRUTH_FILENAME).unlink()
        assert load_snapshot(broken).ground_truth_graph is None
