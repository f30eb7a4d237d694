"""Writing and re-loading snapshot directories.

``repro snapshot --output DIR`` persists a synthetic snapshot as the
kind of file tree the paper's pipeline starts from::

    DIR/
      rib-dumps/                 # bgpdump-style text dumps, one per
        <collector>.rib.<date>.txt   # collector snapshot
        projects.json            # collector -> project sidecar
      ground-truth-asrel.txt     # extended dual-stack as-rel format
      irr/
        AS<asn>.txt              # community documentation per AS
      snapshot.json              # manifest (config summary, counts)

:func:`save_snapshot` writes that tree; :func:`load_snapshot` closes
the round trip — the archive, the IRR registry and the ground-truth
graph are reconstructed from the files alone, so ``section3`` and
``figure2`` can run from disk with results identical to the in-memory
snapshot that produced the directory (pinned by
``tests/test_snapshot_roundtrip.py``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

from repro.collectors.archive import CollectorArchive
from repro.core.annotation import ToRAnnotation
from repro.core.relationships import AFI
from repro.datasets.synthetic import SyntheticSnapshot
from repro.irr.registry import IRRRegistry
from repro.topology.graph import ASGraph
from repro.topology.serialization import read_dual_stack, write_dual_stack

MANIFEST_FILENAME = "snapshot.json"
GROUND_TRUTH_FILENAME = "ground-truth-asrel.txt"
RIB_DIRNAME = "rib-dumps"
IRR_DIRNAME = "irr"

#: Bump when the snapshot directory layout changes incompatibly.
SNAPSHOT_FORMAT_VERSION = 1

_IRR_FILE = re.compile(r"^AS(\d+)\.txt$")


class SnapshotFormatError(ValueError):
    """A snapshot directory that cannot be trusted.

    Raised when the manifest is missing or unreadable, written by an
    incompatible format version, or disagrees with what the member
    files actually contain (e.g. a truncated RIB dump).  Each message
    names the offending file and the expected-vs-found state, so a
    corrupted copy fails loudly instead of silently yielding a
    partial — and wrong — measurement.
    """


def save_snapshot(snapshot: SyntheticSnapshot, directory: Path) -> Dict[str, object]:
    """Write a snapshot directory; returns a summary for reporting."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dumps = snapshot.archive.save(directory / RIB_DIRNAME)
    write_dual_stack(snapshot.graph, directory / GROUND_TRUTH_FILENAME)
    irr_dir = directory / IRR_DIRNAME
    irr_dir.mkdir(exist_ok=True)
    for asn, lines in snapshot.registry.documentation_corpus().items():
        (irr_dir / f"AS{asn}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "snapshot_date": snapshot.config.snapshot_date.isoformat(),
        "seed": snapshot.config.seed,
        "total_ases": snapshot.config.topology.total_ases,
        "vantage_points": snapshot.config.vantage_points,
        "collectors": snapshot.archive.collectors,
        "records": len(snapshot.archive),
        "documented_ases": len(snapshot.registry),
    }
    (directory / MANIFEST_FILENAME).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return {"dump_files": dumps, "manifest": manifest}


@dataclass
class LoadedSnapshot:
    """A snapshot reconstructed from a directory on disk.

    Carries exactly what the measurement side needs: the collector
    archive (extraction input), the IRR registry (inference input) and
    the ground-truth graph (validation input).  The manifest is kept
    for reporting and has been validated against the member files by
    :func:`load_snapshot`.
    """

    directory: Path
    archive: CollectorArchive
    registry: IRRRegistry
    ground_truth_graph: Optional[ASGraph] = None
    manifest: Dict[str, object] = field(default_factory=dict)

    def ground_truth_annotation(self, afi: AFI) -> ToRAnnotation:
        """Ground-truth relationship annotation for one plane."""
        if self.ground_truth_graph is None:
            raise ValueError(
                f"{self.directory} has no {GROUND_TRUTH_FILENAME}; "
                "ground truth is unavailable for this snapshot"
            )
        return ToRAnnotation.from_graph(self.ground_truth_graph, afi)


def _load_manifest(directory: Path) -> Dict[str, object]:
    """The validated manifest of a snapshot directory."""
    manifest_path = directory / MANIFEST_FILENAME
    if not manifest_path.exists():
        raise SnapshotFormatError(
            f"{directory} has no {MANIFEST_FILENAME} manifest; refusing to "
            "load an unversioned snapshot directory (re-create it with "
            "'repro snapshot --output')"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotFormatError(
            f"{manifest_path} is not valid JSON ({exc}); the manifest is "
            "corrupt or truncated"
        ) from exc
    if not isinstance(manifest, dict):
        raise SnapshotFormatError(f"{manifest_path} must contain a JSON object")
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{manifest_path} declares format_version {version!r}; this "
            f"build reads version {SNAPSHOT_FORMAT_VERSION}"
        )
    return manifest


def _manifest_count(manifest: Dict[str, object], key: str, directory: Path):
    """An optional integer manifest field, type-checked loudly."""
    value = manifest.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise SnapshotFormatError(
            f"{directory / MANIFEST_FILENAME}: field {key!r} must be an "
            f"integer, got {value!r}"
        )
    return value


def _manifest_collectors(manifest: Dict[str, object], directory: Path):
    """The optional collector list, type-checked loudly."""
    value = manifest.get("collectors")
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise SnapshotFormatError(
            f"{directory / MANIFEST_FILENAME}: field 'collectors' must be a "
            f"list of collector names, got {value!r}"
        )
    return value


def load_snapshot(directory: Path) -> LoadedSnapshot:
    """Load a snapshot directory written by :func:`save_snapshot`.

    The RIB dump directory and the manifest are required, and the
    member files are cross-checked against the manifest (record count,
    collector set, IRR coverage) so that a truncated or partially
    copied directory raises :class:`SnapshotFormatError` instead of
    silently producing a wrong measurement.  The ground truth remains
    optional — its absence only disables validation against it.
    """
    directory = Path(directory)
    rib_dir = directory / RIB_DIRNAME
    if not rib_dir.is_dir():
        raise FileNotFoundError(
            f"{directory} is not a snapshot directory (missing {RIB_DIRNAME}/)"
        )
    manifest = _load_manifest(directory)

    archive = CollectorArchive.load(rib_dir)
    if not len(archive):
        raise ValueError(f"{rib_dir} contains no parseable RIB dump files")
    expected_records = _manifest_count(manifest, "records", directory)
    if expected_records is not None and len(archive) != expected_records:
        raise SnapshotFormatError(
            f"{rib_dir} holds {len(archive)} records but the manifest "
            f"promises {expected_records}; a dump file is truncated or "
            "missing"
        )
    expected_collectors = _manifest_collectors(manifest, directory)
    if expected_collectors is not None and sorted(archive.collectors) != sorted(
        expected_collectors
    ):
        missing = sorted(set(expected_collectors) - set(archive.collectors))
        extra = sorted(set(archive.collectors) - set(expected_collectors))
        problems = []
        if missing:
            problems.append(f"missing dump files for {', '.join(missing)}")
        if extra:
            problems.append(f"unexpected dump files for {', '.join(extra)}")
        raise SnapshotFormatError(
            f"{rib_dir} does not match the manifest's collector set: "
            f"{'; '.join(problems)} (manifest promises "
            f"{sorted(expected_collectors)})"
        )

    registry = IRRRegistry()
    irr_dir = directory / IRR_DIRNAME
    if irr_dir.is_dir():
        for path in sorted(irr_dir.iterdir()):
            match = _IRR_FILE.match(path.name)
            if match is None:
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            registry.register_documentation(int(match.group(1)), lines)
    expected_documented = _manifest_count(manifest, "documented_ases", directory)
    if expected_documented is not None and len(registry) != expected_documented:
        raise SnapshotFormatError(
            f"{irr_dir} documents {len(registry)} ASes but the manifest "
            f"promises {expected_documented}; the IRR corpus is incomplete"
        )

    ground_truth = None
    ground_truth_path = directory / GROUND_TRUTH_FILENAME
    if ground_truth_path.exists():
        try:
            ground_truth = read_dual_stack(ground_truth_path)
        except ValueError as exc:
            raise SnapshotFormatError(
                f"{ground_truth_path} failed to parse ({exc}); the ground "
                "truth file is corrupt"
            ) from exc

    return LoadedSnapshot(
        directory=directory,
        archive=archive,
        registry=registry,
        ground_truth_graph=ground_truth,
        manifest=manifest,
    )
