"""An archive of collector snapshots, with a pybgpstream-like reader.

The paper's pipeline iterates over daily RIB dumps from several
collectors.  :class:`CollectorArchive` plays that role: it stores the
:class:`~repro.collectors.mrt.TableDumpRecord` lines produced by each
collector for each snapshot date, can persist them to plain-text dump
files, and exposes a flat record iterator similar in spirit to
``pybgpstream.BGPStream`` (filter by project, collector, address family
and date).
"""

from __future__ import annotations

import datetime as _dt
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.relationships import AFI
from repro.collectors.collector import Collector
from repro.collectors.mrt import TableDumpRecord, parse_table_dump, write_table_dump


@dataclass(frozen=True, order=True)
class SnapshotKey:
    """Identifies one archived snapshot: a collector on a given date."""

    date: _dt.date
    collector: str


class CollectorArchive:
    """In-memory (and optionally on-disk) archive of RIB snapshots."""

    def __init__(self) -> None:
        self._snapshots: Dict[SnapshotKey, List[TableDumpRecord]] = defaultdict(list)
        self._projects: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def add_snapshot(
        self,
        collector: str,
        date: _dt.date,
        records: Iterable[TableDumpRecord],
        project: str = "",
    ) -> SnapshotKey:
        """Store the records of one collector snapshot."""
        key = SnapshotKey(date=date, collector=collector)
        self._snapshots[key].extend(records)
        if project:
            self._projects[collector] = project
        return key

    def add_collection(
        self, collector: Collector, date: _dt.date, records: Iterable[TableDumpRecord]
    ) -> SnapshotKey:
        """Store records produced by a :class:`Collector` object."""
        return self.add_snapshot(collector.name, date, records, project=collector.project)

    def extend(self, other: "CollectorArchive") -> None:
        """Append every snapshot of ``other`` after this archive's own
        records of the same key."""
        for key, records in other._snapshots.items():
            self._snapshots[key].extend(records)
        self._projects.update(other._projects)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def collectors(self) -> List[str]:
        """Names of all collectors with at least one snapshot."""
        return sorted({key.collector for key in self._snapshots})

    @property
    def dates(self) -> List[_dt.date]:
        """All snapshot dates present in the archive."""
        return sorted({key.date for key in self._snapshots})

    def project_of(self, collector: str) -> str:
        """The project a collector belongs to ('' when unknown)."""
        return self._projects.get(collector, "")

    def snapshots(self) -> List[SnapshotKey]:
        """All (date, collector) snapshot keys, sorted."""
        return sorted(self._snapshots)

    def records(
        self,
        afi: Optional[AFI] = None,
        collector: Optional[str] = None,
        project: Optional[str] = None,
        date: Optional[_dt.date] = None,
    ) -> Iterator[TableDumpRecord]:
        """Iterate over archived records with pybgpstream-style filters."""
        for key in self.snapshots():
            if collector is not None and key.collector != collector:
                continue
            if date is not None and key.date != date:
                continue
            if project is not None and self.project_of(key.collector) != project:
                continue
            for record in self._snapshots[key]:
                if afi is not None and record.afi is not afi:
                    continue
                yield record

    def record_count(self, afi: Optional[AFI] = None) -> int:
        """Total number of archived records (optionally per family)."""
        return sum(1 for _ in self.records(afi=afi))

    def vantage_points(self, afi: Optional[AFI] = None) -> List[int]:
        """Distinct vantage-point ASNs appearing in the archive."""
        return sorted({record.peer_as for record in self.records(afi=afi)})

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    #: Sidecar file recording the collector -> project mapping, so that
    #: ``records(project=...)`` keeps working after a save/load cycle.
    PROJECTS_FILENAME = "projects.json"

    @staticmethod
    def _dump_filename(key: SnapshotKey) -> str:
        return f"{key.collector}.rib.{key.date.strftime('%Y%m%d')}.txt"

    def save(self, directory: Path) -> List[Path]:
        """Write every snapshot to ``directory`` as a text dump file.

        A ``projects.json`` sidecar preserves the collector -> project
        mapping; :meth:`load` reads it back when present.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for key, records in sorted(self._snapshots.items()):
            path = directory / self._dump_filename(key)
            path.write_text(write_table_dump(records), encoding="utf-8")
            written.append(path)
        (directory / self.PROJECTS_FILENAME).write_text(
            json.dumps(dict(sorted(self._projects.items())), indent=2) + "\n",
            encoding="utf-8",
        )
        return written

    @classmethod
    def load(cls, directory: Path) -> "CollectorArchive":
        """Load an archive previously written by :meth:`save`.

        Collector names may themselves contain dots (``route-views.sydney``),
        so the filename is parsed from the right: everything before the
        trailing ``.rib.YYYYMMDD.txt`` suffix is the collector name.
        """
        directory = Path(directory)
        archive = cls()
        projects: Dict[str, str] = {}
        projects_path = directory / cls.PROJECTS_FILENAME
        if projects_path.exists():
            projects = json.loads(projects_path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.rib.*.txt")):
            collector, ribtag, datestr = path.name[: -len(".txt")].rsplit(".", 2)
            if ribtag != "rib" or not collector:
                continue
            date = _dt.datetime.strptime(datestr, "%Y%m%d").date()
            records = parse_table_dump(path.read_text(encoding="utf-8"), collector=collector)
            archive.add_snapshot(
                collector, date, records, project=projects.get(collector, "")
            )
        return archive

    def __len__(self) -> int:
        return sum(len(records) for records in self._snapshots.values())
