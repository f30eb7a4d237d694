"""The collector archive pinned record for record against a fixture.

``tests/fixtures/archive_small_seed7.txt`` holds every record the
``--small`` seed-7 snapshot archives, both address families, as
``write_table_dump`` text under one ``# collector date project`` header
per snapshot.  It pins every archived AS path, LOCAL_PREF and community
byte, so a change in how vantage routes are materialized or archived
that moves a single attribute fails here, under either engine.

Regenerate (only on purpose, and say why in CHANGES.md)::

    PYTHONPATH=src python tests/test_archive_golden.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bgp.attributes import ASPath, Community, PathAttributes
from repro.bgp.messages import Route
from repro.bgp.prefixes import Prefix
from repro.collectors.archive import CollectorArchive
from repro.collectors.mrt import TableDumpRecord, write_table_dump
from repro.core.relationships import Relationship
from repro.datasets.config import small_config
from repro.pipeline import PipelineConfig, PropagationConfig, run_pipeline

FIXTURE = Path(__file__).parent / "fixtures" / "archive_small_seed7.txt"


def archive_text(archive: CollectorArchive) -> str:
    """Every snapshot of ``archive`` as headed ``write_table_dump`` text."""
    blocks = []
    for key in archive.snapshots():
        records = list(archive.records(collector=key.collector, date=key.date))
        project = archive.project_of(key.collector)
        header = f"# {key.collector} {key.date.isoformat()} {project}\n"
        blocks.append(header + write_table_dump(records))
    return "".join(blocks)


def build_archive_text(engine: str = "array") -> str:
    config = PipelineConfig(
        dataset=small_config(seed=7), propagation=PropagationConfig(engine=engine)
    )
    return archive_text(run_pipeline(config, targets=("archive",)).value("archive"))


@pytest.mark.parametrize("engine", ["array", "event"])
def test_archive_matches_fixture(engine: str) -> None:
    assert build_archive_text(engine) == FIXTURE.read_text()


@pytest.mark.parametrize("include_local_pref", [True, False])
def test_from_route_equals_validated_record(include_local_pref: bool) -> None:
    """``from_route`` reuses the route's path without re-validating it;
    the record equals one built through the validating ``ASPath``."""
    prefix = Prefix("3fff:100::/32")
    local = Route.originate(prefix, 64510)
    learned = Route(
        prefix=prefix,
        holder=64500,
        attributes=PathAttributes(
            as_path=ASPath([64501, 64510]),
            local_pref=300,
            communities=(Community(64500, 100), Community(64501, 200)),
        ),
        learned_from=64501,
        learned_relationship=Relationship.P2C,
    )
    for route in (local, learned):
        record = TableDumpRecord.from_route(
            route,
            peer_ip="2001:db8::1",
            timestamp=1282262400,
            collector="rrc00",
            include_local_pref=include_local_pref,
        )
        validated = TableDumpRecord(
            timestamp=1282262400,
            peer_ip="2001:db8::1",
            peer_as=route.holder,
            prefix=prefix,
            as_path=ASPath(list(route.full_path())),
            local_pref=route.local_pref if include_local_pref else None,
            communities=route.communities,
            collector="rrc00",
        )
        assert record == validated
        assert record.to_line() == validated.to_line()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(build_archive_text())
    print(f"wrote {FIXTURE}")
