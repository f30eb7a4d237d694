"""MRT-like RIB dump records.

RouteViews and RIPE RIS publish BGP table snapshots in the binary MRT
format, which analysis pipelines usually consume through ``bgpdump``'s
pipe-separated text rendering.  This module implements that *text*
rendering — one line per (vantage point, prefix) — plus a parser, so the
measurement pipeline in :mod:`repro.analysis` is written exactly the way
it would be against real ``bgpdump`` output::

    TABLE_DUMP2|1282348800|B|192.0.2.1|64500|2001:db8::/32|64500 64501 64510|IGP|...|300|0|64500:200 64501:100|NAG||

Field order (matching ``bgpdump -m``):

``type|timestamp|flag|peer_ip|peer_as|prefix|as_path|origin|next_hop|local_pref|med|communities|atomic_aggregate|aggregator``

The ``local_pref`` field is *empty* when the vantage feed does not
export LOCAL_PREF (as ``bgpdump`` renders an absent attribute) and
carries the numeric value otherwise — including a genuine ``0``.
Earlier revisions serialized absent LOCAL_PREF as ``0``, which conflated
non-exporting feeds with feeds that export LOCAL_PREF 0; the parser maps
an empty field back to ``None``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.core.relationships import AFI
from repro.bgp.attributes import ASPath, Community, Origin
from repro.bgp.messages import Route
from repro.bgp.prefixes import Prefix

#: The record type emitted for RIB snapshots, as bgpdump does.
TABLE_DUMP2 = "TABLE_DUMP2"


class MRTFormatError(ValueError):
    """Raised when an MRT text line cannot be parsed."""


class TableDumpRecord(NamedTuple):
    """One line of a RIB table dump.

    A tuple, so it is built, hashed and compared in C: a collector
    builds one per archived vantage route.  The record validates
    nothing, so no constructor is trusted over another.

    Attributes:
        timestamp: Unix timestamp of the snapshot.
        peer_ip: Address of the vantage-point peering session.
        peer_as: AS number of the vantage point.
        prefix: The routed prefix.
        as_path: AS path as announced by the vantage point (the vantage
            AS itself is the first hop).
        origin: BGP ORIGIN attribute.
        next_hop: Next hop address (cosmetic in this reproduction).
        local_pref: LOCAL_PREF as reported by the vantage point's feed;
            ``None`` when the feed does not export it (``0`` is a valid
            exported value and is kept distinct from "absent").
        med: Multi-exit discriminator.
        communities: Communities attached to the route.
        collector: Name of the collector that archived the record.
    """

    timestamp: int
    peer_ip: str
    peer_as: int
    prefix: Prefix
    as_path: ASPath
    origin: Origin = Origin.IGP
    next_hop: str = ""
    local_pref: Optional[int] = None
    med: int = 0
    communities: Tuple[Community, ...] = ()
    collector: str = ""

    @property
    def afi(self) -> AFI:
        """Address family of the record's prefix."""
        return self.prefix.afi

    def to_line(self) -> str:
        """Serialize to the bgpdump pipe-separated text form."""
        communities = " ".join(str(c) for c in self.communities)
        fields = [
            TABLE_DUMP2,
            str(self.timestamp),
            "B",
            self.peer_ip,
            str(self.peer_as),
            str(self.prefix),
            str(self.as_path),
            str(self.origin),
            self.next_hop,
            "" if self.local_pref is None else str(self.local_pref),
            str(self.med),
            communities,
            "NAG",
            "",
        ]
        return "|".join(fields)

    @classmethod
    def from_line(cls, line: str, collector: str = "") -> "TableDumpRecord":
        """Parse a bgpdump-style text line."""
        parts = line.rstrip("\n").split("|")
        if len(parts) < 12:
            raise MRTFormatError(f"expected at least 12 fields, got {len(parts)}: {line!r}")
        if parts[0] != TABLE_DUMP2:
            raise MRTFormatError(f"unsupported record type {parts[0]!r}")
        try:
            timestamp = int(parts[1])
            peer_as = int(parts[4])
            prefix = Prefix(parts[5])
            as_path = ASPath.parse(parts[6])
            origin = Origin(parts[7]) if parts[7] else Origin.IGP
            local_pref = int(parts[9]) if parts[9] else None
            med = int(parts[10]) if parts[10] else 0
        except (ValueError, KeyError) as exc:
            raise MRTFormatError(f"malformed record: {line!r}") from exc
        communities: List[Community] = []
        if parts[11]:
            for token in parts[11].split():
                try:
                    communities.append(Community.parse(token))
                except ValueError:
                    # Real dumps contain extended/large communities the
                    # analysis does not interpret; skip them silently.
                    continue
        return cls(
            timestamp=timestamp,
            peer_ip=parts[3],
            peer_as=peer_as,
            prefix=prefix,
            as_path=as_path,
            origin=origin,
            next_hop=parts[8],
            local_pref=local_pref,
            med=med,
            communities=tuple(communities),
            collector=collector,
        )

    @classmethod
    def from_route(
        cls,
        route: Route,
        peer_ip: str,
        timestamp: int,
        collector: str = "",
        include_local_pref: bool = True,
    ) -> "TableDumpRecord":
        """Build the record a collector would archive for a vantage route.

        The AS path archived by the collector starts with the vantage AS
        itself (the route is announced over the collector session with
        the vantage AS prepended); LOCAL_PREF is included only for feeds
        configured to export it, mirroring the mix of feeds found in the
        real archives.  Non-exporting feeds archive an absent (``None``)
        LOCAL_PREF, never a ``0``.  The route's path is valid by
        construction, so the record's is built without re-validating it.
        """
        attributes = route.attributes
        # The fields in declaration order, built by ``tuple.__new__``
        # rather than the generated ``__new__``, which is a Python call.
        return tuple.__new__(
            cls,
            (
                timestamp,
                peer_ip,
                route.holder,
                route.prefix,
                ASPath.trusted(route.full_path()),
                attributes.origin,
                "",
                attributes.local_pref if include_local_pref else None,
                attributes.med,
                attributes.communities,
                collector,
            ),
        )


def write_table_dump(records: Sequence[TableDumpRecord]) -> str:
    """Serialize many records to a text blob (one line each)."""
    return "\n".join(record.to_line() for record in records) + ("\n" if records else "")


def parse_table_dump(text: str, collector: str = "") -> List[TableDumpRecord]:
    """Parse a text blob produced by :func:`write_table_dump`."""
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        records.append(TableDumpRecord.from_line(line, collector=collector))
    return records
