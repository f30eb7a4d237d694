"""Route collectors and their vantage points.

A *collector* (RouteViews' ``route-views6``, RIPE RIS' ``rrc00`` ...)
maintains BGP sessions with a set of *vantage points*: operator ASes
that feed it their routing tables.  The paper's raw material is the
union of the RIB snapshots archived by those collectors.

In this reproduction the vantage points are ASes of the synthetic
topology; a collector reads their converged Loc-RIBs out of a
:class:`~repro.bgp.results.PropagationResult` and archives them as
:class:`~repro.collectors.mrt.TableDumpRecord` lines, exactly the shape
the measurement pipeline would get from ``bgpdump``.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.relationships import AFI
from repro.bgp.results import PropagationResult
from repro.collectors.mrt import TableDumpRecord

#: Default snapshot timestamp: 2010-08-20 00:00:00 UTC, inside the
#: August 2010 measurement window used by the paper.
DEFAULT_TIMESTAMP = 1282262400


@dataclass(frozen=True)
class VantagePoint:
    """One full-feed peering session of a collector.

    Attributes:
        asn: The vantage-point AS.
        peer_ip: Address of the session (synthetic but stable).
        exports_local_pref: Whether the feed exports LOCAL_PREF.  Real
            archives contain a mix; the LocPrf part of the methodology
            can only use feeds where this is True.
        afis: The address families the session carries.
    """

    asn: int
    peer_ip: str
    exports_local_pref: bool = True
    afis: Tuple[AFI, ...] = (AFI.IPV4, AFI.IPV6)

    def carries(self, afi: AFI) -> bool:
        """True when the session carries routes of the given family."""
        return afi in self.afis


#: Collector ids below this bound are reserved for explicitly indexed
#: collectors (``Collector(index=...)``); interned fallback ids start
#: here so the two spaces can never collide.
_EXPLICIT_INDEX_LIMIT = 1024

#: Registration-order identifiers for collector names without an
#: explicit index.  Interning the *full* name guarantees two distinct
#: collectors never share an id (the previous ``len(name) % 16``
#: collided for same-length names such as
#: ``route-views1``/``route-views2``), which in turn keeps the derived
#: session addresses collision-free — but the id then depends on the
#: order collectors were first seen in the process, so reproducible
#: archives (the dataset builder) assign explicit indexes instead.
_collector_ids: Dict[str, int] = {}


def _collector_id(name: str) -> int:
    """A unique, process-stable integer id for a collector name."""
    return _EXPLICIT_INDEX_LIMIT + _collector_ids.setdefault(name, len(_collector_ids))


def _synthetic_peer_ip(collector_index: int, asn: int, afi: AFI, position: int) -> str:
    """Collision-free session addresses for vantage points.

    Each collector id owns a disjoint block (a /16 for IPv4, a /64 for
    IPv6).  Inside the block the offset is the session's registration
    position for IPv4 (4-byte ASNs do not fit 16 bits) and the position
    combined with the vantage ASN for IPv6 (keeping the ASN readable in
    the address); no modulus is applied anywhere, so two distinct
    sessions can never map to the same address — even two sessions of
    the same AS on one collector.  Explicitly indexed collectors get
    fully reproducible addresses; interned ids are deterministic given
    the order collectors are first seen in the process.
    """
    if afi is AFI.IPV4:
        if position >= 2 ** 16:
            raise ValueError(
                "too many vantage points for one synthetic IPv4 collector block"
            )
        base = int(ipaddress.IPv4Address("198.51.100.0")) + collector_index * 2 ** 16
        if base + position >= 2 ** 32:
            raise ValueError("too many collectors for the synthetic IPv4 address plan")
        return str(ipaddress.IPv4Address(base + position))
    if not 0 <= asn < 2 ** 32:
        raise ValueError(f"AS{asn} is not a valid 4-byte AS number")
    base = int(ipaddress.IPv6Address("2001:db8:ffff::")) + (collector_index << 64)
    return str(ipaddress.IPv6Address(base + (position << 32) + asn))


@dataclass
class Collector:
    """A RouteViews / RIPE-RIS style route collector.

    ``index`` pins the collector's synthetic address block.  Collector
    sets meant to produce *reproducible* archives (the dataset builder)
    assign each collector a distinct index; without one, a unique id is
    interned per name in registration order — collision-free within the
    process, but dependent on what was created before.
    """

    name: str
    project: str = "routeviews"
    vantage_points: List[VantagePoint] = field(default_factory=list)
    index: Optional[int] = None

    def __post_init__(self) -> None:
        if self.index is not None and not 0 <= self.index < _EXPLICIT_INDEX_LIMIT:
            raise ValueError(
                f"collector index must be within [0, {_EXPLICIT_INDEX_LIMIT})"
            )

    def add_vantage_point(
        self,
        asn: int,
        peer_ip: Optional[str] = None,
        exports_local_pref: bool = True,
        afis: Tuple[AFI, ...] = (AFI.IPV4, AFI.IPV6),
    ) -> VantagePoint:
        """Register a vantage point feeding this collector."""
        if peer_ip is None:
            collector_id = (
                self.index if self.index is not None else _collector_id(self.name)
            )
            peer_ip = _synthetic_peer_ip(
                collector_id, asn, afis[0], position=len(self.vantage_points)
            )
        vantage = VantagePoint(
            asn=asn, peer_ip=peer_ip, exports_local_pref=exports_local_pref, afis=afis
        )
        self.vantage_points.append(vantage)
        return vantage

    @property
    def vantage_asns(self) -> List[int]:
        """ASNs of all vantage points."""
        return sorted(v.asn for v in self.vantage_points)

    def collect(
        self,
        result: PropagationResult,
        afi: Optional[AFI] = None,
        timestamp: int = DEFAULT_TIMESTAMP,
    ) -> Iterator[TableDumpRecord]:
        """Archive a RIB snapshot from every vantage point.

        Each vantage point contributes its best route for every prefix it
        can reach, restricted to ``afi`` when given.  Records are yielded
        lazily so the archive (or an extraction pass) can consume them in
        a single stream without materializing a per-collector list.
        """
        for vantage in self.vantage_points:
            if vantage.asn not in result.speakers:
                continue
            if afi is not None and not vantage.carries(afi):
                continue
            snapshot = result.snapshot(vantage.asn)
            for route in snapshot.routes(afi):
                if afi is None and not vantage.carries(route.afi):
                    continue
                yield TableDumpRecord.from_route(
                    route,
                    peer_ip=vantage.peer_ip,
                    timestamp=timestamp,
                    collector=self.name,
                    include_local_pref=vantage.exports_local_pref,
                )


def default_collectors(
    vantage_asns: Sequence[int],
    collectors_per_project: int = 2,
    exports_local_pref_fraction: float = 0.7,
) -> List[Collector]:
    """Build a plausible set of collectors over the given vantage ASes.

    Vantage points are distributed round-robin over RouteViews-style and
    RIS-style collectors; a deterministic fraction of the feeds export
    LOCAL_PREF (the rest report 0, as many real feeds do).
    """
    if not vantage_asns:
        raise ValueError("at least one vantage AS is required")
    names = [f"route-views{index or ''}" for index in range(collectors_per_project)]
    names += [f"rrc{index:02d}" for index in range(collectors_per_project)]
    # Explicit indexes make the synthetic peer addresses (and therefore
    # the archived dump files) a pure function of this collector set,
    # independent of any collectors created earlier in the process.
    collectors = [
        Collector(
            name=name,
            project="routeviews" if name.startswith("route-views") else "ris",
            index=position,
        )
        for position, name in enumerate(names)
    ]
    for position, asn in enumerate(vantage_asns):
        collector = collectors[position % len(collectors)]
        exports_local_pref = (position % 10) < int(round(exports_local_pref_fraction * 10))
        collector.add_vantage_point(asn, exports_local_pref=exports_local_pref)
    return collectors
