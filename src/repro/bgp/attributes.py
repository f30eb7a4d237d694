"""BGP path attributes used by the reproduction.

Only the attributes the paper's methodology relies on are modelled:

* ``AS_PATH`` — the sequence of ASes a route advertisement traversed
  (most recent AS first, origin last), including prepending.
* ``COMMUNITIES`` — the (asn, value) tags attached by operators; the
  paper mines these for relationship and traffic-engineering semantics.
* ``LOCAL_PREF`` — the degree of preference an AS assigns to a route;
  combined with communities it forms the paper's "Rosetta Stone".
* ``MED``, ``ORIGIN``, ``NEXT_HOP`` — carried for realism of the MRT
  records and the decision process, but not interpreted by the analysis.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple


class Origin(enum.Enum):
    """BGP ORIGIN attribute."""

    IGP = "IGP"
    EGP = "EGP"
    INCOMPLETE = "INCOMPLETE"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Community(namedtuple("Community", ("asn", "value"))):
    """A single RFC 1997 community value ``asn:value``.

    The tuple ``(asn, value)``, hashed and compared in C; it equals the
    plain int tuple with the same members.  Every way to build one
    validates, as for :class:`~repro.core.relationships.Link`.
    """

    __slots__ = ()

    def __new__(cls, asn: int, value: int) -> "Community":
        if not 0 <= asn <= 0xFFFF_FFFF:
            raise ValueError("community ASN out of range")
        if not 0 <= value <= 0xFFFF:
            raise ValueError("community value out of range")
        return tuple.__new__(cls, (asn, value))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Community":
        return cls(*iterable)

    @classmethod
    def parse(cls, text: str) -> "Community":
        """Parse the textual ``asn:value`` form."""
        try:
            asn_text, value_text = text.strip().split(":")
            return cls(int(asn_text), int(value_text))
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"invalid community {text!r}") from exc

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"


class ASPath:
    """An AS_PATH: neighbour-most AS first, origin AS last.

    The class keeps the raw sequence (with prepending) and offers a
    cleaned view with consecutive duplicates collapsed, which is what the
    topology/link extraction works on.
    """

    __slots__ = ("_hops",)

    def __init__(self, hops: Sequence[int]) -> None:
        hops = tuple(int(h) for h in hops)
        if not hops:
            raise ValueError("an AS path cannot be empty")
        if any(h < 0 for h in hops):
            raise ValueError("AS numbers in a path must be non-negative")
        self._hops = hops

    @property
    def hops(self) -> Tuple[int, ...]:
        """The raw hop sequence, including prepending."""
        return self._hops

    @property
    def origin_as(self) -> int:
        """The AS that originated the route (last hop)."""
        return self._hops[-1]

    def collapsed(self) -> Tuple[int, ...]:
        """Hops with consecutive duplicates (prepending) removed."""
        result: List[int] = []
        for hop in self._hops:
            if not result or result[-1] != hop:
                result.append(hop)
        return tuple(result)

    def links(self) -> List[Tuple[int, int]]:
        """Adjacent AS pairs along the collapsed path, observer-side first."""
        collapsed = self.collapsed()
        return [(collapsed[i], collapsed[i + 1]) for i in range(len(collapsed) - 1)]

    def prepend(self, asn: int, times: int = 1) -> "ASPath":
        """Return a new path with ``asn`` prepended ``times`` times."""
        if times < 1:
            raise ValueError("prepending count must be >= 1")
        asn = int(asn)
        if asn < 0:
            raise ValueError("AS numbers in a path must be non-negative")
        # The existing hops are already validated; bypassing __init__
        # avoids re-validating the whole path on every export event.
        return ASPath.trusted((asn,) * times + self._hops)

    @classmethod
    def trusted(cls, hops: Tuple[int, ...]) -> "ASPath":
        """A path over ``hops`` whose validity the caller guarantees.

        ``hops`` must be a non-empty tuple of non-negative ints, such as
        the hops of an existing path with validated ASNs prepended;
        propagation and archiving build every path this way, so
        re-validating in ``__init__`` would redo that work per route.
        """
        path = cls.__new__(cls)
        path._hops = hops
        return path

    def contains(self, asn: int) -> bool:
        """True if the AS appears anywhere in the path."""
        return asn in self._hops

    def __len__(self) -> int:
        return len(self._hops)

    def __iter__(self):
        return iter(self._hops)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ASPath) and self._hops == other._hops

    def __hash__(self) -> int:
        return hash(self._hops)

    def __str__(self) -> str:
        return " ".join(str(h) for h in self._hops)

    @classmethod
    def parse(cls, text: str) -> "ASPath":
        """Parse a space-separated AS_PATH string (as found in MRT dumps)."""
        hops = [part for part in text.strip().split() if part]
        if not hops:
            raise ValueError("empty AS path string")
        cleaned: List[int] = []
        for hop in hops:
            # AS_SETs ("{64512,64513}") occasionally show up in dumps; the
            # paper's pipeline (and ours) drops the set members and keeps
            # the deterministic part of the path only.
            if hop.startswith("{"):
                break
            cleaned.append(int(hop))
        if not cleaned:
            raise ValueError(f"AS path {text!r} contains no plain AS hops")
        return cls(cleaned)


def merge_communities(
    communities: Tuple[Community, ...], added: Iterable[Community]
) -> Tuple[Community, ...]:
    """``communities`` followed by each of ``added`` not already present.

    The one community merge: the import transform of both engines
    (``BGPSpeaker.imported`` and the ``array`` materializer) and
    :meth:`PathAttributes.add_communities` merge here.
    """
    if not added:
        return communities
    # Tuple membership, not a set: routes carry a handful of communities,
    # and hashing each one costs more than comparing it.
    merged = tuple(communities)
    for community in added:
        if community not in merged:
            merged += (community,)
    return merged


@dataclass(slots=True)
class PathAttributes:
    """The attribute set attached to one route advertisement.

    Slotted: one instance is allocated per import event in the
    propagation simulator, so the per-instance dict would dominate the
    route objects' memory footprint at scale.
    """

    as_path: ASPath
    local_pref: Optional[int] = None
    med: int = 0
    origin: Origin = Origin.IGP
    next_hop: str = ""
    communities: Tuple[Community, ...] = ()

    def with_communities(self, communities: Iterable[Community]) -> "PathAttributes":
        """Return a copy with the communities replaced."""
        return PathAttributes(
            as_path=self.as_path,
            local_pref=self.local_pref,
            med=self.med,
            origin=self.origin,
            next_hop=self.next_hop,
            communities=tuple(communities),
        )

    def add_communities(self, communities: Iterable[Community]) -> "PathAttributes":
        """Return a copy with extra communities appended (duplicates removed)."""
        return self.with_communities(merge_communities(self.communities, communities))

    def communities_of(self, asn: int) -> List[Community]:
        """Communities whose administrator field is ``asn``."""
        return [c for c in self.communities if c.asn == asn]
