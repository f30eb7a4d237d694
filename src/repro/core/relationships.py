"""Fundamental relationship and address-family types.

The whole library is built around two observations made by the paper:

* an AS *link* (an edge in the AS-level topology) can carry traffic for
  both IPv4 and IPv6 prefixes, and
* the *business relationship* expressed over that link is not necessarily
  the same for the two address families.  When it differs the link has a
  **hybrid IPv4/IPv6 relationship**.

This module defines the vocabulary used everywhere else:

``AFI``
    The address family (IPv4 or IPv6) of a prefix, path or relationship.

``Relationship``
    The classic Type-of-Relationship (ToR) values: provider-to-customer
    (p2c), customer-to-provider (c2p), peer-to-peer (p2p) and sibling.
    Relationships are *directional*: they are always expressed from the
    point of view of the first AS of an ordered pair ``(a, b)``.

``Link``
    A canonical, undirected AS link.  The canonical orientation places
    the numerically smaller ASN first, and every relationship stored for
    a link is expressed in that canonical orientation.

``RelationshipRecord``
    A single piece of relationship evidence: link + AFI + relationship +
    the source that produced it (communities, LocPrf, a baseline
    inference algorithm, ground truth ...).

``HybridType``
    Classification of the ways the IPv4 and IPv6 relationships of a
    dual-stack link can disagree, mirroring the categories reported in
    Section 3 of the paper.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple


class AFI(enum.Enum):
    """Address Family Identifier: the IP version of a prefix or path."""

    IPV4 = 4
    IPV6 = 6

    # Members are singletons compared by identity; hash them the same
    # way, in C (``Enum.__hash__`` hashes the member name in Python).
    __hash__ = object.__hash__

    @property
    def other(self) -> "AFI":
        """Return the opposite address family."""
        return AFI.IPV6 if self is AFI.IPV4 else AFI.IPV4

    def __str__(self) -> str:  # pragma: no cover - trivial
        return "IPv4" if self is AFI.IPV4 else "IPv6"


class Relationship(enum.Enum):
    """Type of business relationship between two ASes.

    Values are always interpreted *from the first AS of an ordered pair*:
    if the relationship of ``(a, b)`` is ``P2C`` then ``a`` is the
    provider and ``b`` the customer; if it is ``C2P`` then ``a`` is the
    customer of ``b``.
    """

    P2C = "p2c"
    C2P = "c2p"
    P2P = "p2p"
    SIBLING = "s2s"
    UNKNOWN = "unknown"

    __hash__ = object.__hash__  # identity, as for AFI

    @property
    def inverse(self) -> "Relationship":
        """The same relationship seen from the other end of the link."""
        if self is Relationship.P2C:
            return Relationship.C2P
        if self is Relationship.C2P:
            return Relationship.P2C
        return self

    @property
    def is_transit(self) -> bool:
        """True for provider/customer (transit) relationships."""
        return self in (Relationship.P2C, Relationship.C2P)

    @property
    def is_peering(self) -> bool:
        """True for settlement-free peering."""
        return self is Relationship.P2P

    @property
    def is_known(self) -> bool:
        """True unless the relationship is :data:`Relationship.UNKNOWN`."""
        return self is not Relationship.UNKNOWN

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class RelationshipSource(enum.Enum):
    """Provenance of a relationship record."""

    GROUND_TRUTH = "ground-truth"
    COMMUNITIES = "communities"
    LOCPREF = "locpref"
    COMBINED = "combined"
    GAO = "gao"
    DEGREE = "degree"
    MANUAL = "manual"

    __hash__ = object.__hash__  # identity, as for AFI

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Link(namedtuple("Link", ("a", "b"))):
    """A canonical (undirected) AS-level link.

    The canonical orientation stores the numerically smaller ASN in
    :attr:`a`.  Relationships attached to a link are always expressed in
    this orientation, so that two independently constructed ``Link``
    objects for the same pair of ASes compare and hash equal and carry
    comparable relationship values.

    A ``Link`` is the tuple ``(a, b)``: hashing, equality and ordering
    are the tuple's own, run in C, and a link equals the plain int tuple
    with the same members.  Every way to build one validates:
    ``__new__``, ``_make`` and ``_replace`` (which builds through
    ``_make``), and unpickling, which calls ``__new__``.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Link":
        if a == b:
            raise ValueError(f"self-loop link for AS{a} is not allowed")
        if a < 0 or b < 0:
            raise ValueError("AS numbers must be non-negative")
        return tuple.__new__(cls, (a, b) if a < b else (b, a))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "Link":
        return cls(*iterable)

    def other(self, asn: int) -> int:
        """Return the endpoint that is not ``asn``."""
        if asn == self.a:
            return self.b
        if asn == self.b:
            return self.a
        raise ValueError(f"AS{asn} is not an endpoint of {self}")

    def contains(self, asn: int) -> bool:
        """True if ``asn`` is one of the link's endpoints."""
        return asn in (self.a, self.b)

    def oriented(self, first: int) -> Tuple[int, int]:
        """Return the endpoints ordered so that ``first`` comes first."""
        if first == self.a:
            return (self.a, self.b)
        if first == self.b:
            return (self.b, self.a)
        raise ValueError(f"AS{first} is not an endpoint of {self}")

    def relationship_from(self, asn: int, canonical: Relationship) -> Relationship:
        """Re-express a canonically oriented relationship from ``asn``'s view."""
        if asn == self.a:
            return canonical
        if asn == self.b:
            return canonical.inverse
        raise ValueError(f"AS{asn} is not an endpoint of {self}")

    def __str__(self) -> str:
        return f"AS{self.a}-AS{self.b}"


def orient_relationship(a: int, b: int, relationship: Relationship) -> Relationship:
    """Convert a relationship expressed for ordered pair ``(a, b)`` to canonical form.

    The canonical form is the relationship expressed from the smaller ASN.
    ``orient_relationship(3, 1, Relationship.P2C)`` therefore returns
    ``C2P`` (AS1, the canonical first endpoint, is the customer).
    """
    if a == b:
        raise ValueError("cannot orient a relationship on a self-loop")
    if a < b:
        return relationship
    return relationship.inverse


class HybridType(enum.Enum):
    """Classification of hybrid IPv4/IPv6 relationship combinations.

    The categories follow Section 3 of the paper:

    * ``PEER4_TRANSIT6`` — peering for IPv4, transit (p2c or c2p) for
      IPv6; 67 % of the hybrid links observed by the paper.
    * ``PEER6_TRANSIT4`` — peering for IPv6, transit for IPv4; the bulk
      of the remaining hybrid links.
    * ``TRANSIT_REVERSED`` — transit in both planes but with the roles of
      provider and customer swapped (the paper observed a single case).
    * ``OTHER`` — any other disagreement (e.g. involving sibling links).
    * ``NOT_HYBRID`` — the relationships agree.
    """

    PEER4_TRANSIT6 = "p2p-ipv4/transit-ipv6"
    PEER6_TRANSIT4 = "p2p-ipv6/transit-ipv4"
    TRANSIT_REVERSED = "transit-reversed"
    OTHER = "other"
    NOT_HYBRID = "not-hybrid"

    __hash__ = object.__hash__  # identity, as for AFI

    @property
    def is_hybrid(self) -> bool:
        """True when the IPv4 and IPv6 relationships differ."""
        return self is not HybridType.NOT_HYBRID

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


def classify_hybrid(rel_v4: Relationship, rel_v6: Relationship) -> HybridType:
    """Classify the combination of an IPv4 and an IPv6 relationship.

    Both relationships must be expressed in the *same* orientation
    (normally the canonical orientation of the link).  Unknown
    relationships cannot be classified and raise ``ValueError``: the
    caller is expected to restrict itself to links whose relationship is
    known in both planes, as the paper does.
    """
    if not rel_v4.is_known or not rel_v6.is_known:
        raise ValueError("cannot classify hybrid type with unknown relationships")
    if rel_v4 is rel_v6:
        return HybridType.NOT_HYBRID
    if rel_v4.is_peering and rel_v6.is_transit:
        return HybridType.PEER4_TRANSIT6
    if rel_v6.is_peering and rel_v4.is_transit:
        return HybridType.PEER6_TRANSIT4
    if rel_v4.is_transit and rel_v6.is_transit:
        return HybridType.TRANSIT_REVERSED
    return HybridType.OTHER


@dataclass(frozen=True)
class RelationshipRecord:
    """A single observation of a relationship for a link in one AFI."""

    link: Link
    afi: AFI
    relationship: Relationship
    source: RelationshipSource
    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be within [0, 1]")


@dataclass
class DualStackRelationship:
    """The pair of relationships a dual-stack link has in the two planes."""

    link: Link
    ipv4: Relationship = Relationship.UNKNOWN
    ipv6: Relationship = Relationship.UNKNOWN

    def relationship(self, afi: AFI) -> Relationship:
        """Return the relationship for ``afi``."""
        return self.ipv4 if afi is AFI.IPV4 else self.ipv6

    def set_relationship(self, afi: AFI, relationship: Relationship) -> None:
        """Set the relationship for ``afi``."""
        if afi is AFI.IPV4:
            self.ipv4 = relationship
        else:
            self.ipv6 = relationship

    @property
    def both_known(self) -> bool:
        """True when the relationship is known in both planes."""
        return self.ipv4.is_known and self.ipv6.is_known

    @property
    def hybrid_type(self) -> HybridType:
        """Hybrid classification; requires :attr:`both_known`."""
        return classify_hybrid(self.ipv4, self.ipv6)

    @property
    def is_hybrid(self) -> bool:
        """True when both relationships are known and they differ."""
        return self.both_known and self.ipv4 is not self.ipv6


def majority_relationship(
    relationships: Iterable[Relationship],
    min_votes: int = 1,
    min_agreement: float = 0.5,
) -> Optional[Relationship]:
    """Pick the majority relationship from a collection of votes.

    ``UNKNOWN`` votes are ignored.  Returns ``None`` when fewer than
    ``min_votes`` known votes are present or when the most common value
    does not reach ``min_agreement`` (a strict-majority fraction of the
    known votes).  Ties also return ``None``: a tie means the evidence is
    contradictory and the paper's methodology refuses to guess.
    """
    counts: Dict[Relationship, int] = {}
    for rel in relationships:
        counts[rel] = counts.get(rel, 0) + 1
    counts.pop(Relationship.UNKNOWN, None)
    total = sum(counts.values())
    if total < min_votes or total == 0:
        return None
    best = max(counts.values())
    winners = [rel for rel, count in counts.items() if count == best]
    if len(winners) > 1:
        return None  # tie: contradictory evidence
    if best / total < min_agreement:
        return None
    return winners[0]
