"""AS-level topology annotated with per-address-family relationships.

The :class:`ASGraph` is the central data structure of the substrate: an
undirected multigraph-free AS graph whose edges carry *two* relationship
annotations, one for IPv4 and one for IPv6.  A link can exist in only one
of the planes (an IPv6-only peering, say) in which case the relationship
for the other plane is :data:`~repro.core.relationships.Relationship.UNKNOWN`
and the link is not reported as dual-stack.

The graph is deliberately independent of any BGP machinery; the BGP
propagation simulator (:mod:`repro.bgp.propagation`) and the inference
pipeline (:mod:`repro.core`) both operate on it.

Performance notes
-----------------

Relationship queries sit on the hot path of every downstream consumer
(session building, customer-cone computation, the Gao/degree baselines),
so the graph maintains **incrementally updated directed per-AFI
indexes**:

* ``_rel_from[afi][asn][neighbor]`` holds the relationship of the
  ``asn -> neighbor`` edge *from asn's point of view* for every link
  whose relationship is known in ``afi``.  ``relationship()`` is a pair
  of dict lookups; ``providers_of()`` and friends are single O(deg)
  scans of that dict (no :class:`Link` allocation, no re-orientation).
* ``_sorted_cache`` memoizes the sorted tuples the query helpers return
  (neighbor lists, link lists, the ``ases`` view).  The cache is cleared
  wholesale by every mutation — mutations are construction-phase,
  queries dominate afterwards, so coarse invalidation is the right
  trade-off.

Every mutation **must** go through the graph API (:meth:`add_link`,
:meth:`set_relationship`, :meth:`remove_link`).  Code that mutates a
:class:`~repro.core.relationships.DualStackRelationship` record obtained
from :meth:`dual_stack_relationship` directly bypasses the indexes and
must call :meth:`rebuild_indexes` afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.relationships import (
    AFI,
    DualStackRelationship,
    Link,
    Relationship,
    orient_relationship,
)

#: Shared immutable fallback for index lookups of ASes with no links.
_EMPTY: Dict[int, Relationship] = {}


@dataclass(slots=True)
class ASNode:
    """Metadata attached to an AS in the topology.

    Attributes:
        asn: The autonomous system number.
        name: Optional human-readable name (synthetic names look like
            real-world operator names, e.g. ``"AS3356-like"``).
        tier: Coarse position in the transit hierarchy (1 = transit free,
            2 = regional transit, 3 = stub/edge).  The generator fills it
            in; graphs built from external data may leave it at ``0``.
        ipv4: Whether the AS originates/forwards IPv4 prefixes.
        ipv6: Whether the AS originates/forwards IPv6 prefixes.
    """

    asn: int
    name: str = ""
    tier: int = 0
    ipv4: bool = True
    ipv6: bool = False

    def supports(self, afi: AFI) -> bool:
        """True if the AS participates in the given address family."""
        return self.ipv4 if afi is AFI.IPV4 else self.ipv6

    @property
    def dual_stack(self) -> bool:
        """True when the AS participates in both planes."""
        return self.ipv4 and self.ipv6


class ASGraph:
    """Undirected AS graph with per-AFI relationship annotations.

    Relationships are stored in the canonical orientation of each
    :class:`~repro.core.relationships.Link` (smaller ASN first).  All the
    query helpers (``providers_of``, ``customers_of`` ...) re-orient them
    transparently via the directed indexes.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, ASNode] = {}
        self._adjacency: Dict[int, Set[int]] = {}
        self._relationships: Dict[Link, DualStackRelationship] = {}
        # Directed per-AFI relationship index: asn -> neighbor -> the
        # relationship from asn's point of view.  Only known
        # relationships are stored.
        self._rel_from: Dict[AFI, Dict[int, Dict[int, Relationship]]] = {
            AFI.IPV4: {},
            AFI.IPV6: {},
        }
        # Lazily filled cache of sorted tuples handed out by the query
        # helpers; cleared wholesale on every mutation.
        self._sorted_cache: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _index_set(self, link: Link, afi: AFI, canonical: Relationship) -> None:
        """Record the (possibly UNKNOWN) canonical relationship of a link."""
        index = self._rel_from[afi]
        a, b = link.a, link.b
        if canonical.is_known:
            index.setdefault(a, {})[b] = canonical
            index.setdefault(b, {})[a] = canonical.inverse
        else:
            row = index.get(a)
            if row is not None:
                row.pop(b, None)
            row = index.get(b)
            if row is not None:
                row.pop(a, None)

    def rebuild_indexes(self) -> None:
        """Recompute the directed indexes from the relationship records.

        Only needed after mutating a :class:`DualStackRelationship`
        record obtained from :meth:`dual_stack_relationship` directly;
        the graph's own mutators keep the indexes consistent.
        """
        self._rel_from = {AFI.IPV4: {}, AFI.IPV6: {}}
        self._sorted_cache.clear()
        for link, record in self._relationships.items():
            self._index_set(link, AFI.IPV4, record.ipv4)
            self._index_set(link, AFI.IPV6, record.ipv6)

    def _require_as(self, asn: int) -> None:
        if asn not in self._nodes:
            raise KeyError(f"AS{asn} is not in the graph")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_as(
        self,
        asn: int,
        name: str = "",
        tier: int = 0,
        ipv4: bool = True,
        ipv6: bool = False,
    ) -> ASNode:
        """Add an AS (or update its metadata if it already exists)."""
        if asn < 0:
            raise ValueError("AS numbers must be non-negative")
        node = self._nodes.get(asn)
        if node is None:
            node = ASNode(asn=asn, name=name, tier=tier, ipv4=ipv4, ipv6=ipv6)
            self._nodes[asn] = node
            self._adjacency.setdefault(asn, set())
            self._sorted_cache.clear()
        else:
            if name:
                node.name = name
            if tier:
                node.tier = tier
            node.ipv4 = node.ipv4 or ipv4
            node.ipv6 = node.ipv6 or ipv6
        return node

    def add_link(
        self,
        a: int,
        b: int,
        rel_v4: Optional[Relationship] = None,
        rel_v6: Optional[Relationship] = None,
    ) -> Link:
        """Add a link with relationships expressed from ``a``'s point of view.

        ``rel_v4=Relationship.P2C`` means "``a`` is the provider of ``b``
        in the IPv4 plane".  ``None`` leaves the corresponding plane
        untouched (``UNKNOWN`` for a new link), which is how IPv6-only or
        IPv4-only links are represented.

        Endpoints that are not in the graph yet are created with no plane
        participation; the planes they join are derived from the
        relationships set on their links (or from an explicit
        :meth:`add_as` call).
        """
        if a not in self._nodes:
            self.add_as(a, ipv4=False)
        if b not in self._nodes:
            self.add_as(b, ipv4=False)
        link = Link(a, b)
        record = self._relationships.get(link)
        if record is None:
            record = DualStackRelationship(link=link)
            self._relationships[link] = record
            self._adjacency[a].add(b)
            self._adjacency[b].add(a)
        if rel_v4 is not None:
            record.ipv4 = orient_relationship(a, b, rel_v4)
            self._index_set(link, AFI.IPV4, record.ipv4)
            self._nodes[a].ipv4 = True
            self._nodes[b].ipv4 = True
        if rel_v6 is not None:
            record.ipv6 = orient_relationship(a, b, rel_v6)
            self._index_set(link, AFI.IPV6, record.ipv6)
            self._nodes[a].ipv6 = True
            self._nodes[b].ipv6 = True
        self._sorted_cache.clear()
        return link

    def set_relationship(
        self, a: int, b: int, afi: AFI, relationship: Relationship
    ) -> None:
        """Set the relationship of an existing link for one plane.

        The relationship is expressed from ``a``'s point of view.
        Setting :data:`Relationship.UNKNOWN` removes the link from the
        given plane (this is how the synthetic peering disputes model two
        ASes de-peering for IPv6 only).
        """
        link = Link(a, b)
        record = self._relationships.get(link)
        if record is None:
            raise KeyError(f"link {link} is not in the graph")
        canonical = orient_relationship(a, b, relationship)
        record.set_relationship(afi, canonical)
        self._index_set(link, afi, canonical)
        self._sorted_cache.clear()

    def remove_link(self, a: int, b: int, recompute_planes: bool = False) -> None:
        """Remove a link entirely (both planes).

        The endpoints' plane-participation flags (``ipv4`` / ``ipv6``)
        are **not** touched by default, even when the removed link was
        the AS's only link in a plane — participation may have been
        declared explicitly through :meth:`add_as` and the graph cannot
        tell the two apart.  Pass ``recompute_planes=True`` to re-derive
        both endpoints' flags from their remaining link relationships
        (any explicitly declared, link-less participation is lost).
        """
        link = Link(a, b)
        if link not in self._relationships:
            raise KeyError(f"link {link} is not in the graph")
        del self._relationships[link]
        adjacency = self._adjacency.get(a)
        if adjacency is not None:
            adjacency.discard(b)
        adjacency = self._adjacency.get(b)
        if adjacency is not None:
            adjacency.discard(a)
        self._index_set(link, AFI.IPV4, Relationship.UNKNOWN)
        self._index_set(link, AFI.IPV6, Relationship.UNKNOWN)
        self._sorted_cache.clear()
        if recompute_planes:
            for asn in (a, b):
                node = self._nodes.get(asn)
                if node is None:
                    continue
                node.ipv4 = bool(self._rel_from[AFI.IPV4].get(asn))
                node.ipv6 = bool(self._rel_from[AFI.IPV6].get(asn))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def ases(self) -> List[int]:
        """All AS numbers, sorted."""
        cached = self._sorted_cache.get(("ases",))
        if cached is None:
            cached = tuple(sorted(self._nodes))
            self._sorted_cache[("ases",)] = cached
        return list(cached)

    def node(self, asn: int) -> ASNode:
        """Metadata for one AS."""
        return self._nodes[asn]

    def nodes(self) -> Iterator[ASNode]:
        """Iterate over all AS metadata records."""
        return iter(self._nodes.values())

    def has_link(self, a: int, b: int) -> bool:
        """True if a link between ``a`` and ``b`` exists in any plane."""
        if a == b:
            return False
        return Link(a, b) in self._relationships

    def links(self, afi: Optional[AFI] = None) -> List[Link]:
        """All links, optionally restricted to those present in ``afi``.

        A link is present in a plane when its relationship there is known
        *or* when both endpoints participate in the plane and the
        relationship was explicitly set (possibly to ``UNKNOWN``) — in
        practice the generator and the serializers always set known
        relationships, so "present" boils down to "relationship known".
        """
        cached = self._sorted_cache.get(("links", afi))
        if cached is None:
            if afi is None:
                cached = tuple(sorted(self._relationships))
            else:
                cached = tuple(
                    sorted(
                        link
                        for link, record in self._relationships.items()
                        if record.relationship(afi).is_known
                    )
                )
            self._sorted_cache[("links", afi)] = cached
        return list(cached)

    def dual_stack_links(self) -> List[Link]:
        """Links whose relationship is known in both planes."""
        cached = self._sorted_cache.get(("dual_stack_links",))
        if cached is None:
            cached = tuple(
                sorted(
                    link
                    for link, record in self._relationships.items()
                    if record.both_known
                )
            )
            self._sorted_cache[("dual_stack_links",)] = cached
        return list(cached)

    def relationship(self, a: int, b: int, afi: AFI) -> Relationship:
        """Relationship of the link ``a-b`` in ``afi`` from ``a``'s view.

        Returns ``UNKNOWN`` for absent links so that callers probing
        arbitrary pairs do not need to special-case missing edges.
        """
        row = self._rel_from[afi].get(a)
        if row is None:
            return Relationship.UNKNOWN
        return row.get(b, Relationship.UNKNOWN)

    def dual_stack_relationship(self, a: int, b: int) -> Optional[DualStackRelationship]:
        """The raw per-plane relationship record of a link (canonical view).

        The returned record is **live**: mutating it directly bypasses
        the graph's directed indexes.  Prefer :meth:`set_relationship`;
        if you must mutate records in bulk, call :meth:`rebuild_indexes`
        afterwards.
        """
        return self._relationships.get(Link(a, b))

    def relationships_of(self, asn: int, afi: AFI) -> Mapping[int, Relationship]:
        """``neighbor -> relationship-from-asn`` for ``asn``'s known
        relationships in ``afi``: :meth:`relationship` as one mapping,
        for callers probing many pairs from one AS.

        The mapping is the graph's live index row; read it, do not
        mutate it.
        """
        self._require_as(asn)
        return self._rel_from[afi].get(asn, _EMPTY)

    def oriented_neighbors(self, asn: int, afi: AFI) -> Tuple[Tuple[int, Relationship], ...]:
        """``(neighbor, relationship-from-asn)`` pairs, sorted by neighbor.

        Only neighbors whose relationship is known in ``afi`` are
        returned.  This is the bulk accessor the propagation simulator
        uses to build its per-AFI sessions in one O(deg) pass per AS.
        """
        self._require_as(asn)
        key = ("oriented", afi, asn)
        cached = self._sorted_cache.get(key)
        if cached is None:
            row = self._rel_from[afi].get(asn, _EMPTY)
            cached = tuple(sorted(row.items()))
            self._sorted_cache[key] = cached
        return cached

    def neighbors(self, asn: int, afi: Optional[AFI] = None) -> List[int]:
        """Neighbors of an AS, optionally restricted to one plane."""
        self._require_as(asn)
        key = ("neighbors", afi, asn)
        cached = self._sorted_cache.get(key)
        if cached is None:
            if afi is None:
                cached = tuple(sorted(self._adjacency.get(asn, ())))
            else:
                cached = tuple(sorted(self._rel_from[afi].get(asn, _EMPTY)))
            self._sorted_cache[key] = cached
        return list(cached)

    def degree(self, asn: int, afi: Optional[AFI] = None) -> int:
        """Number of neighbors of an AS (optionally per plane)."""
        self._require_as(asn)
        if afi is None:
            return len(self._adjacency.get(asn, ()))
        return len(self._rel_from[afi].get(asn, _EMPTY))

    # ------------------------------------------------------------------
    # relationship-oriented queries
    # ------------------------------------------------------------------
    def _directed_query(self, asn: int, afi: AFI, wanted: Relationship) -> List[int]:
        """Neighbors whose relationship from ``asn``'s view is ``wanted``.

        Raises ``KeyError`` for ASes that are not in the graph — probing
        must never mutate the adjacency structures (the seed
        implementation's ``defaultdict`` silently grew them).
        """
        self._require_as(asn)
        key = (wanted, afi, asn)
        cached = self._sorted_cache.get(key)
        if cached is None:
            row = self._rel_from[afi].get(asn, _EMPTY)
            cached = tuple(sorted(n for n, rel in row.items() if rel is wanted))
            self._sorted_cache[key] = cached
        return list(cached)

    def providers_of(self, asn: int, afi: AFI) -> List[int]:
        """ASes that provide transit to ``asn`` in the given plane."""
        return self._directed_query(asn, afi, Relationship.C2P)

    def customers_of(self, asn: int, afi: AFI) -> List[int]:
        """ASes that buy transit from ``asn`` in the given plane."""
        return self._directed_query(asn, afi, Relationship.P2C)

    def peers_of(self, asn: int, afi: AFI) -> List[int]:
        """Settlement-free peers of ``asn`` in the given plane."""
        return self._directed_query(asn, afi, Relationship.P2P)

    def transit_free(self, asn: int, afi: AFI) -> bool:
        """True when the AS has no providers in the given plane."""
        return not self.providers_of(asn, afi)

    def customer_cone(self, asn: int, afi: AFI) -> Set[int]:
        """All ASes reachable from ``asn`` by repeatedly following p2c links.

        The root itself is included, matching the usual CAIDA definition
        of the customer cone.
        """
        self._require_as(asn)
        index = self._rel_from[afi]
        cone: Set[int] = {asn}
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            for neighbor, rel in index.get(current, _EMPTY).items():
                if rel is Relationship.P2C and neighbor not in cone:
                    cone.add(neighbor)
                    frontier.append(neighbor)
        return cone

    # ------------------------------------------------------------------
    # plane-level views
    # ------------------------------------------------------------------
    def ases_in(self, afi: AFI) -> List[int]:
        """ASes that participate in the given plane.

        Not cached: plane flags live on the (mutable) :class:`ASNode`
        records and are occasionally toggled directly by the generator.
        """
        return sorted(asn for asn, node in self._nodes.items() if node.supports(afi))

    def dual_stack_ases(self) -> List[int]:
        """ASes that participate in both planes."""
        return sorted(asn for asn, node in self._nodes.items() if node.dual_stack)

    def copy(self) -> "ASGraph":
        """An independent copy: every mutable table is duplicated.

        Nodes, adjacency sets, relationship records and index rows are
        new objects, in the same insertion order as this graph's; the
        immutable :class:`Link` and :class:`Relationship` values and the
        memoized tuples are shared.  No mutation of the copy through the
        graph API reaches this graph, or the other way round.
        """
        result = ASGraph()
        result._nodes = {
            asn: ASNode(node.asn, node.name, node.tier, node.ipv4, node.ipv6)
            for asn, node in self._nodes.items()
        }
        result._adjacency = {asn: set(peers) for asn, peers in self._adjacency.items()}
        result._relationships = {
            link: DualStackRelationship(link, record.ipv4, record.ipv6)
            for link, record in self._relationships.items()
        }
        result._rel_from = {
            afi: {asn: dict(row) for asn, row in index.items()}
            for afi, index in self._rel_from.items()
        }
        result._sorted_cache = dict(self._sorted_cache)
        return result

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Coarse size statistics used in reports and tests."""
        return {
            "ases": len(self._nodes),
            "links": len(self._relationships),
            "ipv4_links": len(self.links(AFI.IPV4)),
            "ipv6_links": len(self.links(AFI.IPV6)),
            "dual_stack_links": len(self.dual_stack_links()),
            "ipv6_ases": len(self.ases_in(AFI.IPV6)),
            "dual_stack_ases": len(self.dual_stack_ases()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"ASGraph(ases={stats['ases']}, links={stats['links']}, "
            f"ipv6_links={stats['ipv6_links']}, dual_stack={stats['dual_stack_links']})"
        )
