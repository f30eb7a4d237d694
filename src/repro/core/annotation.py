"""Type-of-Relationship annotations for a single address family.

A :class:`ToRAnnotation` is the object every relationship-producing and
relationship-consuming component exchanges: a mapping from canonical
:class:`~repro.core.relationships.Link` to
:class:`~repro.core.relationships.Relationship` for one address family,
together with the helpers needed to treat it as an annotated graph
(neighbour queries, customer cones, valley-free reachability ...).

Producers: the ground-truth topology, the Communities/LocPrf inference
(:mod:`repro.core.combined_inference`) and
:func:`repro.core.correction.plane_agnostic_annotation`.  Consumers:
hybrid detection, valley analysis, customer-tree metrics and the
Figure-2 correction experiment.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.relationships import (
    AFI,
    Link,
    Relationship,
    RelationshipRecord,
    RelationshipSource,
    orient_relationship,
)


class ToRAnnotation:
    """Relationship annotation of the links of one address-family plane."""

    def __init__(
        self,
        afi: AFI,
        relationships: Optional[Mapping[Link, Relationship]] = None,
        source: RelationshipSource = RelationshipSource.MANUAL,
    ) -> None:
        self.afi = afi
        self.source = source
        self._relationships: Dict[Link, Relationship] = {}
        self._adjacency: Dict[int, Set[int]] = defaultdict(set)
        if relationships:
            for link, relationship in relationships.items():
                self.set(link.a, link.b, relationship)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def set(self, a: int, b: int, relationship: Relationship) -> None:
        """Set the relationship of link ``a-b`` as seen from ``a``."""
        link = Link(a, b)
        self._relationships[link] = orient_relationship(a, b, relationship)
        self._adjacency[link.a].add(link.b)
        self._adjacency[link.b].add(link.a)

    def set_canonical(self, link: Link, relationship: Relationship) -> None:
        """Set the relationship of a link already in canonical orientation."""
        self._relationships[link] = relationship
        self._adjacency[link.a].add(link.b)
        self._adjacency[link.b].add(link.a)

    def remove(self, a: int, b: int) -> None:
        """Remove a link from the annotation."""
        link = Link(a, b)
        if link in self._relationships:
            del self._relationships[link]
            self._adjacency[link.a].discard(link.b)
            self._adjacency[link.b].discard(link.a)

    def update(self, other: "ToRAnnotation", overwrite: bool = True) -> None:
        """Merge another annotation into this one.

        ``overwrite=False`` keeps existing entries and only fills gaps,
        which is how LocPrf-derived relationships complement (but never
        override) Communities-derived ones.
        """
        if other.afi is not self.afi:
            raise ValueError("cannot merge annotations of different address families")
        for link, relationship in other.items():
            if not overwrite and link in self._relationships:
                continue
            self.set_canonical(link, relationship)

    def copy(self) -> "ToRAnnotation":
        """An independent copy of this annotation."""
        return ToRAnnotation(self.afi, dict(self._relationships), source=self.source)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._relationships)

    def __contains__(self, link: Link) -> bool:
        return link in self._relationships

    def items(self) -> Iterator[Tuple[Link, Relationship]]:
        """Iterate over (link, canonical relationship) pairs."""
        return iter(self._relationships.items())

    def links(self) -> List[Link]:
        """All annotated links, sorted."""
        return sorted(self._relationships)

    @property
    def ases(self) -> List[int]:
        """All ASes appearing in the annotation."""
        return sorted(asn for asn, neighbors in self._adjacency.items() if neighbors)

    def get(self, a: int, b: int) -> Relationship:
        """Relationship of ``a-b`` from ``a``'s point of view (UNKNOWN if absent)."""
        if a == b:
            return Relationship.UNKNOWN
        link = Link(a, b)
        canonical = self._relationships.get(link, Relationship.UNKNOWN)
        if not canonical.is_known:
            return Relationship.UNKNOWN
        return link.relationship_from(a, canonical)

    def get_canonical(self, link: Link) -> Relationship:
        """Canonical relationship of a link (UNKNOWN if absent)."""
        return self._relationships.get(link, Relationship.UNKNOWN)

    def neighbors(self, asn: int) -> List[int]:
        """All annotated neighbours of an AS."""
        return sorted(self._adjacency.get(asn, ()))

    def providers_of(self, asn: int) -> List[int]:
        """Providers of an AS according to the annotation."""
        return [n for n in self.neighbors(asn) if self.get(asn, n) is Relationship.C2P]

    def customers_of(self, asn: int) -> List[int]:
        """Customers of an AS according to the annotation."""
        return [n for n in self.neighbors(asn) if self.get(asn, n) is Relationship.P2C]

    def peers_of(self, asn: int) -> List[int]:
        """Peers of an AS according to the annotation."""
        return [n for n in self.neighbors(asn) if self.get(asn, n) is Relationship.P2P]

    def records(self) -> List[RelationshipRecord]:
        """Export as a list of :class:`RelationshipRecord` objects."""
        return [
            RelationshipRecord(link=link, afi=self.afi, relationship=rel, source=self.source)
            for link, rel in sorted(self._relationships.items())
        ]

    # ------------------------------------------------------------------
    # comparisons
    # ------------------------------------------------------------------
    def agreement_with(self, other: "ToRAnnotation") -> Dict[str, int]:
        """Compare against another annotation over the common links.

        Returns counts of links that agree, disagree and are only present
        in one of the two annotations.
        """
        agree = disagree = 0
        mine = set(self._relationships)
        theirs = set(other._relationships)
        for link in mine & theirs:
            if self._relationships[link] is other._relationships[link]:
                agree += 1
            else:
                disagree += 1
        return {
            "common": agree + disagree,
            "agree": agree,
            "disagree": disagree,
            "only_self": len(mine - theirs),
            "only_other": len(theirs - mine),
        }

    def differing_links(self, other: "ToRAnnotation") -> List[Link]:
        """Common links whose relationship differs between the annotations."""
        result = []
        for link in set(self._relationships) & set(other._relationships):
            if self._relationships[link] is not other._relationships[link]:
                result.append(link)
        return sorted(result)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph, afi: AFI) -> "ToRAnnotation":
        """Extract the annotation of one plane from an annotated ASGraph."""
        annotation = cls(afi, source=RelationshipSource.GROUND_TRUTH)
        for link in graph.links(afi):
            record = graph.dual_stack_relationship(link.a, link.b)
            annotation.set_canonical(link, record.relationship(afi))
        return annotation


class ValleyFreeIndex:
    """The known links of an annotation as an integer-indexed valley-free plane.

    ASes are interned to ids ``0 .. n-1`` in :attr:`ToRAnnotation.ases`
    (sorted) order.  Every id has three neighbour lists, one per move of
    the two-state valley-free BFS:

    * ``climb[i]`` — c2p and sibling neighbours: uphill stays uphill;
    * ``turn[i]`` — p2p and p2c neighbours: uphill turns downhill;
    * ``descend[i]`` — p2c and sibling neighbours: downhill stays downhill.

    UNKNOWN links appear in no list (their endpoints still get ids).
    :meth:`relabel` changes one link's relationship in place, rebuilding
    only its two endpoints' lists, so a sweep that flips one link per
    step never re-reads the annotation.
    """

    def __init__(self, annotation: ToRAnnotation) -> None:
        self.ases: List[int] = annotation.ases
        self.ids: Dict[int, int] = {asn: node for node, asn in enumerate(self.ases)}
        # Per id: neighbour id -> relationship seen from this id (known only).
        self._edges: List[Dict[int, Relationship]] = [{} for _ in self.ases]
        for link, relationship in annotation.items():
            if relationship.is_known:
                a, b = self.ids[link.a], self.ids[link.b]
                self._edges[a][b] = relationship
                self._edges[b][a] = relationship.inverse
        self.climb: List[List[int]] = [[] for _ in self.ases]
        self.turn: List[List[int]] = [[] for _ in self.ases]
        self.descend: List[List[int]] = [[] for _ in self.ases]
        for node in range(len(self.ases)):
            self._rebuild(node)

    def _rebuild(self, node: int) -> None:
        climb: List[int] = []
        turn: List[int] = []
        descend: List[int] = []
        for neighbor, relationship in self._edges[node].items():
            if relationship is Relationship.C2P:
                climb.append(neighbor)
            elif relationship is Relationship.P2C:
                turn.append(neighbor)
                descend.append(neighbor)
            elif relationship is Relationship.P2P:
                turn.append(neighbor)
            else:  # SIBLING
                climb.append(neighbor)
                descend.append(neighbor)
        self.climb[node] = climb
        self.turn[node] = turn
        self.descend[node] = descend

    def relabel(self, link: Link, relationship: Relationship) -> None:
        """Give ``link`` the canonical ``relationship`` (UNKNOWN removes it).

        Both endpoints must already have ids (``KeyError`` otherwise):
        a new AS would break the sorted id order, so callers rebuild
        the index from the annotation instead.
        """
        a, b = self.ids[link.a], self.ids[link.b]
        if relationship.is_known:
            self._edges[a][b] = relationship
            self._edges[b][a] = relationship.inverse
        else:
            self._edges[a].pop(b, None)
            self._edges[b].pop(a, None)
        self._rebuild(a)
        self._rebuild(b)

    def distances(self, source: int, targets: Optional[Set[int]] = None) -> List[int]:
        """Shortest valley-free path lengths (in AS hops) from id ``source``.

        Implements the classic two-state BFS over the annotated graph:

        * In the **uphill** state the path may continue over c2p (or
          sibling) links, still climbing, or take a single p2p link or a
          p2c link, which switches it to the downhill state.
        * In the **downhill** state only p2c (or sibling) links may be
          taken.

        Returns one entry per id: the length of the shortest *valid*
        (valley-free) path from ``source``, ``0`` for ``source`` itself
        and ``-1`` when no valley-free path exists.  ``targets`` (ids)
        optionally stops the search after the level on which the last
        of them was reached.
        """
        size = len(self.ases)
        distance = [-1] * size
        distance[source] = 0
        seen_up = bytearray(size)
        seen_down = bytearray(size)
        seen_up[source] = 1
        pending = None
        if targets is not None:
            pending = set(targets)
            pending.discard(source)
        climb, turn, descend = self.climb, self.turn, self.descend
        up: List[int] = [source]
        down: List[int] = []
        depth = 0
        while up or down:
            if pending is not None and not pending:
                break
            depth += 1
            next_up: List[int] = []
            next_down: List[int] = []
            for node in up:
                for neighbor in climb[node]:
                    if not seen_up[neighbor]:
                        seen_up[neighbor] = 1
                        next_up.append(neighbor)
                        if distance[neighbor] < 0:
                            distance[neighbor] = depth
                for neighbor in turn[node]:
                    if not seen_down[neighbor]:
                        seen_down[neighbor] = 1
                        next_down.append(neighbor)
                        if distance[neighbor] < 0:
                            distance[neighbor] = depth
            for node in down:
                for neighbor in descend[node]:
                    if not seen_down[neighbor]:
                        seen_down[neighbor] = 1
                        next_down.append(neighbor)
                        if distance[neighbor] < 0:
                            distance[neighbor] = depth
            if pending is not None:
                pending.difference_update(next_up)
                pending.difference_update(next_down)
            up, down = next_up, next_down
        return distance

    def distances_from(
        self, source: int, targets: Optional[Set[int]] = None
    ) -> Dict[int, int]:
        """:meth:`distances` keyed by ASN, reachable ASes only.

        ``source`` and ``targets`` are ASNs; an AS the index does not
        know reaches only itself.
        """
        node = self.ids.get(source)
        if node is None:
            return {source: 0}
        target_ids = None
        # A target the index does not know is unreachable: search everything.
        if targets is not None and all(asn in self.ids for asn in targets):
            target_ids = {self.ids[asn] for asn in targets}
        ases = self.ases
        return {
            ases[other]: hops
            for other, hops in enumerate(self.distances(node, target_ids))
            if hops >= 0
        }
