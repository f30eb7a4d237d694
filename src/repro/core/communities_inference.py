"""Relationship inference from the BGP Communities attribute.

This is the first half of the paper's methodology (Section 2).  Operators
tag routes with communities whose documented meaning encodes the
relationship towards the neighbour the route was learned from
("65010:100 — routes learned from customers").  Given

* a set of :class:`~repro.core.observations.ObservedRoute` objects, and
* an :class:`~repro.irr.registry.IRRRegistry` with the documentation of
  (a subset of) the tagging ASes,

the inference walks every observed path, finds the communities whose
administering AS lies on the path, translates them through the registry
and records a *vote* for the relationship of the link between the tagging
AS and the AS it learned the route from.  Votes are aggregated per link
and address family; contradictory evidence is refused rather than
guessed, exactly as a conservative measurement study would.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.annotation import ToRAnnotation
from repro.core.relationships import (
    AFI,
    Link,
    Relationship,
    RelationshipRecord,
    RelationshipSource,
    majority_relationship,
)

if TYPE_CHECKING:
    from repro.core.observations import ObservedRoute
    from repro.core.store import ObservationStore
    from repro.irr.registry import IRRRegistry


class RelationshipVote(NamedTuple):
    """One piece of community-derived evidence about a link.

    A ``NamedTuple`` rather than a dataclass: one vote is created per
    usable community of every tagged observation (tens of thousands per
    snapshot), and tuple construction is several times cheaper than the
    frozen-dataclass ``__setattr__`` dance while keeping value equality
    and named field access.

    Attributes:
        link: The link the vote is about.
        afi: Address family of the observation the vote came from.
        relationship: Canonical-orientation relationship implied by the
            community.
        tagger: The AS whose community produced the vote.
        observed_from: The vantage point of the observation.
    """

    link: Link
    afi: AFI
    relationship: Relationship
    tagger: int
    observed_from: int


@dataclass
class CommunitiesInferenceResult:
    """Outcome of the communities-based inference.

    The result holds the verdicts only; the raw per-link votes they were
    aggregated from are :meth:`CommunitiesInference.collect_votes`'s
    return value, recomputable from the store for debugging.

    Attributes:
        annotations: One :class:`ToRAnnotation` per address family with
            the links whose relationship could be established.
        conflicting_links: Links whose votes disagreed beyond the
            configured threshold and were therefore left unannotated.
    """

    annotations: Dict[AFI, ToRAnnotation]
    conflicting_links: Dict[AFI, List[Link]] = field(default_factory=dict)

    def annotation(self, afi: AFI) -> ToRAnnotation:
        """The annotation for one address family."""
        return self.annotations[afi]

    def coverage(self, afi: AFI, observed_links: Iterable[Link]) -> float:
        """Fraction of ``observed_links`` that received a relationship."""
        observed = set(observed_links)
        if not observed:
            return 0.0
        annotated = set(self.annotations[afi].links())
        return len(observed & annotated) / len(observed)

    def records(self) -> List[RelationshipRecord]:
        """All inferred relationships as flat records."""
        result: List[RelationshipRecord] = []
        for annotation in self.annotations.values():
            result.extend(annotation.records())
        return result


class CommunitiesInference:
    """Infer per-link, per-AFI relationships from community tags.

    Args:
        registry: The IRR registry used to translate community values.
        min_votes: Minimum number of (known) votes required before a link
            is annotated.
        min_agreement: Minimum fraction of the votes that must agree on
            the winning relationship.
    """

    def __init__(
        self,
        registry: IRRRegistry,
        min_votes: int = 1,
        min_agreement: float = 0.75,
    ) -> None:
        if min_votes < 1:
            raise ValueError("min_votes must be at least 1")
        if not 0.0 < min_agreement <= 1.0:
            raise ValueError("min_agreement must be in (0, 1]")
        self.registry = registry
        self.min_votes = min_votes
        self.min_agreement = min_agreement

    # ------------------------------------------------------------------
    # vote extraction
    # ------------------------------------------------------------------
    def votes_for_route(self, route: ObservedRoute) -> List[RelationshipVote]:
        """Extract relationship votes from a single observed route.

        A community ``asn:value`` produces a vote only when

        * ``asn`` is an AS on the path (other than the origin), so that
          "the neighbour the route was learned from" is well defined, and
        * the registry documents ``asn:value`` as a relationship tag.

        The vote describes the relationship between ``asn`` and the next
        hop towards the origin, from ``asn``'s point of view.
        """
        votes: List[RelationshipVote] = []
        for community in route.communities:
            tagger = community.asn
            learned_from = route.next_hop_of(tagger)
            if learned_from is None:
                continue
            relationship = self.registry.relationship_for(community)
            if relationship is None or not relationship.is_known:
                continue
            link = Link(tagger, learned_from)
            # Express the tagger-centric relationship in canonical orientation.
            canonical = relationship if link.a == tagger else relationship.inverse
            votes.append(
                RelationshipVote(
                    link=link,
                    afi=route.afi,
                    relationship=canonical,
                    tagger=tagger,
                    observed_from=route.vantage,
                )
            )
        return votes

    def collect_votes(
        self, store: ObservationStore
    ) -> Dict[Tuple[Link, AFI], List[RelationshipVote]]:
        """Extract and group votes from the observations of a store.

        Equivalent to running :meth:`votes_for_route` over every
        observation, but only the store's community-carrying subset (the
        only observations that can vote) is scanned, and the hot
        quantities are memoized per distinct value instead of being
        recomputed per occurrence: snapshots carry only a few hundred
        distinct community values and a few thousand distinct tagger
        links, so the registry translation and the canonical ``Link``
        construction are looked up, not re-derived.  The grouped votes
        are identical to the naive scan.
        """
        grouped: Dict[Tuple[Link, AFI], List[RelationshipVote]] = defaultdict(list)
        # (community, learned_from) -> everything a vote needs that does
        # not vary per observation: the shared canonical Link, the
        # canonical-orientation relationship and the two grouping keys.
        # None marks communities that can never vote (undocumented or
        # non-relationship values).
        template_memo: Dict[
            Tuple[object, int],
            Optional[Tuple[Link, Relationship, Tuple[Link, AFI], Tuple[Link, AFI]]],
        ] = {}
        missing = object()
        ipv6 = AFI.IPV6
        relationship_for = self.registry.relationship_for
        # The namedtuple's generated ``__new__`` is a Python-level
        # function; ``tuple.__new__`` builds the same vote in C.
        new_vote = tuple.__new__
        for route in store.with_communities:
            path = route.path
            last = len(path) - 1
            afi = route.afi
            is_v6 = afi is ipv6
            vantage = path[0]
            for community in route.communities:
                tagger = community.asn
                # Equivalent to route.next_hop_of(tagger): paths are
                # loop-free, so the first (only) occurrence decides.
                try:
                    index = path.index(tagger)
                except ValueError:
                    continue
                if index == last:
                    continue
                learned_from = path[index + 1]
                template_key = (community, learned_from)
                entry = template_memo.get(template_key, missing)
                if entry is missing:
                    relationship = relationship_for(community)
                    if relationship is None or not relationship.is_known:
                        entry = None
                    else:
                        link = Link(tagger, learned_from)
                        canonical = (
                            relationship if link.a == tagger else relationship.inverse
                        )
                        entry = (link, canonical, (link, AFI.IPV4), (link, ipv6))
                    template_memo[template_key] = entry
                if entry is None:
                    continue
                grouped[entry[3] if is_v6 else entry[2]].append(
                    new_vote(RelationshipVote, (entry[0], afi, entry[1], tagger, vantage))
                )
        return dict(grouped)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def infer(self, store: ObservationStore) -> CommunitiesInferenceResult:
        """Run the full inference over the observations of a store."""
        votes = self.collect_votes(store)
        annotations = {
            AFI.IPV4: ToRAnnotation(AFI.IPV4, source=RelationshipSource.COMMUNITIES),
            AFI.IPV6: ToRAnnotation(AFI.IPV6, source=RelationshipSource.COMMUNITIES),
        }
        conflicts: Dict[AFI, List[Link]] = {AFI.IPV4: [], AFI.IPV6: []}
        for (link, afi), link_votes in votes.items():
            winner = majority_relationship(
                # vote[2] is vote.relationship; index access skips the
                # namedtuple descriptor on this per-vote hot path.
                [vote[2] for vote in link_votes],
                min_votes=self.min_votes,
                min_agreement=self.min_agreement,
            )
            if winner is None:
                conflicts[afi].append(link)
                continue
            annotations[afi].set_canonical(link, winner)
        for afi in conflicts:
            conflicts[afi].sort()
        return CommunitiesInferenceResult(
            annotations=annotations, conflicting_links=conflicts
        )
