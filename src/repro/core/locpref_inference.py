"""Relationship inference from the Local Preference attribute.

This is the second half of the paper's methodology.  LOCAL_PREF usually
obeys ``customer > peer > provider``, but the numeric values are
operator-specific and routinely overridden for traffic engineering, so a
raw LocPrf value says nothing by itself.  The paper's trick — the
"Rosetta Stone" — is to *calibrate* each vantage point's LocPrf values
against the relationships already established from its communities:

1. For every vantage AS, collect the routes whose first-hop relationship
   is known from that AS's own relationship communities **and** that
   carry no traffic-engineering communities.  These routes map a LocPrf
   value to a relationship.
2. Keep only LocPrf values that map consistently to a single
   relationship (ambiguous values are dropped).
3. Apply the mapping to the remaining routes of the same vantage point
   (again skipping routes with traffic-engineering communities), which
   yields relationships for first-hop links that communities alone did
   not cover.

The class also exposes the two ablation knobs evaluated in the
integration tests (ablation A1): disabling the communities validation (step 1-2 replaced by a
rank-based guess) and disabling the traffic-engineering filter.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.annotation import ToRAnnotation
from repro.core.relationships import (
    AFI,
    Link,
    Relationship,
    RelationshipSource,
    majority_relationship,
)

if TYPE_CHECKING:
    from repro.core.observations import ObservedRoute
    from repro.core.store import ObservationStore
    from repro.irr.registry import IRRRegistry


@dataclass
class LocPrefMapping:
    """The calibrated LocPrf → relationship mapping of one vantage AS.

    Attributes:
        vantage: The vantage-point AS the mapping belongs to.
        mapping: Validated ``local_pref value -> relationship`` entries.
        ambiguous_values: LocPrf values discarded because they were seen
            with more than one communities-derived relationship.
        samples: Number of calibration routes that contributed.
    """

    vantage: int
    mapping: Dict[int, Relationship] = field(default_factory=dict)
    ambiguous_values: Set[int] = field(default_factory=set)
    samples: int = 0

    def relationship_for(self, local_pref: int) -> Optional[Relationship]:
        """Relationship a LocPrf value maps to (``None`` when unvalidated)."""
        return self.mapping.get(local_pref)


@dataclass
class LocPrefInferenceResult:
    """Outcome of the LocPrf-based inference.

    Attributes:
        annotations: Per-AFI annotations of first-hop links.
        mappings: The per-vantage Rosetta-Stone mappings used.
        filtered_traffic_engineering: Number of observations skipped
            because they carried traffic-engineering communities.
        unmapped_observations: Number of observations whose LocPrf value
            had no validated mapping.
    """

    annotations: Dict[AFI, ToRAnnotation]
    mappings: Dict[int, LocPrefMapping] = field(default_factory=dict)
    filtered_traffic_engineering: int = 0
    unmapped_observations: int = 0

    def annotation(self, afi: AFI) -> ToRAnnotation:
        """The annotation for one address family."""
        return self.annotations[afi]


class LocPrefInference:
    """Infer first-hop relationships from calibrated LOCAL_PREF values.

    Args:
        registry: IRR registry used both to read the vantage AS's own
            relationship communities (calibration) and to recognise
            traffic-engineering communities (filtering).
        validate_with_communities: When False the Rosetta-Stone
            calibration is replaced by the naive rank heuristic (highest
            observed value = customer, middle = peer, lowest = provider).
            This is ablation A1, checked by
            ``test_validated_locpref_at_least_as_accurate_as_naive`` in
            ``tests/test_integration_pipeline.py``.
        filter_traffic_engineering: When False routes carrying
            traffic-engineering communities are *not* excluded, letting
            TE-tuned LocPrf values pollute both calibration and
            application.
        min_calibration_samples: Minimum number of calibration routes a
            (vantage, value) pair needs before it is trusted.
    """

    def __init__(
        self,
        registry: IRRRegistry,
        validate_with_communities: bool = True,
        filter_traffic_engineering: bool = True,
        min_calibration_samples: int = 1,
    ) -> None:
        self.registry = registry
        self.validate_with_communities = validate_with_communities
        self.filter_traffic_engineering = filter_traffic_engineering
        self.min_calibration_samples = min_calibration_samples

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _te_checker(self):
        """A route -> "carries a traffic-engineering community" predicate.

        Memoized per distinct community value: snapshots carry few
        distinct values but each appears on thousands of routes, so one
        checker instance (one memo) should be shared across a whole
        calibration/application pass.
        """
        memo: Dict[object, bool] = {}
        is_te = self.registry.is_traffic_engineering

        def has_te(route: ObservedRoute) -> bool:
            for community in route.communities:
                try:
                    flag = memo[community]
                except KeyError:
                    flag = memo[community] = is_te(community)
                if flag:
                    return True
            return False

        return has_te

    def _first_hop_checker(self):
        """A route -> first-hop-relationship resolver, per the vantage's tags.

        Memoized per distinct community value, like :meth:`_te_checker`.
        """
        memo: Dict[object, Optional[Relationship]] = {}
        relationship_for = self.registry.relationship_for

        def first_hop_relationship(route: ObservedRoute) -> Optional[Relationship]:
            if len(route.path) < 2:
                return None
            vantage = route.vantage
            votes: List[Relationship] = []
            for community in route.communities:
                if community.asn != vantage:
                    continue
                try:
                    relationship = memo[community]
                except KeyError:
                    relationship = relationship_for(community)
                    if relationship is not None and not relationship.is_known:
                        relationship = None
                    memo[community] = relationship
                if relationship is not None:
                    votes.append(relationship)
            if len(votes) == 1:  # the common case; unanimity is trivial
                return votes[0]
            return majority_relationship(votes, min_votes=1, min_agreement=1.0)

        return first_hop_relationship

    def _te_flags(self, routes: List[ObservedRoute]) -> List[bool]:
        """Whether each route is excluded by the traffic-engineering filter."""
        if not self.filter_traffic_engineering:
            return [False] * len(routes)
        has_te = self._te_checker()
        return [has_te(route) for route in routes]

    # ------------------------------------------------------------------
    # calibration (the Rosetta Stone)
    # ------------------------------------------------------------------
    def calibrate(self, store: ObservationStore) -> Dict[int, LocPrefMapping]:
        """Build per-vantage LocPrf → relationship mappings.

        Calibrates from the store's LOCAL_PREF-carrying subset; every
        vantage of the store gets a mapping (possibly empty).
        """
        routes = store.with_local_pref
        return self._calibrate_store(store, routes, self._te_flags(routes))

    def _calibrate_store(
        self,
        store: ObservationStore,
        routes: List[ObservedRoute],
        te_flags: List[bool],
    ) -> Dict[int, LocPrefMapping]:
        """Calibrate from ``routes`` (LOCAL_PREF-carrying) and their TE
        flags, one grouping pass, vantages in the store's first-seen
        order."""
        by_vantage: Dict[int, List[Tuple[ObservedRoute, bool]]] = {
            vantage: [] for vantage in store.by_vantage
        }
        for route, excluded in zip(routes, te_flags):
            by_vantage[route.vantage].append((route, excluded))
        mappings: Dict[int, LocPrefMapping] = {}
        first_hop_relationship = self._first_hop_checker()
        for vantage, pairs in by_vantage.items():
            mapping = LocPrefMapping(vantage=vantage)
            if self.validate_with_communities:
                self._calibrate_pairs(mapping, pairs, first_hop_relationship)
            else:
                self._calibrate_by_rank(mapping, [route for route, _ in pairs])
            mappings[vantage] = mapping
        return mappings

    def _calibrate_pairs(
        self,
        mapping: LocPrefMapping,
        pairs: Iterable[Tuple[ObservedRoute, bool]],
        first_hop_relationship,
    ) -> None:
        """Calibrate from (LOCAL_PREF-carrying route, TE-excluded) pairs."""
        value_votes: Dict[int, Dict[Relationship, int]] = defaultdict(lambda: defaultdict(int))
        for route, excluded in pairs:
            if excluded:
                continue
            relationship = first_hop_relationship(route)
            if relationship is None:
                continue
            value_votes[route.local_pref][relationship] += 1
            mapping.samples += 1
        for value, votes in value_votes.items():
            total = sum(votes.values())
            if total < self.min_calibration_samples:
                continue
            if len(votes) == 1:
                mapping.mapping[value] = next(iter(votes))
            else:
                mapping.ambiguous_values.add(value)

    def _calibrate_by_rank(
        self, mapping: LocPrefMapping, routes: List[ObservedRoute]
    ) -> None:
        """Naive calibration used when communities validation is disabled.

        Assumes the conventional ordering holds and that the vantage uses
        at most three values: the highest seen is customer, the lowest is
        provider, anything in between is peer.  This is exactly the kind
        of assumption the paper warns produces artifacts.
        """
        values: Set[int] = set()
        for route in routes:
            if route.local_pref is not None:
                values.add(route.local_pref)
                mapping.samples += 1
        if not values:
            return
        ordered = sorted(values, reverse=True)
        mapping.mapping[ordered[0]] = Relationship.P2C
        if len(ordered) > 1:
            mapping.mapping[ordered[-1]] = Relationship.C2P
        for value in ordered[1:-1]:
            mapping.mapping[value] = Relationship.P2P

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def infer(self, store: ObservationStore) -> LocPrefInferenceResult:
        """Run calibration then apply the mappings to all observations.

        Walks only the store's LOCAL_PREF-carrying subset and evaluates
        the traffic-engineering filter once per route, for calibration
        and application alike.
        """
        routes = store.with_local_pref
        te_flags = self._te_flags(routes)
        mappings = self._calibrate_store(store, routes, te_flags)
        annotations = {
            AFI.IPV4: ToRAnnotation(AFI.IPV4, source=RelationshipSource.LOCPREF),
            AFI.IPV6: ToRAnnotation(AFI.IPV6, source=RelationshipSource.LOCPREF),
        }
        votes: Dict[Tuple[Link, AFI], List[Relationship]] = defaultdict(list)
        filtered = 0
        unmapped = 0
        # The vote a route casts is a pure function of (vantage, first
        # hop, LOCAL_PREF value, AFI) once the mappings are fixed, and a
        # snapshot has only a few hundred distinct such keys for tens of
        # thousands of routes — memoize the outcome per key.
        outcome_memo: Dict[Tuple[int, int, Optional[int], AFI], Tuple] = {}
        for route, excluded in zip(routes, te_flags):
            path = route.path
            if len(path) < 2:
                continue
            if excluded:
                filtered += 1
                continue
            key = (route.vantage, path[1], route.local_pref, route.afi)
            outcome = outcome_memo.get(key)
            if outcome is None:
                mapping = mappings.get(route.vantage)
                relationship = (
                    None if mapping is None else mapping.relationship_for(route.local_pref)
                )
                if mapping is None:
                    outcome = ("uncalibrated",)
                elif relationship is None:
                    outcome = ("unmapped",)
                else:
                    link = Link(route.vantage, path[1])
                    canonical = (
                        relationship if link.a == route.vantage else relationship.inverse
                    )
                    outcome = ("vote", (link, route.afi), canonical)
                outcome_memo[key] = outcome
            tag = outcome[0]
            if tag == "vote":
                votes[outcome[1]].append(outcome[2])
            elif tag == "unmapped":
                unmapped += 1
        for (link, afi), link_votes in votes.items():
            winner = majority_relationship(link_votes, min_votes=1, min_agreement=0.75)
            if winner is not None:
                annotations[afi].set_canonical(link, winner)
        return LocPrefInferenceResult(
            annotations=annotations,
            mappings=mappings,
            filtered_traffic_engineering=filtered,
            unmapped_observations=unmapped,
        )
