"""Routing policies: LOCAL_PREF assignment, community tagging and export rules.

The propagation simulator applies, for every AS, a :class:`RoutingPolicy`
that captures the three policy ingredients the paper's methodology
depends on:

1. **LOCAL_PREF assignment** — the conventional ordering
   ``customer > peer > provider`` (Section 2 of the paper), with per-AS
   numeric schemes and optional traffic-engineering overrides that break
   the ordering for selected prefixes.  The overrides are what the
   paper's "Rosetta Stone" validation has to filter out.

2. **Community tagging** — on import, an AS tags the route with the
   community that encodes the relationship it has with the neighbour the
   route was learned from, plus any traffic-engineering communities
   associated with an override.  The tagging scheme itself lives in
   :mod:`repro.irr`; the policy only needs an object implementing the
   small :class:`CommunityTagger` protocol.

3. **Export filtering** — the Gao–Rexford rules (routes learned from
   peers or providers are only exported to customers), optionally
   *relaxed* for the IPv6 plane on selected adjacencies.  Relaxations are
   what produces the paper's valley paths, some of which are necessary
   for IPv6 reachability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.core.relationships import AFI, Relationship
from repro.bgp.attributes import Community
from repro.bgp.prefixes import Prefix


class CommunityTagger(Protocol):
    """The slice of a community dictionary the routing policy needs."""

    def relationship_communities(self, relationship: Relationship) -> List[Community]:
        """Communities this AS attaches to routes learned over ``relationship``."""
        ...  # pragma: no cover - protocol definition

    def traffic_engineering_communities(self, action: str) -> List[Community]:
        """Communities this AS attaches for a traffic-engineering ``action``."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class LocalPrefScheme:
    """Numeric LOCAL_PREF values an AS uses per relationship type.

    The defaults follow the conventional ordering; the synthetic dataset
    builder varies the absolute numbers per AS (e.g. 900/800/700 vs
    300/200/100) so that the inference cannot simply hard-code values and
    must learn each AS's scheme, exactly as the paper does.
    """

    customer: int = 300
    peer: int = 200
    provider: int = 100
    sibling: int = 250

    def __post_init__(self) -> None:
        if not self.customer > self.peer > self.provider:
            raise ValueError(
                "LOCAL_PREF scheme must satisfy customer > peer > provider"
            )

    def for_relationship(self, relationship: Relationship) -> int:
        """LOCAL_PREF assigned to a route learned over ``relationship``.

        ``relationship`` is expressed from the importing AS's point of
        view: ``P2C`` means the route was learned from a customer.
        """
        if relationship is Relationship.P2C:
            return self.customer
        if relationship is Relationship.P2P:
            return self.peer
        if relationship is Relationship.C2P:
            return self.provider
        if relationship is Relationship.SIBLING:
            return self.sibling
        raise ValueError(f"no LOCAL_PREF defined for relationship {relationship}")

    def relationship_for(self, local_pref: int) -> Relationship:
        """Reverse lookup used by tests and the LocPrf inference oracle."""
        mapping = {
            self.customer: Relationship.P2C,
            self.peer: Relationship.P2P,
            self.provider: Relationship.C2P,
            self.sibling: Relationship.SIBLING,
        }
        return mapping.get(local_pref, Relationship.UNKNOWN)


@dataclass(frozen=True)
class TrafficEngineeringOverride:
    """A non-standard LOCAL_PREF applied to routes from one neighbour.

    Operators routinely de-prefer a congested upstream or prefer a backup
    path for selected prefixes.  Such overrides decouple LOCAL_PREF from
    the relationship and must be detected (through the accompanying
    traffic-engineering communities) and filtered by the inference.

    Attributes:
        neighbor: The neighbour whose routes are affected.
        local_pref: The LOCAL_PREF to apply instead of the scheme value.
        action: Symbolic traffic-engineering action name; the community
            tagger translates it into that AS's TE communities.
        prefixes: Restrict the override to specific prefixes (empty means
            all routes from the neighbour).
    """

    neighbor: int
    local_pref: int
    action: str = "lower-pref"
    prefixes: Tuple[Prefix, ...] = ()

    def applies_to(self, neighbor: int, prefix: Prefix) -> bool:
        """True when the override matches a (neighbour, prefix) pair."""
        if neighbor != self.neighbor:
            return False
        return not self.prefixes or prefix in self.prefixes


def gao_rexford_export_allowed(
    learned_relationship: Optional[Relationship],
    export_relationship: Relationship,
) -> bool:
    """The valley-free export rule.

    ``learned_relationship`` is the importing AS's relationship towards
    the neighbour the route was learned from (``None`` for locally
    originated routes); ``export_relationship`` is its relationship
    towards the neighbour it is about to export to.

    * Locally originated routes and routes learned from customers (and
      siblings) are exported to everyone.
    * Routes learned from peers or providers are exported only to
      customers (and siblings).
    """
    if learned_relationship is None:
        return True
    if learned_relationship in (Relationship.P2C, Relationship.SIBLING):
        return True
    return export_relationship in (Relationship.P2C, Relationship.SIBLING)


@dataclass
class RoutingPolicy:
    """The complete routing policy of one AS.

    Attributes:
        asn: The AS this policy belongs to.
        local_pref: The AS's LOCAL_PREF scheme.
        tagger: Community tagging scheme (``None`` disables tagging,
            modelling the many ASes that do not document or use
            relationship communities — the reason the paper only recovers
            72 % of the links).
        te_overrides: Traffic-engineering LOCAL_PREF overrides.
        relaxed_export_neighbors: Per-AFI sets of neighbours towards
            which the Gao–Rexford export restriction is lifted.  Used to
            model the IPv6 policy relaxations (free transit over peering
            links, reachability-motivated leaks).
        strip_communities_on_export: When True the AS removes all
            communities before exporting a route, modelling operators
            that do not propagate informational communities.  This (along
            with ASes that have no tagger at all) is why relationship
            coverage stays below 100 %, as in the paper.
    """

    asn: int
    local_pref: LocalPrefScheme = field(default_factory=LocalPrefScheme)
    tagger: Optional[CommunityTagger] = None
    te_overrides: List[TrafficEngineeringOverride] = field(default_factory=list)
    relaxed_export_neighbors: Dict[AFI, Set[int]] = field(
        default_factory=lambda: {AFI.IPV4: set(), AFI.IPV6: set()}
    )
    strip_communities_on_export: bool = False

    # ------------------------------------------------------------------
    # import side
    # ------------------------------------------------------------------
    def local_pref_for(
        self, neighbor: int, relationship: Relationship, prefix: Prefix
    ) -> Tuple[int, Optional[TrafficEngineeringOverride]]:
        """LOCAL_PREF for a route from ``neighbor``, plus the override applied.

        Returns the scheme value when no traffic-engineering override
        matches; otherwise the override value and the override itself so
        the caller can attach the corresponding TE communities.
        """
        for override in self.te_overrides:
            if override.applies_to(neighbor, prefix):
                return override.local_pref, override
        return self.local_pref.for_relationship(relationship), None

    def import_communities(
        self,
        relationship: Relationship,
        override: Optional[TrafficEngineeringOverride],
    ) -> List[Community]:
        """Communities this AS attaches when importing a route."""
        if self.tagger is None:
            return []
        communities = list(self.tagger.relationship_communities(relationship))
        if override is not None:
            communities.extend(
                self.tagger.traffic_engineering_communities(override.action)
            )
        return communities

    # ------------------------------------------------------------------
    # export side
    # ------------------------------------------------------------------
    def add_relaxation(self, neighbor: int, afi: AFI = AFI.IPV6) -> None:
        """Lift the export restriction towards ``neighbor`` for ``afi``."""
        self.relaxed_export_neighbors.setdefault(afi, set()).add(neighbor)

    def is_relaxed(self, neighbor: int, afi: AFI) -> bool:
        """True if exports to ``neighbor`` in ``afi`` bypass valley-free rules."""
        return neighbor in self.relaxed_export_neighbors.get(afi, set())

    def export_allowed(
        self,
        learned_relationship: Optional[Relationship],
        export_relationship: Relationship,
        neighbor: int,
        afi: AFI,
    ) -> bool:
        """Decide whether a route may be exported to ``neighbor``.

        Applies the Gao–Rexford rule unless the adjacency is relaxed for
        the route's address family.
        """
        if self.is_relaxed(neighbor, afi):
            return True
        return gao_rexford_export_allowed(learned_relationship, export_relationship)
