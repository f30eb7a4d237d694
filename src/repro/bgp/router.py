"""A policy-driven BGP speaker.

Each AS in the propagation simulator is represented by a
:class:`BGPSpeaker` that

* originates its own prefixes,
* imports announcements from neighbours (applying LOCAL_PREF assignment
  and community tagging according to its :class:`~repro.bgp.policy.RoutingPolicy`),
* runs the BGP decision process to maintain a Loc-RIB, and
* exports its best routes to neighbours, subject to the (possibly
  relaxed) valley-free export rules.

The decision process implements the attribute comparisons that matter
for the reproduction: highest LOCAL_PREF, then shortest AS path, then
lowest neighbour ASN as the deterministic tie breaker.

Performance notes
-----------------

The speaker's Adj-RIB-In (RFC 4271 §3.2: the routes each neighbour
advertised, after import policy) is one **per-prefix candidate index**
(``prefix -> {neighbour: route}``).  The decision process therefore
only looks at the neighbours that actually hold a route for the prefix
instead of scanning every session — on hub ASes (hundreds of sessions,
the cost hot-spot predicted by the scale-free-network literature) this
turns each decision from O(degree) into O(holders).  The sorted neighbour views used by the export side are
cached per AFI and invalidated when sessions change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.relationships import AFI, Relationship
from repro.bgp.attributes import ASPath, Community, PathAttributes, merge_communities
from repro.bgp.messages import Announcement, Route
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.rib import LocRib, RibSnapshot


#: Sentinel import-defaults value: the policy customizes its import
#: hooks, so local_pref_for/import_communities must run per route.
_CONSULT_POLICY = object()


@dataclass(frozen=True, slots=True)
class Neighbor:
    """A BGP adjacency and the relationship the local AS has towards it.

    ``relationship`` is from the local AS's point of view and may differ
    per address family (hybrid links!), hence one :class:`Neighbor` entry
    per AFI.
    """

    asn: int
    relationship: Relationship


class BGPSpeaker:
    """One AS participating in the route propagation."""

    __slots__ = (
        "asn",
        "policy",
        "_neighbors",
        "loc_rib",
        "_local_routes",
        "_sorted_neighbors",
        "_routes_by_prefix",
        "_import_defaults",
    )

    def __init__(self, asn: int, policy: Optional[RoutingPolicy] = None) -> None:
        self.asn = asn
        self.policy = policy or RoutingPolicy(asn=asn)
        # Per-AFI neighbour tables: asn -> Neighbor.
        self._neighbors: Dict[AFI, Dict[int, Neighbor]] = {AFI.IPV4: {}, AFI.IPV6: {}}
        self.loc_rib = LocRib()
        self._local_routes: Dict[Prefix, Route] = {}
        # Cached sorted neighbour tuples per AFI (invalidated by
        # add_neighbor) and the per-prefix candidate index, which is the
        # speaker's Adj-RIB-In.
        self._sorted_neighbors: Dict[AFI, Optional[Tuple[Neighbor, ...]]] = {
            AFI.IPV4: None,
            AFI.IPV6: None,
        }
        self._routes_by_prefix: Dict[Prefix, Dict[int, Route]] = {}
        # relationship -> (LOCAL_PREF, communities-to-add) for the
        # no-TE-override case, or the _CONSULT_POLICY sentinel for
        # policies with custom import hooks; rebuilt lazily (see
        # reset_import_cache).
        self._import_defaults = None

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def add_neighbor(self, asn: int, relationship: Relationship, afi: AFI) -> None:
        """Register a neighbour for one address family."""
        if asn == self.asn:
            raise ValueError("an AS cannot neighbour itself")
        if not relationship.is_known:
            raise ValueError("neighbour relationship must be known")
        self._neighbors[afi][asn] = Neighbor(asn=asn, relationship=relationship)
        self._sorted_neighbors[afi] = None

    def neighbors(self, afi: AFI) -> List[Neighbor]:
        """All neighbours for one address family (sorted by ASN)."""
        return list(self.sorted_neighbors(afi))

    def sorted_neighbors(self, afi: AFI) -> Tuple[Neighbor, ...]:
        """Cached, ASN-sorted neighbour tuple for one address family."""
        cached = self._sorted_neighbors[afi]
        if cached is None:
            cached = tuple(
                sorted(self._neighbors[afi].values(), key=lambda n: n.asn)
            )
            self._sorted_neighbors[afi] = cached
        return cached

    def relationship_to(self, asn: int, afi: AFI) -> Optional[Relationship]:
        """Relationship towards a neighbour (``None`` if not adjacent in ``afi``)."""
        neighbor = self._neighbors[afi].get(asn)
        return neighbor.relationship if neighbor else None

    # ------------------------------------------------------------------
    # origination and import
    # ------------------------------------------------------------------
    def originate(self, prefix: Prefix) -> Route:
        """Originate a prefix locally and install it as best."""
        route = Route.originate(prefix, self.asn)
        self._local_routes[prefix] = route
        self.loc_rib.install(route)
        return route

    def receive(self, announcement: Announcement) -> bool:
        """Import an announcement from a neighbour.

        Returns True when the best route for the prefix changed (and the
        new best therefore needs to be re-exported).
        """
        sender = announcement.sender
        prefix = announcement.prefix
        relationship = self.relationship_to(sender, prefix.afi)
        if relationship is None:
            raise ValueError(
                f"AS{self.asn} received an announcement from non-neighbour AS{sender}"
            )
        return self.import_route(
            prefix, sender, relationship, announcement.attributes
        )

    def reset_import_cache(self) -> None:
        """Drop the cached per-relationship import defaults.

        The cache snapshots the policy's LOCAL_PREF scheme and community
        tagging; call this after mutating a policy of an already-used
        speaker (the propagation simulator does so at the start of every
        run).
        """
        self._import_defaults = None

    def _build_import_defaults(self):
        policy = self.policy
        # Policies that override the import hooks (custom local_pref_for
        # or import_communities) cannot be snapshotted into defaults —
        # they must be consulted per route, like the seed did.
        cls = type(policy)
        if (
            cls.local_pref_for is not RoutingPolicy.local_pref_for
            or cls.import_communities is not RoutingPolicy.import_communities
        ):
            self._import_defaults = _CONSULT_POLICY
            return _CONSULT_POLICY
        defaults = {
            relationship: (
                policy.local_pref.for_relationship(relationship),
                tuple(policy.import_communities(relationship, None)),
            )
            for relationship in (
                Relationship.P2C,
                Relationship.C2P,
                Relationship.P2P,
                Relationship.SIBLING,
            )
        }
        self._import_defaults = defaults
        return defaults

    def import_terms(
        self, prefix: Prefix, sender: int, relationship: Relationship
    ) -> Tuple[int, Tuple[Community, ...]]:
        """``(LOCAL_PREF, communities added)`` for a route from ``sender``.

        The terms of the import transform: :meth:`imported` applies them
        to a route's attributes, and the ``array`` backend's
        materialization to the per-hop state it carries.  Vanilla
        policies are served from the per-relationship import defaults;
        custom import hooks and traffic-engineering overrides are
        consulted per route.
        """
        policy = self.policy
        defaults = self._import_defaults
        if defaults is None:
            defaults = self._build_import_defaults()
        if policy.te_overrides or defaults is _CONSULT_POLICY:
            local_pref, override = policy.local_pref_for(sender, relationship, prefix)
            return local_pref, tuple(policy.import_communities(relationship, override))
        return defaults[relationship]

    def imported(
        self,
        prefix: Prefix,
        sender: int,
        relationship: Relationship,
        attributes: PathAttributes,
    ) -> Route:
        """The route this AS installs for ``attributes`` from ``sender``.

        The import transform alone (:meth:`import_terms` applied), with
        no loop check and no RIB side effects.
        """
        local_pref, added = self.import_terms(prefix, sender, relationship)
        return Route(
            prefix=prefix,
            holder=self.asn,
            attributes=PathAttributes(
                as_path=attributes.as_path,
                local_pref=local_pref,
                med=attributes.med,
                origin=attributes.origin,
                next_hop=attributes.next_hop,
                communities=merge_communities(attributes.communities, added),
            ),
            learned_from=sender,
            learned_relationship=relationship,
        )

    def import_route(
        self,
        prefix: Prefix,
        sender: int,
        relationship: Relationship,
        attributes: PathAttributes,
    ) -> bool:
        """Import a route from ``sender`` (the announcement-free fast path).

        ``relationship`` is this AS's relationship towards ``sender``;
        the propagation hot loop derives it from its export plans instead
        of re-resolving the neighbour table per announcement.  Returns
        True when the best route for the prefix changed.
        """
        # Standard loop prevention: reject paths that already contain us.
        if self.asn in attributes.as_path._hops:
            return False
        route = self.imported(prefix, sender, relationship, attributes)
        holders = self._routes_by_prefix.get(prefix)
        if holders is None:
            holders = self._routes_by_prefix[prefix] = {}
        holders[sender] = route
        # Incremental decision: a full candidate comparison is only
        # needed when this neighbour previously supplied the best route
        # (the replacement may be worse).  Otherwise the new route either
        # strictly beats the installed best or changes nothing, and both
        # verdicts come from _preference_key — the single definition of
        # the decision ordering.
        loc_routes = self.loc_rib._routes
        best = loc_routes.get(prefix)
        if best is None:
            loc_routes[prefix] = route
            return True
        best_sender = best.learned_from
        if best_sender is None:  # locally originated always wins
            return False
        if best_sender == sender:
            return self._run_decision(prefix)
        if self._preference_key(route) > self._preference_key(best):
            loc_routes[prefix] = route
            return True
        return False

    def withdraw(self, prefix: Prefix, sender: int) -> bool:
        """Process a withdrawal from a neighbour; returns True if best changed."""
        holders = self._routes_by_prefix.get(prefix)
        if holders is None or holders.pop(sender, None) is None:
            return False
        if not holders:
            del self._routes_by_prefix[prefix]
        # Removing a route that was not the installed best changes nothing.
        best = self.loc_rib.best(prefix)
        if best is not None and best.learned_from != sender:
            return False
        return self._run_decision(prefix)

    # ------------------------------------------------------------------
    # decision process
    # ------------------------------------------------------------------
    @staticmethod
    def _preference_key(route: Route) -> Tuple[int, int, int, int]:
        """Sort key: higher is better.

        Locally originated routes always win; otherwise higher
        LOCAL_PREF, then shorter AS path, then lower neighbour ASN.
        The key is memoized on the (immutable) route, so the decision
        ordering stays defined in exactly one place without paying a
        tuple construction per comparison.
        """
        key = route._pref_key
        if key is None:
            if route.learned_from is None:  # locally originated
                key = (1, 0, 0, 0)
            else:
                local_pref = route.attributes.local_pref
                if local_pref is None:
                    local_pref = 100
                # Negative values convert "smaller is better" into
                # "larger is better".
                key = (
                    0,
                    local_pref,
                    -len(route.attributes.as_path._hops),
                    -route.learned_from,
                )
            object.__setattr__(route, "_pref_key", key)
        return key

    def _candidates(self, prefix: Prefix) -> List[Route]:
        candidates: List[Route] = []
        local = self._local_routes.get(prefix)
        if local is not None:
            candidates.append(local)
        holders = self._routes_by_prefix.get(prefix)
        if holders:
            candidates.extend(holders.values())
        return candidates

    def _run_decision(self, prefix: Prefix) -> bool:
        candidates = self._candidates(prefix)
        if not candidates:
            return self.loc_rib.remove(prefix) is not None
        best = max(candidates, key=self._preference_key)
        return self.loc_rib.install(best)

    def best_route(self, prefix: Prefix) -> Optional[Route]:
        """The current best route for a prefix (``None`` if unreachable)."""
        return self.loc_rib.best(prefix)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_to(self, neighbor_asn: int, prefix: Prefix) -> Optional[Announcement]:
        """Build the announcement of the best route towards one neighbour.

        Returns ``None`` when the route must not be exported (export
        policy) or when there is no best route for the prefix.
        """
        best = self.loc_rib.best(prefix)
        if best is None:
            return None
        afi = prefix.afi
        neighbor = self._neighbors[afi].get(neighbor_asn)
        if neighbor is None:
            return None
        # Never send a route back to the neighbour it was learned from.
        if best.learned_from == neighbor_asn:
            return None
        if not self.policy.export_allowed(
            best.learned_relationship, neighbor.relationship, neighbor_asn, afi
        ):
            return None
        return Announcement(
            prefix=prefix,
            sender=self.asn,
            receiver=neighbor_asn,
            attributes=self.exported_attributes(best),
        )

    def export_step(
        self, hops: Tuple[int, ...], communities: Tuple[Community, ...], is_local: bool
    ) -> Tuple[Tuple[int, ...], Tuple[Community, ...]]:
        """The AS path hops and communities a route is exported with.

        The export transform, receiver-independent: this AS is prepended
        unless the route is locally originated (its only hop is already
        this AS), and the communities are stripped when the policy says
        so.  :meth:`exported_attributes` and the ``array`` backend's
        converged-route materialization both export here.
        """
        if not is_local:
            hops = (self.asn,) + hops
        return hops, (() if self.policy.strip_communities_on_export else communities)

    def exported_attributes(self, best: Route) -> PathAttributes:
        """The attributes ``best`` is exported with (receiver-independent).

        The exported attribute set does not depend on which neighbour the
        announcement goes to, so the propagation hot loop computes it
        once per best-route change and fans it out.
        """
        hops, communities = self.export_step(
            best.attributes.as_path._hops, best.attributes.communities, best.is_local
        )
        return PathAttributes(
            as_path=ASPath.trusted(hops),
            local_pref=None,  # LOCAL_PREF is not propagated across EBGP sessions.
            med=0,
            origin=best.attributes.origin,
            next_hop="",
            communities=communities,
        )

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def prune_prefix(self, prefix: Prefix, keep_best: bool = True) -> None:
        """Drop per-prefix state that is no longer needed after convergence.

        The Adj-RIB-In entries for ``prefix`` are always removed (they are
        only needed while the prefix is still propagating); the Loc-RIB
        entry is removed too unless ``keep_best`` is True.  The
        network-wide simulator uses this to keep memory proportional to
        the number of vantage points rather than to ASes x prefixes.
        """
        self._routes_by_prefix.pop(prefix, None)
        if not keep_best:
            self.loc_rib.remove(prefix)
            self._local_routes.pop(prefix, None)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> RibSnapshot:
        """A frozen copy of the Loc-RIB, for the collectors."""
        return RibSnapshot(
            asn=self.asn, best_routes={route.prefix: route for route in self.loc_rib}
        )
