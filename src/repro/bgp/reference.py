"""Frozen seed implementation of the BGP propagation stack.

This module preserves, verbatim in behaviour, the pre-optimization
("seed") speaker and simulator:

* :class:`ReferenceBGPSpeaker` scans every Adj-RIB-In during the
  decision process and re-sorts its neighbour tables on every export
  evaluation, exactly like the seed ``BGPSpeaker`` did.
* :class:`ReferencePropagationSimulator` re-evaluates the export policy
  per event, recounts reachability with an O(ASes) post-scan per prefix
  and prunes every speaker, exactly like the seed
  ``PropagationSimulator`` did.

It exists as a golden oracle: the optimized fast path in
:mod:`repro.bgp.propagation` must produce identical routes, and the
golden test suite runs both implementations over the same topologies
and asserts route-for-route equality.

Do not optimize this module; it is the baseline.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.relationships import AFI, Relationship
from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import Announcement, Route
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.results import ConvergenceError, PropagationResult
from repro.bgp.rib import AdjRibIn, LocRib, RibSnapshot
from repro.bgp.router import Neighbor
from repro.topology.graph import ASGraph


class ReferenceBGPSpeaker:
    """The seed BGP speaker: correct, clear, and deliberately unindexed."""

    def __init__(self, asn: int, policy: Optional[RoutingPolicy] = None) -> None:
        self.asn = asn
        self.policy = policy or RoutingPolicy(asn=asn)
        self._neighbors: Dict[AFI, Dict[int, Neighbor]] = {AFI.IPV4: {}, AFI.IPV6: {}}
        self._adj_rib_in: Dict[int, AdjRibIn] = {}
        self.loc_rib = LocRib()
        self._local_routes: Dict[Prefix, Route] = {}

    # -- session management -------------------------------------------
    def add_neighbor(self, asn: int, relationship: Relationship, afi: AFI) -> None:
        if asn == self.asn:
            raise ValueError("an AS cannot neighbour itself")
        if not relationship.is_known:
            raise ValueError("neighbour relationship must be known")
        self._neighbors[afi][asn] = Neighbor(asn=asn, relationship=relationship)
        self._adj_rib_in.setdefault(asn, AdjRibIn(asn))

    def neighbors(self, afi: AFI) -> List[Neighbor]:
        return sorted(self._neighbors[afi].values(), key=lambda n: n.asn)

    def relationship_to(self, asn: int, afi: AFI) -> Optional[Relationship]:
        neighbor = self._neighbors[afi].get(asn)
        return neighbor.relationship if neighbor else None

    # -- origination and import ---------------------------------------
    def originate(self, prefix: Prefix) -> Route:
        route = Route.originate(prefix, self.asn)
        self._local_routes[prefix] = route
        self.loc_rib.install(route)
        return route

    def receive(self, announcement: Announcement) -> bool:
        sender = announcement.sender
        relationship = self.relationship_to(sender, announcement.afi)
        if relationship is None:
            raise ValueError(
                f"AS{self.asn} received an announcement from non-neighbour AS{sender}"
            )
        if announcement.as_path.contains(self.asn):
            return False
        local_pref, override = self.policy.local_pref_for(
            sender, relationship, announcement.prefix
        )
        added_communities = self.policy.import_communities(relationship, override)
        attributes = announcement.attributes.add_communities(added_communities)
        attributes = PathAttributes(
            as_path=attributes.as_path,
            local_pref=local_pref,
            med=attributes.med,
            origin=attributes.origin,
            next_hop=attributes.next_hop,
            communities=attributes.communities,
        )
        route = Route(
            prefix=announcement.prefix,
            holder=self.asn,
            attributes=attributes,
            learned_from=sender,
            learned_relationship=relationship,
        )
        self._adj_rib_in[sender].update(route)
        return self._run_decision(announcement.prefix)

    def withdraw(self, prefix: Prefix, sender: int) -> bool:
        rib = self._adj_rib_in.get(sender)
        if rib is None or rib.withdraw(prefix) is None:
            return False
        return self._run_decision(prefix)

    # -- decision process ---------------------------------------------
    @staticmethod
    def _preference_key(route: Route) -> Tuple[int, int, int, int]:
        if route.is_local:
            return (1, 0, 0, 0)
        local_pref = route.local_pref if route.local_pref is not None else 100
        return (0, local_pref, -len(route.as_path.hops), -route.learned_from)

    def _candidates(self, prefix: Prefix) -> List[Route]:
        candidates: List[Route] = []
        local = self._local_routes.get(prefix)
        if local is not None:
            candidates.append(local)
        for rib in self._adj_rib_in.values():
            route = rib.route_for(prefix)
            if route is not None:
                candidates.append(route)
        return candidates

    def _run_decision(self, prefix: Prefix) -> bool:
        candidates = self._candidates(prefix)
        if not candidates:
            return self.loc_rib.remove(prefix) is not None
        best = max(candidates, key=self._preference_key)
        return self.loc_rib.install(best)

    def best_route(self, prefix: Prefix) -> Optional[Route]:
        return self.loc_rib.best(prefix)

    # -- export --------------------------------------------------------
    def export_to(self, neighbor_asn: int, prefix: Prefix) -> Optional[Announcement]:
        best = self.loc_rib.best(prefix)
        if best is None:
            return None
        afi = prefix.afi
        neighbor = self._neighbors[afi].get(neighbor_asn)
        if neighbor is None:
            return None
        if best.learned_from == neighbor_asn:
            return None
        if not self.policy.export_allowed(
            best.learned_relationship, neighbor.relationship, neighbor_asn, afi
        ):
            return None
        exported_path = best.as_path if best.is_local else best.as_path.prepend(self.asn)
        communities = () if self.policy.strip_communities_on_export else best.communities
        attributes = PathAttributes(
            as_path=exported_path,
            local_pref=None,
            med=0,
            origin=best.attributes.origin,
            next_hop="",
            communities=communities,
        )
        return Announcement(
            prefix=prefix, sender=self.asn, receiver=neighbor_asn, attributes=attributes
        )

    def exportable_neighbors(self, prefix: Prefix) -> List[int]:
        best = self.loc_rib.best(prefix)
        if best is None:
            return []
        afi = prefix.afi
        result = []
        for neighbor in self.neighbors(afi):
            if neighbor.asn == best.learned_from:
                continue
            if self.policy.export_allowed(
                best.learned_relationship, neighbor.relationship, neighbor.asn, afi
            ):
                result.append(neighbor.asn)
        return result

    # -- memory management --------------------------------------------
    def prune_prefix(self, prefix: Prefix, keep_best: bool = True) -> None:
        for rib in self._adj_rib_in.values():
            rib.withdraw(prefix)
        if not keep_best:
            self.loc_rib.remove(prefix)
            self._local_routes.pop(prefix, None)

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> RibSnapshot:
        return RibSnapshot(
            asn=self.asn, best_routes={route.prefix: route for route in self.loc_rib}
        )


class ReferencePropagationSimulator:
    """The seed propagation loop: per-event policy checks and post-scans."""

    def __init__(
        self,
        graph: ASGraph,
        policies: Optional[Mapping[int, RoutingPolicy]] = None,
        max_events_per_prefix: int = 200_000,
        keep_ribs_for: Optional[Iterable[int]] = None,
    ) -> None:
        self.graph = graph
        self.max_events_per_prefix = max_events_per_prefix
        self.keep_ribs_for = set(keep_ribs_for) if keep_ribs_for is not None else None
        self.speakers: Dict[int, ReferenceBGPSpeaker] = {}
        policies = policies or {}
        for asn in graph.ases:
            policy = policies.get(asn)
            self.speakers[asn] = ReferenceBGPSpeaker(asn, policy)
        self._build_sessions()

    def _build_sessions(self) -> None:
        for afi in (AFI.IPV4, AFI.IPV6):
            for link in self.graph.links(afi):
                rel_ab = self.graph.relationship(link.a, link.b, afi)
                rel_ba = self.graph.relationship(link.b, link.a, afi)
                self.speakers[link.a].add_neighbor(link.b, rel_ab, afi)
                self.speakers[link.b].add_neighbor(link.a, rel_ba, afi)

    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        total_events = 0
        reachable_counts: Dict[Prefix, int] = {}
        for prefix, origin_asn in origins.items():
            if origin_asn not in self.speakers:
                raise KeyError(f"origin AS{origin_asn} is not in the topology")
            if not self.graph.node(origin_asn).supports(prefix.afi):
                raise ValueError(
                    f"AS{origin_asn} does not participate in {prefix.afi} "
                    f"but originates {prefix}"
                )
            total_events += self._propagate_prefix(prefix, origin_asn)
            reachable_counts[prefix] = sum(
                1
                for speaker in self.speakers.values()
                if speaker.best_route(prefix) is not None
            )
            if self.keep_ribs_for is not None:
                for asn, speaker in self.speakers.items():
                    speaker.prune_prefix(prefix, keep_best=asn in self.keep_ribs_for)
        return PropagationResult(
            speakers=self.speakers,  # type: ignore[arg-type]
            origins=dict(origins),
            events=total_events,
            reachable_counts=reachable_counts,
        )

    def _propagate_prefix(self, prefix: Prefix, origin_asn: int) -> int:
        origin = self.speakers[origin_asn]
        origin.originate(prefix)
        announced_to: Dict[int, Set[int]] = {asn: set() for asn in self.speakers}
        queue = deque([origin_asn])
        queued: Set[int] = {origin_asn}
        events = 0
        while queue:
            events += 1
            if events > self.max_events_per_prefix:
                raise ConvergenceError(
                    f"prefix {prefix} did not converge within "
                    f"{self.max_events_per_prefix} events"
                )
            asn = queue.popleft()
            queued.discard(asn)
            speaker = self.speakers[asn]
            exportable = set(speaker.exportable_neighbors(prefix))
            for neighbor_asn in sorted(announced_to[asn] - exportable):
                announced_to[asn].discard(neighbor_asn)
                changed = self.speakers[neighbor_asn].withdraw(prefix, asn)
                if changed and neighbor_asn not in queued:
                    queue.append(neighbor_asn)
                    queued.add(neighbor_asn)
            for neighbor_asn in sorted(exportable):
                announcement = speaker.export_to(neighbor_asn, prefix)
                if announcement is None:
                    continue
                announced_to[asn].add(neighbor_asn)
                changed = self.speakers[neighbor_asn].receive(announcement)
                if changed and neighbor_asn not in queued:
                    queue.append(neighbor_asn)
                    queued.add(neighbor_asn)
        return events
