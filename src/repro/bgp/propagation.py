"""Network-wide BGP route propagation.

The :class:`PropagationSimulator` wires one :class:`~repro.bgp.router.BGPSpeaker`
per AS, derives each speaker's per-AFI neighbour relationships from the
annotated :class:`~repro.topology.graph.ASGraph`, originates the
requested prefixes and then lets announcements propagate until the
network is quiescent.

The propagation is event driven: whenever a speaker's best route for a
prefix changes, the new best is (re-)exported to every neighbour the
export policy allows, and withdrawals are sent to neighbours that had
previously received a route that is no longer exportable.  With
relationship-consistent policies this converges; a generous event cap
guards against pathological configurations and makes the failure mode a
loud exception instead of an endless loop.

Performance notes
-----------------

The hot loop is profile-guided (see ``docs/performance.md``):

* **Export plans.**  For every speaker and AFI the simulator precomputes,
  per learned-relationship class, the pre-sorted tuple of neighbours the
  export policy admits.  ``RoutingPolicy.export_allowed`` is a pure
  function of ``(learned_relationship, neighbour_relationship, neighbour,
  afi)``, so the per-event policy evaluation and ``sorted()`` calls of
  the seed implementation collapse into one dict lookup.  Plans are
  rebuilt at the start of every :meth:`run` call, so policy changes made
  between runs are honoured; mutating policies *during* a run is not
  supported (the seed implementation converged to whatever the policy
  said mid-flight, which no caller relied on).
* **Receiver-independent exports.**  The exported attribute set does not
  depend on the receiving neighbour, so it is computed once per
  best-route change and fanned out.
* **Incremental reachability.**  Reachable counts are tracked as loc-RIB
  entries appear/disappear during the event processing instead of the
  seed's O(ASes) post-scan per prefix.
* **Touched-set pruning.**  ``keep_ribs_for`` pruning only visits the
  speakers that actually acquired state for the prefix instead of every
  speaker in the topology.

Golden-equivalence tests compare its routes, reachable counts and event
counts with the committed results of the seed implementation.

This simulator is also the ``event`` backend of the pluggable engine
layer (:mod:`repro.bgp.backends`): the array-native core is
cross-validated against it as the oracle.  The
result types it shares with the other backends live in
:mod:`repro.bgp.results`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.core.relationships import AFI, Relationship
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.results import (
    MAX_EVENTS_PER_PREFIX,
    ConvergenceError,
    PropagationResult,
)
from repro.bgp.router import BGPSpeaker
from repro.topology.graph import ASGraph

#: Learned-relationship classes an export decision can key off.
_LEARNED_CLASSES: Tuple[Optional[Relationship], ...] = (
    None,
    Relationship.P2C,
    Relationship.C2P,
    Relationship.P2P,
    Relationship.SIBLING,
)


#: Shared empty export set for speakers with no plan in a plane.
_EMPTY_SET: frozenset = frozenset()


class PropagationSimulator:
    """Propagate routes over an annotated AS topology."""

    def __init__(
        self,
        graph: ASGraph,
        policies: Optional[Mapping[int, RoutingPolicy]] = None,
        keep_ribs_for: Optional[Iterable[int]] = None,
    ) -> None:
        """Create a simulator over ``graph``.

        ``keep_ribs_for`` enables the memory-saving mode: after each
        prefix converges, Adj-RIB-In state is dropped everywhere and the
        Loc-RIB entry is kept only for the listed ASes (typically the
        collector vantage points).  ``None`` keeps everything.
        """
        self.graph = graph
        self.keep_ribs_for = set(keep_ribs_for) if keep_ribs_for is not None else None
        self.speakers: Dict[int, BGPSpeaker] = {}
        policies = policies or {}
        for asn in graph.ases:
            policy = policies.get(asn)
            self.speakers[asn] = BGPSpeaker(asn, policy)
        self._build_sessions()
        # afi -> asn -> learned-relationship class -> (pre-sorted tuple of
        # (neighbour, neighbour's-relationship-towards-asn) pairs,
        # frozenset of neighbour ASNs).  Built lazily per run().
        self._export_plans: Dict[AFI, Dict[int, Dict[Optional[Relationship], Tuple[Tuple, frozenset]]]] = {}
        # Prefixes propagated by earlier run() calls on this instance;
        # re-propagating one invalidates the incremental reachable count,
        # which then falls back to a full scan.
        self._seen_prefixes: Set[Prefix] = set()

    def _build_sessions(self) -> None:
        """Create the per-AFI BGP adjacencies from the annotated graph."""
        for afi in (AFI.IPV4, AFI.IPV6):
            for asn, speaker in self.speakers.items():
                for neighbor, relationship in self.graph.oriented_neighbors(asn, afi):
                    speaker.add_neighbor(neighbor, relationship, afi)

    def _build_export_plans(self) -> None:
        """Precompute per-speaker, per-AFI export adjacency tuples.

        ``RoutingPolicy.export_allowed`` is consulted once per (learned
        class, neighbour) pair here instead of once per propagation
        event, so custom policy objects keep working as long as their
        ``export_allowed`` is a pure function of its arguments.
        """
        plans: Dict[AFI, Dict[int, Dict[Optional[Relationship], Tuple[Tuple, frozenset]]]] = {
            AFI.IPV4: {},
            AFI.IPV6: {},
        }
        for asn, speaker in self.speakers.items():
            policy = speaker.policy
            speaker.reset_import_cache()
            for afi in (AFI.IPV4, AFI.IPV6):
                neighbors = speaker.sorted_neighbors(afi)
                if not neighbors:
                    continue
                per_learned = {}
                for learned in _LEARNED_CLASSES:
                    # Each pair carries the *receiver's* relationship
                    # towards this speaker, so the import fast path does
                    # not have to re-resolve its neighbour table.
                    allowed = tuple(
                        (n.asn, n.relationship.inverse)
                        for n in neighbors
                        if policy.export_allowed(learned, n.relationship, n.asn, afi)
                    )
                    per_learned[learned] = (
                        allowed,
                        frozenset(pair[0] for pair in allowed),
                    )
                plans[afi][asn] = per_learned
        self._export_plans = plans

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        """Originate ``origins`` and propagate to quiescence.

        ``origins`` maps each prefix to the AS that originates it.  The
        origin AS must participate in the prefix's address family.
        """
        self._build_export_plans()
        total_events = 0
        reachable_counts: Dict[Prefix, int] = {}
        keep = self.keep_ribs_for
        for prefix, origin_asn in origins.items():
            if origin_asn not in self.speakers:
                raise KeyError(f"origin AS{origin_asn} is not in the topology")
            if not self.graph.node(origin_asn).supports(prefix.afi):
                raise ValueError(
                    f"AS{origin_asn} does not participate in {prefix.afi} "
                    f"but originates {prefix}"
                )
            fresh = prefix not in self._seen_prefixes
            self._seen_prefixes.add(prefix)
            events, reachable, announced_to = self._propagate_prefix(prefix, origin_asn)
            total_events += events
            if not fresh:
                # Stale per-prefix state from an earlier run() makes the
                # incremental count unreliable; recount the slow way.
                reachable = sum(
                    1
                    for speaker in self.speakers.values()
                    if speaker.best_route(prefix) is not None
                )
            reachable_counts[prefix] = reachable
            if keep is not None:
                # Only the ASes that received an announcement (or the
                # origin) acquired per-prefix state worth pruning.
                touched = {origin_asn}
                touched.update(*announced_to.values())
                touched.update(announced_to)
                speakers = self.speakers
                for asn in touched:
                    speakers[asn].prune_prefix(prefix, keep_best=asn in keep)
        return PropagationResult(
            speakers=self.speakers,
            origins=dict(origins),
            events=total_events,
            reachable_counts=reachable_counts,
        )

    def _propagate_prefix(
        self, prefix: Prefix, origin_asn: int
    ) -> Tuple[int, int, Dict[int, Set[int]]]:
        """Event-driven propagation of a single prefix.

        Returns ``(events, reachable, announced_to)``: the number of
        events processed, the number of ASes holding a route at
        quiescence, and the per-AS sets of neighbours currently holding
        an announcement (used for targeted pruning — any AS with
        per-prefix state appears in those sets or is the origin).
        """
        afi = prefix.afi
        speakers = self.speakers
        plans = self._export_plans[afi]
        max_events = MAX_EVENTS_PER_PREFIX
        origin = speakers[origin_asn]
        origin.originate(prefix)
        reachable = 1  # the origin itself
        # Track which neighbours each AS has successfully announced to, so
        # that withdrawals can be sent when a new best is not exportable.
        announced_to: Dict[int, Set[int]] = {}
        queue = deque((origin_asn,))
        queued: Set[int] = {origin_asn}
        events = 0
        while queue:
            events += 1
            if events > max_events:
                raise ConvergenceError(
                    f"prefix {prefix} did not converge within "
                    f"{max_events} events"
                )
            asn = queue.popleft()
            queued.discard(asn)
            speaker = speakers[asn]
            best = speaker.loc_rib._routes.get(prefix)
            if best is None:
                exportable: Tuple = ()
                exportable_set: frozenset = _EMPTY_SET
                learned_from = None
            else:
                plan = plans.get(asn)
                if plan is None:
                    exportable, exportable_set = (), _EMPTY_SET
                else:
                    exportable, exportable_set = plan[best.learned_relationship]
                learned_from = best.learned_from
            sent = announced_to.get(asn)
            # Withdraw from neighbours that no longer receive the route.
            if sent:
                stale = sent - exportable_set
                if learned_from is not None and learned_from in sent:
                    stale.add(learned_from)
                if stale:
                    for neighbor_asn in sorted(stale):
                        sent.discard(neighbor_asn)
                        neighbor = speakers[neighbor_asn]
                        neighbor_routes = neighbor.loc_rib._routes
                        had = prefix in neighbor_routes
                        if neighbor.withdraw(prefix, asn):
                            if had and prefix not in neighbor_routes:
                                reachable -= 1
                            if neighbor_asn not in queued:
                                queue.append(neighbor_asn)
                                queued.add(neighbor_asn)
            # (Re-)announce to every exportable neighbour.
            if exportable:
                attributes = speaker.exported_attributes(best)
                if sent is None:
                    sent = announced_to[asn] = set()
                for neighbor_asn, receiver_rel in exportable:
                    if neighbor_asn == learned_from:
                        continue
                    sent.add(neighbor_asn)
                    neighbor = speakers[neighbor_asn]
                    neighbor_routes = neighbor.loc_rib._routes
                    had = prefix in neighbor_routes
                    changed = neighbor.import_route(
                        prefix, asn, receiver_rel, attributes
                    )
                    if changed:
                        if (prefix in neighbor_routes) != had:
                            reachable += 1 if not had else -1
                        if neighbor_asn not in queued:
                            queue.append(neighbor_asn)
                            queued.add(neighbor_asn)
        return events, reachable, announced_to
