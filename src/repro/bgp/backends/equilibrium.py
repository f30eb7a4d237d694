"""Gao-Rexford equilibrium solver: converged best paths without events.

With vanilla valley-free policies the converged routing state is unique
and can be computed directly, prefix by prefix, instead of simulated:
every AS strictly prefers customer-learned routes over peer-learned
over provider-learned (the :class:`~repro.bgp.policy.LocalPrefScheme`
ordering invariant), ties break on shorter AS path and then on lower
neighbour ASN — exactly the event engine's decision key.  That makes
the fixed point a three-phase preference-ordered BFS (the construction
used by the bgpsim family of simulators):

Phase 1 — **customer routes**.  Customer-learned (and locally
originated) routes are exportable to everyone, so the set of ASes with
a customer-class route is exactly the set reachable from the origin by
repeatedly walking customer→provider edges.  A level BFS along
``providers_of`` yields, per AS, the shortest such chain and the
lowest-ASN sender among the shortest — which *is* the AS's best route,
because no peer/provider-class candidate can beat customer LOCAL_PREF.

Phase 2 — **peer routes**.  Peer-learned routes are not re-exported to
peers, so a peer-class route is always exactly one peer hop away from
a customer-class (or origin) AS.  Each unfixed AS adjacent to the
phase-1 set over a P2P edge picks the minimal ``(path length, sender
ASN)`` candidate.

Phase 3 — **provider routes**.  Every best route is exportable to
customers, so provider-class routes flow down ``customers_of`` edges
from *all* fixed ASes.  Seeding a unit-weight bucket queue with the
fixed ASes at their path lengths and expanding downward finalizes each
remaining AS at its minimal length with the lowest-ASN provider among
the minimal — again the event decision key, because all
provider-class candidates at an AS share its provider LOCAL_PREF.

The solver processes no events at all (``PropagationResult.events`` is
0) and only materializes :class:`~repro.bgp.messages.Route` objects for
the ASes that keep them, via the shared chain-walk materializer — at
quiescence the best-sender forest is consistent, so replaying the real
export/import transforms along it reproduces the event engine's routes
attribute for attribute.

Applicability
-------------

The construction is valid only when the class ordering and the
valley-free export rule actually hold, per address family:

* every policy is a plain :class:`~repro.bgp.policy.RoutingPolicy` with
  a plain :class:`~repro.bgp.policy.LocalPrefScheme` (subclassing either
  may redefine preferences or imports arbitrarily),
* no traffic-engineering override touches the plane (an override with
  an empty prefix list touches every plane),
* no export relaxations in the plane (relaxed exports create valley
  paths — multi-hop peer chains, provider routes re-exported upward),
* no SIBLING links in the plane (sibling preference sits between
  customer and peer and siblings re-export everything, which breaks the
  three-class phase structure).

:meth:`EquilibriumBackend.inapplicable_reason` encodes these rules; the
engine consults it and falls back to the event backend (``auto`` and
``equilibrium`` engine modes) instead of ever running this solver on a
configuration it cannot handle.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.core.relationships import AFI, Relationship
from repro.bgp.backends.base import (
    BackendNotApplicable,
    PropagationBackend,
    install_converged_routes,
    speakers_without_sessions,
)
from repro.bgp.policy import LocalPrefScheme, RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.results import ConvergenceError, PropagationResult
from repro.topology.graph import ASGraph

#: Learned-relationship codes used in the per-AS result arrays.
_LOCAL, _FROM_CUSTOMER, _FROM_PEER, _FROM_PROVIDER = 0, 1, 2, 3

_REL_OF_CODE = {
    _FROM_CUSTOMER: Relationship.P2C,
    _FROM_PEER: Relationship.P2P,
    _FROM_PROVIDER: Relationship.C2P,
}


class _Plane:
    """Interned per-AFI adjacency: dense ids, relationship-split edges."""

    __slots__ = ("providers", "peers", "customers")

    def __init__(self, graph: ASGraph, id_of: Dict[int, int], asns: List[int], afi: AFI) -> None:
        # Neighbour lists come out of the graph sorted by ASN; ids are
        # assigned in ascending-ASN order, so id order == ASN order and
        # min-id tie breaking below is exactly min-ASN tie breaking.
        self.providers = [
            [id_of[n] for n in graph.providers_of(asn, afi)] for asn in asns
        ]
        self.peers = [[id_of[n] for n in graph.peers_of(asn, afi)] for asn in asns]
        self.customers = [
            [id_of[n] for n in graph.customers_of(asn, afi)] for asn in asns
        ]


class EquilibriumBackend(PropagationBackend):
    """Direct fixed-point computation for vanilla Gao-Rexford policies."""

    name = "equilibrium"

    def __init__(self, graph, policies=None, max_events_per_prefix=200_000, keep_ribs_for=None):
        super().__init__(graph, policies, max_events_per_prefix, keep_ribs_for)
        self._asns: List[int] = graph.ases  # sorted ascending
        self._id_of: Dict[int, int] = {asn: i for i, asn in enumerate(self._asns)}
        self._planes: Dict[AFI, _Plane] = {}
        n = len(self._asns)
        # Per-prefix solver state, reused across prefixes (reset via the
        # touched list): path length (0 = no route), best sender id
        # (-1 none, -2 locally originated) and learned-class code.
        self._dist = [0] * n
        self._sender = [-1] * n
        self._relc = [_LOCAL] * n

    # ------------------------------------------------------------------
    # applicability
    # ------------------------------------------------------------------
    @classmethod
    def inapplicable_reason(
        cls,
        graph: ASGraph,
        policies: Optional[Mapping[int, RoutingPolicy]],
        afi: AFI,
    ) -> Optional[str]:
        policies = policies or {}
        for asn in graph.ases_in(afi):
            policy = policies.get(asn)
            if policy is None:
                continue  # speakers default to a vanilla RoutingPolicy
            if type(policy) is not RoutingPolicy:
                return (
                    f"AS{asn} uses a custom policy class "
                    f"({type(policy).__name__})"
                )
            if type(policy.local_pref) is not LocalPrefScheme:
                return (
                    f"AS{asn} uses a custom LOCAL_PREF scheme "
                    f"({type(policy.local_pref).__name__})"
                )
            for override in policy.te_overrides:
                if not override.prefixes or any(
                    prefix.afi is afi for prefix in override.prefixes
                ):
                    return (
                        f"AS{asn} has a traffic-engineering override "
                        f"affecting {afi}"
                    )
            if policy.relaxed_export_neighbors.get(afi):
                return f"AS{asn} relaxes exports in {afi}"
        for link in graph.links(afi):
            if graph.relationship(link.a, link.b, afi) is Relationship.SIBLING:
                return f"sibling link {link.a}-{link.b} in {afi}"
        return None

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _plane(self, afi: AFI) -> _Plane:
        plane = self._planes.get(afi)
        if plane is None:
            plane = self._planes[afi] = _Plane(
                self.graph, self._id_of, self._asns, afi
            )
        return plane

    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        for afi in {prefix.afi for prefix in origins}:
            reason = self.inapplicable_reason(self.graph, self.policies, afi)
            if reason is not None:
                raise BackendNotApplicable(reason)
        keep = self.keep_ribs_for
        speakers = speakers_without_sessions(self.graph, self.policies)
        asns = self._asns
        id_of = self._id_of
        sender = self._sender
        relc = self._relc
        # Pruned mode: interned (asn, id) pairs so the per-prefix target
        # scan is O(|keep|), not O(touched) x a list-membership probe.
        keep_ids = (
            None
            if keep is None
            else [(asn, id_of[asn]) for asn in keep if asn in id_of]
        )
        reachable_counts: Dict[Prefix, int] = {}

        def resolve(asn: int):
            i = id_of[asn]
            best = sender[i]
            if best < 0:
                raise ConvergenceError(
                    f"AS{asn} is on a best-sender chain for {prefix} "
                    "but holds no learned route"
                )
            return asns[best], _REL_OF_CODE[relc[i]]

        for prefix, origin_asn in origins.items():
            if origin_asn not in id_of:
                raise KeyError(f"origin AS{origin_asn} is not in the topology")
            if not self.graph.node(origin_asn).supports(prefix.afi):
                raise ValueError(
                    f"AS{origin_asn} does not participate in {prefix.afi} "
                    f"but originates {prefix}"
                )
            touched = self._solve(self._plane(prefix.afi), id_of[origin_asn])
            reachable_counts[prefix] = len(touched)
            if keep_ids is None:
                targets = [asns[i] for i in touched]
            else:
                targets = [asn for asn, i in keep_ids if sender[i] != -1]
            install_converged_routes(
                speakers, prefix, origin_asn, targets, resolve
            )
            dist = self._dist
            for i in touched:
                dist[i] = 0
                sender[i] = -1
                relc[i] = _LOCAL
        return PropagationResult(
            speakers=speakers,
            origins=dict(origins),
            events=0,
            reachable_counts=reachable_counts,
        )

    def _solve(self, plane: _Plane, origin: int) -> List[int]:
        """Fix the best-sender forest for one prefix; returns touched ids."""
        dist = self._dist
        sender = self._sender
        relc = self._relc
        providers = plane.providers
        peers = plane.peers
        customers = plane.customers

        dist[origin] = 1
        sender[origin] = -2
        touched = [origin]

        # Phase 1: customer-class routes, level BFS up provider edges.
        level = [origin]
        d = 1
        while level:
            next_level: List[int] = []
            for u in level:
                for p in providers[u]:
                    dp = dist[p]
                    if dp == 0:
                        dist[p] = d + 1
                        sender[p] = u
                        relc[p] = _FROM_CUSTOMER
                        touched.append(p)
                        next_level.append(p)
                    elif dp == d + 1 and u < sender[p]:
                        # Same shortest length, lower sender ASN wins
                        # (ids are ASN-ordered).
                        sender[p] = u
            level = next_level
            d += 1

        # Phase 2: peer-class routes, exactly one P2P hop off the
        # customer-fixed set (peer-learned routes are not re-exported to
        # peers, so longer peer chains cannot exist).
        peer_best: Dict[int, int] = {}
        peer_from: Dict[int, int] = {}
        for w in touched:
            dw1 = dist[w] + 1
            for v in peers[w]:
                if dist[v] != 0:
                    continue
                known = peer_best.get(v)
                if known is None or dw1 < known or (dw1 == known and w < peer_from[v]):
                    peer_best[v] = dw1
                    peer_from[v] = w
        for v, dv in peer_best.items():
            dist[v] = dv
            sender[v] = peer_from[v]
            relc[v] = _FROM_PEER
            touched.append(v)

        # Phase 3: provider-class routes flow down customer edges from
        # *every* fixed AS.  Unit-weight Dijkstra as a bucket queue over
        # path length, seeded with the fixed set at its lengths; each
        # bucket is complete before it is processed (discovery can only
        # append to later buckets), so min-id updates within a bucket
        # reproduce the lowest-ASN-among-shortest tie break.
        buckets: Dict[int, List[int]] = {}
        dmax = 0
        for x in touched:
            dx = dist[x]
            buckets.setdefault(dx, []).append(x)
            if dx > dmax:
                dmax = dx
        d = 1
        while d <= dmax:
            bucket = buckets.get(d)
            if bucket:
                for u in bucket:
                    for c in customers[u]:
                        dc = dist[c]
                        if dc == 0:
                            dist[c] = d + 1
                            sender[c] = u
                            relc[c] = _FROM_PROVIDER
                            touched.append(c)
                            buckets.setdefault(d + 1, []).append(c)
                            if d + 1 > dmax:
                                dmax = d + 1
                        elif (
                            dc == d + 1
                            and relc[c] == _FROM_PROVIDER
                            and u < sender[c]
                        ):
                            sender[c] = u
            d += 1
        return touched
