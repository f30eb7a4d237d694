"""Array-native propagation core over dense int ids: solve or replay.

:class:`ArrayBackend` produces the converged state of the event engine
(:class:`~repro.bgp.propagation.PropagationSimulator`) by one of two
methods, chosen per address family:

``solve``
    Where the Gao–Rexford stable state is unique, it is computed by
    route class, in the style of bgpsim's ``PathPref`` phases: customer
    routes by a BFS up the provider edges from the origin, peer routes
    one hop from every AS that holds a local or customer route, and
    provider routes over a providers-first topological order, picked by
    the packed decision key (so TE overrides are honoured).  A plane is
    solved when no policy relaxes an export in it, it has no sibling
    edge, no policy overrides ``RoutingPolicy.local_pref_for``, every TE
    override sits on a provider session with a LOCAL_PREF below the
    AS's peer value, and the provider→customer graph is acyclic.  Then
    every class dominates the next, so no stale Adj-RIB-In entry can win
    either: an AS whose update a loop check would reject already holds
    a route in a better class.  A solved plane runs no events.
``replay``
    Any other plane replays the event loop over interned state: same
    queue discipline, same incremental decision shortcuts, same
    withdrawal ordering, so its ``events`` count and converged state are
    the event engine's (TE overrides, export relaxations, siblings and
    custom LOCAL_PREF hooks are consulted exactly when the event engine
    consults them).  :attr:`ArrayBackend.methods` names each plane's
    method and the first disqualifier that forced a replay.

Shared representation:

* ASNs are interned to dense ids ``0..n-1`` in ascending-ASN order, so
  id ordering is ASN ordering and the event engine's ASN-based
  determinism (lowest-ASN tie break, sorted withdrawal fan-out, sorted
  export plans, queue admission order) carries over unchanged.
* The decision key ``(LOCAL_PREF, -path length, -sender ASN)`` packs
  into a single int (monotonic for arbitrary LOCAL_PREF values), so
  route comparisons are int comparisons.

Route **attributes** are never computed during propagation: they are a
pure function of the prefix and the AS path, by induction from the
immutable origin route.  Routes are materialized once per prefix, only
for the kept ASes, by replaying the real per-edge transforms outward
from the origin: :meth:`BGPSpeaker.export_step` at the sender and
:meth:`BGPSpeaker.import_terms` at the receiver, the same definitions
the event engine's :meth:`BGPSpeaker.exported_attributes` and
:meth:`BGPSpeaker.imported` apply.  The walk carries a small per-hop
state (AS path hops, communities, LOCAL_PREF, learned-from AS and
relationship), and only a kept AS gets a :class:`Route`, one each.  A
solved plane walks the solver's next hops, memoized per AS; a replayed
plane walks each installed route's *stored* path, memoized per path
suffix, which reproduces the stale Adj-RIB-In entries the event engine
keeps when a loop check rejects an update (a walk along the current
best senders would not).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.relationships import AFI, Relationship
from repro.bgp.attributes import ASPath, Community, PathAttributes, merge_communities
from repro.bgp.messages import Route
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.results import ConvergenceError, PropagationResult
from repro.bgp.router import BGPSpeaker
from repro.topology.graph import ASGraph

#: Learned-relationship classes, in the event engine's plan order.
#: Index 0 is the locally-originated class (learned relationship None).
_LEARNED_CLASSES: Tuple[Optional[Relationship], ...] = (
    None,
    Relationship.P2C,
    Relationship.C2P,
    Relationship.P2P,
    Relationship.SIBLING,
)
_CODE_OF_REL = {rel: code for code, rel in enumerate(_LEARNED_CLASSES)}

_EMPTY_SET: frozenset = frozenset()

#: best_sender and next-hop sentinels.
_NO_ROUTE = -1
_LOCAL_ROUTE = -2


#: A route as materialization carries it from hop to hop: its AS path
#: hops (holder excluded), communities, LOCAL_PREF, the AS it was
#: learned from and the relationship towards that AS (both ``None`` for
#: the locally originated route).
_HopState = Tuple[
    Tuple[int, ...],
    Tuple[Community, ...],
    Optional[int],
    Optional[int],
    Optional[Relationship],
]


def _route(prefix: Prefix, holder: int, state: _HopState) -> Route:
    """The learned route ``holder`` installs for its carried ``state``.

    Every learned route has the ORIGIN of :meth:`Route.originate` and
    the MED and NEXT_HOP of :meth:`BGPSpeaker.exported_attributes`,
    which are the :class:`PathAttributes` defaults.
    """
    hops, communities, local_pref, learned_from, relationship = state
    return Route(
        prefix=prefix,
        holder=holder,
        attributes=PathAttributes(
            as_path=ASPath.trusted(hops), local_pref=local_pref, communities=communities
        ),
        learned_from=learned_from,
        learned_relationship=relationship,
    )


class ArrayBackend:
    """Allocation-light event propagation over interned arrays.

    Takes the constructor arguments of
    :class:`~repro.bgp.propagation.PropagationSimulator`, so the engine
    builds either one the same way.
    """

    def __init__(
        self,
        graph: ASGraph,
        policies: Optional[Mapping[int, RoutingPolicy]] = None,
        max_events_per_prefix: int = 200_000,
        keep_ribs_for: Optional[Iterable[int]] = None,
    ) -> None:
        self.graph = graph
        self.policies = dict(policies) if policies is not None else {}
        self.max_events_per_prefix = max_events_per_prefix
        self.keep_ribs_for = set(keep_ribs_for) if keep_ribs_for is not None else None
        self._asns: List[int] = graph.ases  # sorted ascending
        self._id_of: Dict[int, int] = {asn: i for i, asn in enumerate(self._asns)}
        n = len(self._asns)
        # Packing factors: path length < _LENF, sender id < _SENF.  Hop
        # uniqueness (the loop check) bounds path length by n.
        self._lenf = n + 2
        self._senf = n + 1
        #: Per AFI: ``("solve", None)`` or ``("replay", first
        #: disqualifier)``, decided when the plane is first propagated.
        self.methods: Dict[AFI, Tuple[str, Optional[str]]] = {}
        # Per-AFI interned tables of the plane's method (lazy).
        self._tables: Dict[AFI, tuple] = {}
        # One policy object per id; shared with the result speakers so
        # per-import policy consults see exactly what the event engine's
        # speakers would.
        self._policy_of: List[RoutingPolicy] = [
            self.policies.get(asn) or RoutingPolicy(asn=asn) for asn in self._asns
        ]
        for asn, policy in zip(self._asns, self._policy_of):
            self.policies.setdefault(asn, policy)
        # Per-prefix propagation state, reused across prefixes and reset
        # through the touched list.
        self._cand: List[Optional[dict]] = [None] * n
        self._best_sender = [_NO_ROUTE] * n
        self._best_key = [0] * n
        self._best_path: List[Optional[Tuple[int, ...]]] = [None] * n
        self._best_rel = [0] * n
        self._announced: List[Optional[set]] = [None] * n
        self._dirty = bytearray(n)
        self._queued = bytearray(n)

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def _plane(self, afi: AFI) -> Tuple[str, tuple]:
        """The method of one AFI's plane and the tables it runs on."""
        if afi not in self.methods:
            solver, reason = self._solver(afi)
            self.methods[afi] = ("replay", reason) if solver is None else ("solve", None)
            self._tables[afi] = solver or self._replay_tables(afi)
        return self.methods[afi][0], self._tables[afi]

    def _solver(self, afi: AFI) -> Tuple[Optional[tuple], Optional[str]]:
        """The solver tables of a plane with a unique stable state, or
        ``None`` and the first disqualifier found.

        Per AS: its providers, its peers, and its provider sessions as
        ``(provider, key of a zero-length path)`` (key ``None`` where a
        TE override is consulted per prefix); and a providers-first
        topological order.
        """
        id_of = self._id_of
        n = len(self._asns)
        ups, peers, downs, sessions = [()] * n, [()] * n, [()] * n, [()] * n
        for x, asn in enumerate(self._asns):
            policy = self._policy_of[x]
            neighbors = self.graph.oriented_neighbors(asn, afi)
            rel_of = dict(neighbors)
            if (
                policy.relaxed_export_neighbors.get(afi)
                or type(policy).export_allowed is not RoutingPolicy.export_allowed
            ):
                return None, f"AS{asn} relaxes exports in {afi}"
            if Relationship.SIBLING in rel_of.values():
                return None, f"AS{asn} has a sibling edge in {afi}"
            if type(policy).local_pref_for is not RoutingPolicy.local_pref_for:
                return None, f"AS{asn} overrides local_pref_for"
            for override in policy.te_overrides:
                if (
                    rel_of.get(override.neighbor) is not Relationship.C2P
                    or override.local_pref >= policy.local_pref.peer
                ):
                    return None, (
                        f"AS{asn} has a TE override on AS{override.neighbor} "
                        f"that is not a provider below peer LOCAL_PREF in {afi}"
                    )
            ups[x], peers[x], downs[x] = (
                tuple(id_of[nb] for nb, rel in neighbors if rel is wanted)
                for wanted in (Relationship.C2P, Relationship.P2P, Relationship.P2C)
            )
            overridden = {id_of[override.neighbor] for override in policy.te_overrides}
            lp = policy.local_pref.provider
            sessions[x] = tuple(
                (q, None if q in overridden else self._key(lp, 0, q)) for q in ups[x]
            )
        # Kahn's algorithm: every AS after all of its providers.
        pending = [len(providers) for providers in ups]
        order = [x for x in range(n) if not pending[x]]
        for x in order:
            for customer in downs[x]:
                pending[customer] -= 1
                if not pending[customer]:
                    order.append(customer)
        if len(order) < n:
            return None, f"the provider graph of {afi} has a cycle"
        return (ups, peers, sessions, order), None

    def _key(self, local_pref: int, length: int, sender: int) -> int:
        """The packed decision key ``(LOCAL_PREF, -length, -sender)``."""
        return (
            (local_pref * self._lenf) + (self._lenf - 1 - length)
        ) * self._senf + (self._senf - 1 - sender)

    def _replay_tables(self, afi: AFI) -> Tuple[List, List]:
        """Intern export plans and import LOCAL_PREF tables for one AFI.

        Mirrors ``PropagationSimulator._build_export_plans`` (policy
        ``export_allowed`` consulted once per learned class × neighbour)
        and ``BGPSpeaker._build_import_defaults`` (policies with custom
        import hooks or TE overrides are consulted per import instead of
        being snapshotted into a table).
        """
        id_of = self._id_of
        plans: List = [None] * len(self._asns)
        lp_tables: List = [None] * len(self._asns)
        for x, asn in enumerate(self._asns):
            policy = self._policy_of[x]
            neighbors = self.graph.oriented_neighbors(asn, afi)
            if neighbors:
                per_learned = []
                for learned in _LEARNED_CLASSES:
                    allowed = tuple(
                        (id_of[n], _CODE_OF_REL[rel.inverse])
                        for n, rel in neighbors
                        if policy.export_allowed(learned, rel, n, afi)
                    )
                    per_learned.append(
                        (allowed, frozenset(pair[0] for pair in allowed))
                    )
                plans[x] = per_learned
            cls = type(policy)
            consult = (
                cls.local_pref_for is not RoutingPolicy.local_pref_for
                or bool(policy.te_overrides)
            )
            if not consult:
                scheme = policy.local_pref
                lp_tables[x] = (
                    0,  # unused: code 0 is the locally-originated class
                    scheme.for_relationship(Relationship.P2C),
                    scheme.for_relationship(Relationship.C2P),
                    scheme.for_relationship(Relationship.P2P),
                    scheme.for_relationship(Relationship.SIBLING),
                )
        return plans, lp_tables

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        keep = self.keep_ribs_for
        # Session-less speakers: they only hold the result's Loc-RIBs,
        # so building no sessions keeps assembly O(ASes), not O(links).
        speakers = {
            asn: BGPSpeaker(asn, self.policies.get(asn)) for asn in self.graph.ases
        }
        id_of = self._id_of
        best_sender = self._best_sender
        # Pruned mode: the kept ASes as ids, so the per-prefix target
        # scan is O(|keep|), not O(touched) x a list-membership probe.
        keep_ids = (
            None if keep is None else [id_of[asn] for asn in keep if asn in id_of]
        )
        reachable_counts: Dict[Prefix, int] = {}
        total_events = 0
        for prefix, origin_asn in origins.items():
            if origin_asn not in id_of:
                raise KeyError(f"origin AS{origin_asn} is not in the topology")
            if not self.graph.node(origin_asn).supports(prefix.afi):
                raise ValueError(
                    f"AS{origin_asn} does not participate in {prefix.afi} "
                    f"but originates {prefix}"
                )
            origin = id_of[origin_asn]
            method, tables = self._plane(prefix.afi)
            if method == "solve":
                hop = self._solve_prefix(prefix, origin, tables)
                reachable_counts[prefix] = len(hop) - hop.count(_NO_ROUTE)
                targets = range(len(hop)) if keep_ids is None else keep_ids
                routed = [i for i in targets if hop[i] != _NO_ROUTE]
                self._install_solved(speakers, prefix, origin, hop, routed)
                continue
            events, touched = self._propagate_prefix(prefix, origin)
            total_events += events
            routed = [i for i in touched if best_sender[i] != _NO_ROUTE]
            reachable_counts[prefix] = len(routed)
            if keep_ids is not None:
                routed = [i for i in keep_ids if best_sender[i] != _NO_ROUTE]
            self._install_routes(speakers, prefix, origin, routed)
            self._reset(touched)
        return PropagationResult(
            speakers=speakers,
            origins=dict(origins),
            events=total_events,
            reachable_counts=reachable_counts,
        )

    def _install_routes(
        self,
        speakers: Dict[int, BGPSpeaker],
        prefix: Prefix,
        origin: int,
        targets: List[int],
    ) -> None:
        """Materialize and install a replayed prefix's converged routes.

        Each target's route is rebuilt from the AS path it *stored*, not
        from its best sender's current route, which differs where a
        loop check left a stale Adj-RIB-In entry.  A route is a pure
        function of the prefix and its full path (holder first), so the
        walk starts at the longest already-carried suffix of the path and
        carries the hop state outward (:meth:`_carry`), memoizing every
        suffix; only the target itself gets a :class:`Route`.  Raises
        :class:`ConvergenceError` naming the prefix when a stored path
        does not end at the origin.
        """
        asns = self._asns
        best_path = self._best_path
        states: Dict[Tuple[int, ...], _HopState] = {
            (origin,): self._origin_state(origin)
        }
        for i in targets:
            if i == origin:
                # Exactly like the event path: the origin keeps its
                # locally originated route (Loc-RIB + local-routes table).
                speakers[asns[i]].originate(prefix)
                continue
            path = (i,) + best_path[i]
            for start in range(1, len(path)):
                state = states.get(path[start:])
                if state is not None:
                    break
            else:
                raise ConvergenceError(
                    f"AS path of AS{asns[i]} for {prefix} does not "
                    f"end at origin AS{asns[origin]}"
                )
            for hop in range(start - 1, -1, -1):
                state = states[path[hop:]] = self._carry(
                    speakers, prefix, state, path[hop], path[hop + 1], asns[i]
                )
            speakers[asns[i]].loc_rib._routes[prefix] = _route(prefix, asns[i], state)

    def _install_solved(
        self,
        speakers: Dict[int, BGPSpeaker],
        prefix: Prefix,
        origin: int,
        hop: List[int],
        targets: List[int],
    ) -> None:
        """Materialize and install a solved prefix's routes at ``targets``.

        A solved route is its next hop's route carried over one edge, so
        each target's walk follows ``hop`` to the first AS whose hop
        state is carried, then carries it outward, memoizing every AS it
        passes; only the target itself gets a :class:`Route`.  Raises
        :class:`ConvergenceError` when the next hops do not lead to the
        origin.
        """
        asns = self._asns
        states: Dict[int, _HopState] = {origin: self._origin_state(origin)}
        for i in targets:
            if i == origin:
                speakers[asns[i]].originate(prefix)
                continue
            chain = []
            j = i
            while j not in states:
                chain.append(j)
                j = hop[j]
                if j < 0 or len(chain) > len(hop):
                    raise ConvergenceError(
                        f"AS path of AS{asns[i]} for {prefix} does not "
                        f"end at origin AS{asns[origin]}"
                    )
            state = states[j]
            for receiver in reversed(chain):
                state = states[receiver] = self._carry(
                    speakers, prefix, state, receiver, j, asns[i]
                )
                j = receiver
            speakers[asns[i]].loc_rib._routes[prefix] = _route(prefix, asns[i], state)

    def _origin_state(self, origin: int) -> _HopState:
        """The hop state of the origin's locally originated route."""
        return (self._asns[origin],), (), None, None, None

    def _carry(
        self,
        speakers: Dict[int, BGPSpeaker],
        prefix: Prefix,
        state: _HopState,
        receiver: int,
        sender: int,
        holder: int,
    ) -> _HopState:
        """``state``, held by id ``sender``, as id ``receiver`` imports it:
        :meth:`BGPSpeaker.export_step` at the sender, then
        :meth:`BGPSpeaker.import_terms` at the receiver.  Raises
        :class:`ConvergenceError` naming the prefix and the hop when the
        two have no known relationship in the plane."""
        receiver, sender = self._asns[receiver], self._asns[sender]
        rel = self.graph.relationship(receiver, sender, prefix.afi)
        if not rel.is_known:
            raise ConvergenceError(
                f"AS path of AS{holder} for {prefix} crosses AS{receiver} -> "
                f"AS{sender}, which have no known relationship in {prefix.afi}"
            )
        hops, communities, _, learned_from, _ = state
        hops, communities = speakers[sender].export_step(
            hops, communities, learned_from is None
        )
        local_pref, added = speakers[receiver].import_terms(prefix, sender, rel)
        return hops, merge_communities(communities, added), local_pref, sender, rel

    def _reset(self, touched: List[int]) -> None:
        cand = self._cand
        best_sender = self._best_sender
        best_path = self._best_path
        best_rel = self._best_rel
        announced = self._announced
        dirty = self._dirty
        for i in touched:
            state = cand[i]
            if state is not None:
                state.clear()
            state = announced[i]
            if state is not None:
                state.clear()
            best_sender[i] = _NO_ROUTE
            best_path[i] = None
            best_rel[i] = 0
            dirty[i] = 0

    # ------------------------------------------------------------------
    # solve: the unique stable state, one route class at a time
    # ------------------------------------------------------------------
    def _solve_prefix(self, prefix: Prefix, origin: int, solver: tuple) -> List[int]:
        """Each AS's next hop towards ``prefix`` (``_NO_ROUTE`` where it
        has no route, ``_LOCAL_ROUTE`` at the origin), one route class
        at a time: each class beats the next, and depends only on the
        better classes."""
        ups, peers, sessions, order = solver
        hop = [_NO_ROUTE] * len(ups)
        length = [0] * len(ups)
        hop[origin] = _LOCAL_ROUTE
        length[origin] = 1
        # Customer routes: a BFS up the provider edges, one path length
        # per level.  Visiting a level in id order lets the lowest
        # sender win a tie, and leaves `exporters` in (length, id) order.
        exporters = [origin]
        level = [origin]
        while level:
            reached = []
            for c in level:
                for q in ups[c]:
                    if hop[q] == _NO_ROUTE:
                        hop[q] = c
                        length[q] = length[c] + 1
                        reached.append(q)
            level = sorted(reached)
            exporters.extend(level)
        # Peer routes: one hop from every AS holding a local or customer
        # route; in (length, id) order the first offer is the best.
        for p in exporters:
            for x in peers[p]:
                if hop[x] == _NO_ROUTE:
                    hop[x] = p
                    length[x] = length[p] + 1
        # Provider routes, providers first, by the packed key with each
        # session's LOCAL_PREF: the key of a zero-length path, less the
        # path length (TE overrides consulted per prefix).
        senf = self._senf
        for x in order:
            if hop[x] != _NO_ROUTE:
                continue
            sender = _NO_ROUTE
            for q, key in sessions[x]:
                if hop[q] == _NO_ROUTE:
                    continue
                if key is None:
                    lp = self._policy_of[x].local_pref_for(
                        self._asns[q], Relationship.C2P, prefix
                    )[0]
                    key = self._key(lp, 0, q)
                key -= length[q] * senf
                if sender == _NO_ROUTE or key > best:
                    sender, best = q, key
            if sender != _NO_ROUTE:
                hop[x] = sender
                length[x] = length[sender] + 1
        return hop

    # ------------------------------------------------------------------
    # replay: the event loop over interned state
    # ------------------------------------------------------------------
    def _propagate_prefix(self, prefix: Prefix, origin: int) -> Tuple[int, List[int]]:
        """Event-faithful propagation of one prefix over interned state.

        Keep in lockstep with ``PropagationSimulator._propagate_prefix``
        (queue discipline, withdrawal ordering, incremental decision
        shortcuts of ``BGPSpeaker.import_route``/``withdraw``) — the
        golden suite asserts identical event counts and routes.
        """
        plans, lp_tables = self._tables[prefix.afi]
        asns = self._asns
        cand = self._cand
        best_sender = self._best_sender
        best_key = self._best_key
        best_path = self._best_path
        best_rel = self._best_rel
        announced = self._announced
        dirty = self._dirty
        queued = self._queued
        policy_of = self._policy_of
        lenf = self._lenf
        senf = self._senf
        max_events = self.max_events_per_prefix

        best_sender[origin] = _LOCAL_ROUTE
        best_path[origin] = (origin,)
        best_rel[origin] = 0
        dirty[origin] = 1
        touched = [origin]

        queue = deque((origin,))
        queued[origin] = 1
        events = 0
        while queue:
            events += 1
            if events > max_events:
                raise ConvergenceError(
                    f"prefix {prefix} did not converge within "
                    f"{max_events} events"
                )
            x = queue.popleft()
            queued[x] = 0
            bs = best_sender[x]
            if bs == _NO_ROUTE:
                exportable: Tuple = ()
                exportable_set: frozenset = _EMPTY_SET
                learned_from = _NO_ROUTE
            else:
                plan = plans[x]
                if plan is None:
                    exportable, exportable_set = (), _EMPTY_SET
                else:
                    exportable, exportable_set = plan[best_rel[x]]
                learned_from = bs if bs >= 0 else _NO_ROUTE
            sent = announced[x]
            if sent:
                stale = sent - exportable_set
                if learned_from >= 0 and learned_from in sent:
                    stale.add(learned_from)
                if stale:
                    for nb in sorted(stale):
                        sent.discard(nb)
                        # --- BGPSpeaker.withdraw over interned state ---
                        holders = cand[nb]
                        if not holders or x not in holders:
                            continue
                        del holders[x]
                        nb_best = best_sender[nb]
                        if nb_best != x:
                            # Withdrawn route was not the best (or the
                            # best is local): nothing changes.
                            continue
                        old_path = best_path[nb]
                        if holders:
                            new_sender = None
                            for s, entry in holders.items():
                                if new_sender is None or entry[0] > k:
                                    new_sender = s
                                    k = entry[0]
                            k, p, r = holders[new_sender]
                            best_sender[nb] = new_sender
                            best_key[nb] = k
                            best_path[nb] = p
                            best_rel[nb] = r
                            changed = new_sender != x or p != old_path
                        else:
                            best_sender[nb] = _NO_ROUTE
                            best_path[nb] = None
                            best_rel[nb] = 0
                            changed = True
                        if changed:
                            if not queued[nb]:
                                queue.append(nb)
                                queued[nb] = 1
            if exportable:
                bp = best_path[x]
                path = bp if bs == _LOCAL_ROUTE else (x,) + bp
                plen = len(path)
                if sent is None:
                    sent = announced[x] = set()
                for nb, recv_rel in exportable:
                    if nb == learned_from:
                        continue
                    sent.add(nb)
                    # --- BGPSpeaker.import_route over interned state ---
                    if nb in path:  # loop prevention, before any state write
                        continue
                    lp_table = lp_tables[nb]
                    if lp_table is None:
                        lp, _override = policy_of[nb].local_pref_for(
                            asns[x], _LEARNED_CLASSES[recv_rel], prefix
                        )
                    else:
                        lp = lp_table[recv_rel]
                    key = ((lp * lenf) + (lenf - 1 - plen)) * senf + (senf - 1 - x)
                    holders = cand[nb]
                    if holders is None:
                        holders = cand[nb] = {}
                    if not dirty[nb]:
                        dirty[nb] = 1
                        touched.append(nb)
                    holders[x] = (key, path, recv_rel)
                    nb_best = best_sender[nb]
                    if nb_best == _NO_ROUTE:
                        best_sender[nb] = x
                        best_key[nb] = key
                        best_path[nb] = path
                        best_rel[nb] = recv_rel
                        changed = True
                    elif nb_best == _LOCAL_ROUTE:
                        changed = False
                    elif nb_best == x:
                        # The previous best came from this sender; the
                        # replacement may be worse — full decision.
                        old_path = best_path[nb]
                        new_sender = None
                        for s, entry in holders.items():
                            if new_sender is None or entry[0] > new_key:
                                new_sender = s
                                new_key = entry[0]
                        k, p, r = holders[new_sender]
                        best_sender[nb] = new_sender
                        best_key[nb] = k
                        best_path[nb] = p
                        best_rel[nb] = r
                        changed = new_sender != x or p != old_path
                    elif key > best_key[nb]:
                        best_sender[nb] = x
                        best_key[nb] = key
                        best_path[nb] = path
                        best_rel[nb] = recv_rel
                        changed = True
                    else:
                        changed = False
                    if changed and not queued[nb]:
                        queue.append(nb)
                        queued[nb] = 1
        return events, touched
