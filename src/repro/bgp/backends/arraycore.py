"""Array-native propagation core over dense int ids: solve or replay.

:class:`ArrayBackend` produces the converged state of the event engine
(:class:`~repro.bgp.propagation.PropagationSimulator`) by one of two
methods, chosen per address family:

``solve``
    Where the Gao–Rexford stable state is unique, it is computed by
    route class, in the style of bgpsim's ``PathPref`` phases, for every
    origin of the plane at once (origins are the bits of Python ints):
    customer routes customers first, peer routes one hop from every AS
    that holds a local or customer route, and provider routes providers
    first, in the packed decision key's order (so TE overrides are
    honoured).  Each AS keeps one mask of the prefixes it reaches per
    path length and one ``(next hop, mask)`` entry per neighbour it
    took routes from.  A plane is solved when no policy relaxes an
    export in it, it has no sibling edge, no policy overrides
    ``RoutingPolicy.local_pref_for``, every TE override sits on a
    provider session with a LOCAL_PREF below the AS's peer value, and
    the provider→customer graph is acyclic.  Then
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
solved plane walks the next hops picked from the solver's entries,
memoized per AS; a replayed plane walks each installed route's
*stored* path, memoized per path suffix, which reproduces the stale
Adj-RIB-In entries the event engine keeps when a loop check rejects an
update (a walk along the current best senders would not).
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.core.relationships import AFI, Relationship
from repro.bgp.attributes import Community, merge_communities
from repro.bgp.messages import Route
from repro.bgp.policy import RoutingPolicy, gao_rexford_export_allowed
from repro.bgp.prefixes import Prefix
from repro.bgp.results import (
    MAX_EVENTS_PER_PREFIX,
    ConvergenceError,
    PropagationResult,
)
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


#: A solved AS that took routes from more neighbours than this has its
#: next-hop entries decoded into one next hop per prefix; below it, a
#: pick scans the ``(neighbour, mask)`` entries, largest mask first.
_SCAN_LIMIT = 32


#: Binary digits as the bytes 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(mask: int) -> Iterator[int]:
    """The indexes of the set bits of ``mask``, ascending."""
    digits = format(mask, "b").encode().translate(_DIGIT_VALUES)[::-1]
    return compress(range(len(digits)), digits)


def _mask_size(entry: Tuple[int, int]) -> int:
    """The number of prefixes a ``(next hop, mask)`` entry covers."""
    return entry[1].bit_count()


def _bit_counts(masks: Iterable[int], width: int) -> List[int]:
    """For each bit below ``width``, how many of ``masks`` set it.

    A bit-sliced popcount: slice ``k`` holds bit ``k`` of every count,
    and adding a mask is a ripple-carry add over the slices, so the cost
    follows the number of masks, not masks × bits.
    """
    slices: List[int] = []
    for carry in masks:
        k = 0
        while carry:
            if k == len(slices):
                slices.append(carry)
                break
            total = slices[k]
            slices[k] = total ^ carry
            carry &= total
            k += 1
    counts = [0] * width
    for k, total in enumerate(slices):
        weight = 1 << k
        for bit in _set_bits(total):
            counts[bit] += weight
    return counts


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
        keep_ribs_for: Optional[Iterable[int]] = None,
    ) -> None:
        self.graph = graph
        self.policies = dict(policies) if policies is not None else {}
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
        # Per-AFI interned tables of the plane's method, and per-AFI
        # relationship rows for the materializer (both lazy).
        self._tables: Dict[AFI, tuple] = {}
        self._rel_rows: Dict[AFI, List[Mapping[int, Relationship]]] = {}
        # One policy object per id; shared with the result speakers so
        # per-import policy consults see exactly what the event engine's
        # speakers would.
        self._policy_of: List[RoutingPolicy] = [
            self.policies.get(asn) or RoutingPolicy(asn=asn) for asn in self._asns
        ]
        for asn, policy in zip(self._asns, self._policy_of):
            self.policies.setdefault(asn, policy)
        # Per-prefix propagation state, reused across prefixes (see
        # _reset).
        self._cand: List[Optional[dict]] = [None] * n
        self._best_sender = [_NO_ROUTE] * n
        self._best_key = [0] * n
        self._best_path: List[Optional[Tuple[int, ...]]] = [None] * n
        self._best_rel = [0] * n
        self._announced: List[Optional[set]] = [None] * n
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

    def _rows(self, afi: AFI) -> List[Mapping[int, Relationship]]:
        """Per id, the AS's known relationships in ``afi`` by neighbour ASN."""
        rows = self._rel_rows.get(afi)
        if rows is None:
            relationships_of = self.graph.relationships_of
            rows = self._rel_rows[afi] = [
                relationships_of(asn, afi) for asn in self._asns
            ]
        return rows

    def _solver(self, afi: AFI) -> Tuple[Optional[tuple], Optional[str]]:
        """The solver tables of a plane with a unique stable state, or
        ``None`` and the first disqualifier found.

        Per AS: its providers, its peers and its customers, each in id
        order; and a providers-first topological order.
        """
        id_of = self._id_of
        n = len(self._asns)
        ups, peers, downs = [()] * n, [()] * n, [()] * n
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
        return (ups, peers, downs, order), None

    def _replay_tables(self, afi: AFI) -> List:
        """Intern the export plans of one AFI.

        Mirrors ``PropagationSimulator._build_export_plans``: per AS and
        learned class, the neighbours the route is exported to.  A policy
        whose class keeps :meth:`RoutingPolicy.export_allowed` exports to
        every relaxed neighbour and otherwise by
        :func:`gao_rexford_export_allowed`, evaluated once per (learned
        class, relationship) pair; any other policy is consulted once per
        learned class × neighbour.

        Each plan entry is ``(receiver id, receiver's relationship code,
        LOCAL_PREF term)``: the receiver's LOCAL_PREF times the packing
        factors of the decision key, or ``None`` where the receiver's
        policy is consulted per import (custom import hooks or TE
        overrides, as ``BGPSpeaker._build_import_defaults`` decides).
        """
        id_of = self._id_of
        scale = self._lenf * self._senf
        known = _LEARNED_CLASSES[1:]
        lp_terms = [
            None
            if type(policy).local_pref_for is not RoutingPolicy.local_pref_for
            or policy.te_overrides
            else {rel: policy.local_pref.for_relationship(rel) * scale for rel in known}
            for policy in self._policy_of
        ]
        gao_rexford = {
            (learned, rel): gao_rexford_export_allowed(learned, rel)
            for learned in _LEARNED_CLASSES
            for rel in known
        }
        plans: List = [None] * len(self._asns)
        for x, asn in enumerate(self._asns):
            neighbors = self.graph.oriented_neighbors(asn, afi)
            if not neighbors:
                continue
            policy = self._policy_of[x]
            sessions = []
            for nb, rel in neighbors:
                y = id_of[nb]
                terms = lp_terms[y]
                inverse = rel.inverse
                entry = (
                    y,
                    _CODE_OF_REL[inverse],
                    None if terms is None else terms[inverse],
                )
                sessions.append((nb, rel, entry))
            vanilla = type(policy).export_allowed is RoutingPolicy.export_allowed
            relaxed = policy.relaxed_export_neighbors.get(afi, _EMPTY_SET)
            per_learned = []
            for learned in _LEARNED_CLASSES:
                if vanilla:
                    allowed = tuple(
                        entry
                        for nb, rel, entry in sessions
                        if nb in relaxed or gao_rexford[learned, rel]
                    )
                else:
                    allowed = tuple(
                        entry
                        for nb, rel, entry in sessions
                        if policy.export_allowed(learned, rel, nb, afi)
                    )
                per_learned.append((allowed, frozenset(entry[0] for entry in allowed)))
            plans[x] = per_learned
        return plans

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        keep = self.keep_ribs_for
        asns = self._asns
        # Session-less speakers: they only hold the result's Loc-RIBs,
        # so building no sessions keeps assembly O(ASes), not O(links).
        speakers = {asn: BGPSpeaker(asn, self.policies.get(asn)) for asn in asns}
        by_id = [speakers[asn] for asn in asns]
        id_of = self._id_of
        best_sender = self._best_sender
        # The ids that get routes: every AS, or in pruned mode the kept
        # ones, so the per-prefix target scan is O(|keep|).
        targets = (
            range(len(asns))
            if keep is None
            else [id_of[asn] for asn in keep if asn in id_of]
        )
        # Every origin is checked, and every plane's method decided, in
        # `origins` order before anything propagates.
        planes: Dict[AFI, List[Prefix]] = {}
        for prefix, origin_asn in origins.items():
            if origin_asn not in id_of:
                raise KeyError(f"origin AS{origin_asn} is not in the topology")
            if not self.graph.node(origin_asn).supports(prefix.afi):
                raise ValueError(
                    f"AS{origin_asn} does not participate in {prefix.afi} "
                    f"but originates {prefix}"
                )
            planes.setdefault(prefix.afi, []).append(prefix)
        # Each solved plane in one pass; per prefix: its bit, reachable
        # count, the routed targets and the plane's next-hop picks.
        solved: Dict[Prefix, tuple] = {}
        for afi, prefixes in planes.items():
            method, tables = self._plane(afi)
            if method != "solve":
                continue
            reach, picks, counts = self._solve(
                prefixes, [id_of[origins[prefix]] for prefix in prefixes], tables
            )
            routed: List[List[int]] = [[] for _ in prefixes]
            for i in targets:
                for bit in _set_bits(reach[i]):
                    routed[bit].append(i)
            for bit, prefix in enumerate(prefixes):
                solved[prefix] = (bit, counts[bit], routed[bit], picks)
        reachable_counts: Dict[Prefix, int] = {}
        total_events = 0
        for prefix, origin_asn in origins.items():
            origin = id_of[origin_asn]
            rows = self._rows(prefix.afi)
            plan = solved.get(prefix)
            if plan is not None:
                bit, reachable_counts[prefix], routed, picks = plan
                self._install_solved(by_id, rows, prefix, origin, bit, picks, routed)
                continue
            total_events += self._propagate_prefix(prefix, origin)
            reachable_counts[prefix] = len(asns) - best_sender.count(_NO_ROUTE)
            routed = [i for i in targets if best_sender[i] != _NO_ROUTE]
            self._install_routes(by_id, rows, prefix, origin, routed)
            self._reset()
        return PropagationResult(
            speakers=speakers,
            origins=dict(origins),
            events=total_events,
            reachable_counts=reachable_counts,
        )

    def _install_routes(
        self,
        speakers: List[BGPSpeaker],
        rows: List[Mapping[int, Relationship]],
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
                speakers[i].originate(prefix)
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
                    speakers, rows, prefix, state, path[hop], path[hop + 1], asns[i]
                )
            speakers[i].loc_rib._routes[prefix] = Route.trusted(prefix, asns[i], *state)

    def _install_solved(
        self,
        speakers: List[BGPSpeaker],
        rows: List[Mapping[int, Relationship]],
        prefix: Prefix,
        origin: int,
        bit: int,
        picks: List,
        targets: List[int],
    ) -> None:
        """Materialize and install a solved prefix's routes at ``targets``.

        A solved route is its next hop's route carried over one edge, so
        each target's walk picks next hops towards the first AS whose
        hop state is carried, then carries it outward, memoizing every AS
        it passes; only the target itself gets a :class:`Route`.  An AS's
        ``picks`` (see :meth:`_solve`) are scanned for ``bit``, or
        indexed by it once decoded.  Raises :class:`ConvergenceError`
        when the next hops do not lead to the origin.
        """
        asns = self._asns
        n = len(asns)
        states: Dict[int, _HopState] = {origin: self._origin_state(origin)}
        for i in targets:
            if i == origin:
                speakers[i].originate(prefix)
                continue
            chain = []
            j = i
            while j not in states:
                chain.append(j)
                nexts = picks[j]
                if nexts.__class__ is list:
                    j = nexts[bit]
                else:
                    j = _NO_ROUTE
                    for hop, mask in nexts:
                        if mask >> bit & 1:
                            j = hop
                            break
                if j < 0 or len(chain) > n:
                    raise ConvergenceError(
                        f"AS path of AS{asns[i]} for {prefix} does not "
                        f"end at origin AS{asns[origin]}"
                    )
            state = states[j]
            for receiver in reversed(chain):
                state = states[receiver] = self._carry(
                    speakers, rows, prefix, state, receiver, j, asns[i]
                )
                j = receiver
            speakers[i].loc_rib._routes[prefix] = Route.trusted(prefix, asns[i], *state)

    def _origin_state(self, origin: int) -> _HopState:
        """The hop state of the origin's locally originated route."""
        return (self._asns[origin],), (), None, None, None

    def _carry(
        self,
        speakers: List[BGPSpeaker],
        rows: List[Mapping[int, Relationship]],
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
        sender_asn = self._asns[sender]
        rel = rows[receiver].get(sender_asn)
        if rel is None:
            raise ConvergenceError(
                f"AS path of AS{holder} for {prefix} crosses "
                f"AS{self._asns[receiver]} -> AS{sender_asn}, which have no "
                f"known relationship in {prefix.afi}"
            )
        hops, communities, _, learned_from, _ = state
        hops, communities = speakers[sender].export_step(
            hops, communities, learned_from is None
        )
        local_pref, added = speakers[receiver].import_terms(prefix, sender_asn, rel)
        return hops, merge_communities(communities, added), local_pref, sender_asn, rel

    def _reset(self) -> None:
        """Drop the replay state the last prefix left, for the next one."""
        n = len(self._asns)
        self._cand[:] = self._announced[:] = self._best_path[:] = [None] * n
        self._best_sender[:] = [_NO_ROUTE] * n
        self._best_rel[:] = [0] * n

    # ------------------------------------------------------------------
    # solve: the unique stable state, one route class at a time
    # ------------------------------------------------------------------
    def _solve(
        self, prefixes: List[Prefix], origins: List[int], solver: tuple
    ) -> Tuple[List[int], List, List[int]]:
        """Every AS's routes to all ``prefixes`` at once; prefix ``b``
        (originated by id ``origins[b]``) is bit ``b`` of every mask.

        One route class at a time, since each class beats the next and
        depends only on the better classes.  Each AS keeps one mask per
        path length (index: length - 1) of the prefixes it reaches, and
        a prefix goes to the first neighbour that offers it in the
        packed decision key's order:

        * customer routes, customers first: one hop longer than a
          customer's local or customer route, the lowest id winning a
          tie;
        * peer routes: one hop longer than a peer's local or customer
          route, lowest id first;
        * provider routes, providers first: by the LOCAL_PREF the
          session gives the prefix (highest first, see
          :meth:`_provider_groups`), then length, then provider id.

        Returns, per AS, the mask of prefixes it reaches and its picks,
        and per prefix the number of ASes that reach it.  An AS's picks
        are ``(next hop, mask)`` pairs, one per neighbour it took a
        route from (its own prefixes are in none), largest mask first,
        so a scan usually stops at the first; or, past
        :data:`_SCAN_LIMIT` pairs, the next hop of every bit
        (``_NO_ROUTE`` where it has none).
        """
        ups, peers, downs, order = solver
        n = len(ups)
        width = len(prefixes)
        everything = (1 << width) - 1
        bit_of = {prefix: bit for bit, prefix in enumerate(prefixes)}
        own = [0] * n
        for bit, origin in enumerate(origins):
            own[origin] |= 1 << bit
        # Per AS: its local and customer masks, then those of every class.
        customer: List[List[int]] = [[]] * n
        by_length: List[List[int]] = [[]] * n
        left = [everything] * n
        taken: List[Dict[int, int]] = [{} for _ in range(n)]

        def offer(x: int, rest: int, masks: List[int], sessions, offers) -> int:
            """Give ``x`` the prefixes of ``rest`` that ``sessions``
            ``(neighbour, scope)`` offer, shortest first, then by session
            order; return what stays unreached."""
            depth = max(len(offers[q]) for q, _ in sessions)
            got_from = taken[x]
            for level in range(depth):
                reached = 0
                for q, scope in sessions:
                    held = offers[q]
                    if level < len(held):
                        got = held[level] & scope & rest
                        if got:
                            got_from[q] = got_from.get(q, 0) | got
                            rest ^= got
                            reached |= got
                if reached:
                    if len(masks) < level + 2:
                        masks.extend([0] * (level + 2 - len(masks)))
                    masks[level + 1] |= reached
                if not rest:
                    break
            return rest

        for x in reversed(order):
            masks = [own[x]]
            rest = everything ^ own[x]
            if downs[x]:
                rest = offer(
                    x, rest, masks, [(c, everything) for c in downs[x]], customer
                )
            customer[x] = masks
            left[x] = rest
        for x in range(n):
            masks = list(customer[x])
            if peers[x] and left[x]:
                left[x] = offer(
                    x, left[x], masks, [(p, everything) for p in peers[x]], customer
                )
            by_length[x] = masks
        for x in order:
            if not ups[x] or not left[x]:
                continue
            for sessions in self._provider_groups(x, ups[x], bit_of, everything):
                left[x] = offer(x, left[x], by_length[x], sessions, by_length)
                if not left[x]:
                    break
        reach = [everything ^ rest for rest in left]
        picks: List = []
        for got_from in taken:
            if len(got_from) <= _SCAN_LIMIT:
                picks.append(
                    tuple(sorted(got_from.items(), key=_mask_size, reverse=True))
                )
                continue
            hops = [_NO_ROUTE] * width
            for hop, mask in got_from.items():
                for bit in _set_bits(mask):
                    hops[bit] = hop
            picks.append(hops)
        return reach, picks, _bit_counts(reach, width)

    def _provider_groups(
        self,
        x: int,
        providers: Tuple[int, ...],
        bit_of: Dict[Prefix, int],
        everything: int,
    ) -> List[List[Tuple[int, int]]]:
        """``x``'s provider sessions grouped by the LOCAL_PREF they give,
        highest first; each group lists ``(provider, prefix mask)`` in
        provider order.  A TE override's LOCAL_PREF covers the prefixes
        it names (all when it names none), the first matching override
        winning as in :meth:`RoutingPolicy.local_pref_for`; the scheme's
        provider value covers the rest."""
        policy = self._policy_of[x]
        if not policy.te_overrides:
            return [[(q, everything) for q in providers]]
        groups: Dict[int, List[Tuple[int, int]]] = {}
        for q in providers:
            asn = self._asns[q]
            rest = everything
            for override in policy.te_overrides:
                if override.neighbor != asn:
                    continue
                scope = rest
                if override.prefixes:
                    named = 0
                    for prefix in override.prefixes:
                        bit = bit_of.get(prefix)
                        if bit is not None:
                            named |= 1 << bit
                    scope &= named
                if scope:
                    groups.setdefault(override.local_pref, []).append((q, scope))
                    rest ^= scope
            if rest:
                groups.setdefault(policy.local_pref.provider, []).append((q, rest))
        return [groups[lp] for lp in sorted(groups, reverse=True)]

    # ------------------------------------------------------------------
    # replay: the event loop over interned state
    # ------------------------------------------------------------------
    def _propagate_prefix(self, prefix: Prefix, origin: int) -> int:
        """Event-faithful propagation of one prefix over interned state;
        returns the events it took.

        Keep in lockstep with ``PropagationSimulator._propagate_prefix``
        (queue discipline, withdrawal ordering, incremental decision
        shortcuts of ``BGPSpeaker.import_route``/``withdraw``) — the
        golden suite asserts identical event counts and routes.
        """
        plans = self._tables[prefix.afi]
        asns = self._asns
        cand = self._cand
        best_sender = self._best_sender
        best_key = self._best_key
        best_path = self._best_path
        best_rel = self._best_rel
        announced = self._announced
        queued = self._queued
        policy_of = self._policy_of
        lenf = self._lenf
        senf = self._senf
        scale = lenf * senf
        max_events = MAX_EVENTS_PER_PREFIX

        best_sender[origin] = _LOCAL_ROUTE
        best_path[origin] = (origin,)
        best_rel[origin] = 0

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
                # The decision key's (length, sender) term; each plan
                # entry carries the receiver's LOCAL_PREF term.
                tail = (lenf - 1 - len(path)) * senf + (senf - 1 - x)
                # Every exportable neighbour but the sender is announced
                # to; the withdrawals above took the sender out of `sent`.
                if sent is None:
                    sent = announced[x] = set(exportable_set)
                else:
                    sent |= exportable_set
                sent.discard(learned_from)
                for nb, recv_rel, lp_term in exportable:
                    if nb == learned_from:
                        continue
                    # --- BGPSpeaker.import_route over interned state ---
                    if nb in path:  # loop prevention, before any state write
                        continue
                    if lp_term is None:
                        lp, _override = policy_of[nb].local_pref_for(
                            asns[x], _LEARNED_CLASSES[recv_rel], prefix
                        )
                        lp_term = lp * scale
                    key = lp_term + tail
                    holders = cand[nb]
                    if holders is None:
                        holders = cand[nb] = {}
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
        return events
