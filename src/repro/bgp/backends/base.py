"""The propagation-backend interface and shared materialization helpers.

A *backend* turns ``(graph, policies, origins)`` into a converged
:class:`~repro.bgp.results.PropagationResult`.  Three implementations
exist:

``event``
    The event-driven :class:`~repro.bgp.propagation.PropagationSimulator`
    — the oracle.  Valid for **every** policy configuration; also the
    only backend that populates Adj-RIB-In state.
``equilibrium``
    Direct fixed-point computation by preference-ordered BFS over the
    customer → peer → provider route classes.  Only valid for vanilla
    Gao-Rexford policies (:meth:`PropagationBackend.inapplicable_reason`
    is the explicit applicability check); the engine falls back to
    ``event`` otherwise.
``array``
    A faithful port of the event loop over dense integer ids and flat
    per-AS arrays — bit-identical to ``event`` (same event ordering,
    same event *count*) for arbitrary policies, with routes
    materialized from their stored AS paths once at quiescence instead
    of once per event.  The default engine.

Contract (pinned by the golden cross-validation suite): for the same
inputs every backend produces identical best routes (Loc-RIB contents,
attribute for attribute), identical ``reachable_counts`` and — in
pruned mode — identical kept state.  ``events`` is part of the
contract only between ``event`` and ``array``; the equilibrium solver
reports ``0``.  Adj-RIB-In state is an ``event``-only artifact: the
solver backends leave it empty (nothing downstream of propagation
reads it — collectors snapshot Loc-RIBs).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.relationships import AFI, Relationship
from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import Route
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.results import ConvergenceError, PropagationResult
from repro.bgp.router import BGPSpeaker
from repro.topology.graph import ASGraph


class BackendNotApplicable(RuntimeError):
    """A backend was asked to run a configuration it cannot solve.

    Raised by :meth:`PropagationBackend.run` when the backend's
    applicability check fails; carries the human-readable reason.  The
    engine checks applicability *before* instantiating a backend and
    falls back to ``event``, so this surfaces only on direct use.
    """


class PropagationBackend(ABC):
    """One way of computing a converged :class:`PropagationResult`.

    Backends share the constructor signature of the event simulator so
    the engine can instantiate any of them interchangeably.  A backend
    instance is single-shot per :meth:`run` call semantics-wise: every
    call starts from a clean converged-state computation (the event
    simulator additionally supports incremental re-runs on one
    instance, but the engine never relies on that).
    """

    #: Engine-config name of the backend (``event``/``equilibrium``/...).
    name: str = ""

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
        self.keep_ribs_for = (
            set(keep_ribs_for) if keep_ribs_for is not None else None
        )

    @classmethod
    def inapplicable_reason(
        cls,
        graph: ASGraph,
        policies: Optional[Mapping[int, RoutingPolicy]],
        afi: AFI,
    ) -> Optional[str]:
        """Why this backend cannot solve the given plane (``None`` = it can).

        The base implementation accepts everything; restricted backends
        (the equilibrium solver) override it.  The engine consults this
        for ``auto`` selection and for the documented
        equilibrium-to-event fallback.
        """
        return None

    @abstractmethod
    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        """Originate ``origins`` and return the converged result."""


# ----------------------------------------------------------------------
# shared converged-route materialization
# ----------------------------------------------------------------------
def imported_route(
    speaker: BGPSpeaker,
    prefix: Prefix,
    sender: int,
    relationship: Relationship,
    attributes: PathAttributes,
) -> Route:
    """The route ``speaker`` installs after import processing.

    Replicates the attribute transformation of
    :meth:`BGPSpeaker.import_route` (LOCAL_PREF assignment, community
    tagging) without any RIB side effects — keep the two in sync; the
    golden cross-backend suite pins them against each other.  Always
    consults the policy hooks: for vanilla policies that is exactly
    what the event loop's defaults cache snapshots, and for custom
    policies it is what the event loop does per route anyway.
    """
    policy = speaker.policy
    local_pref, override = policy.local_pref_for(sender, relationship, prefix)
    added = tuple(policy.import_communities(relationship, override))
    if added:
        attributes = attributes.add_communities(added)
    attributes = PathAttributes(
        as_path=attributes.as_path,
        local_pref=local_pref,
        med=attributes.med,
        origin=attributes.origin,
        next_hop=attributes.next_hop,
        communities=attributes.communities,
    )
    return Route(
        prefix=prefix,
        holder=speaker.asn,
        attributes=attributes,
        learned_from=sender,
        learned_relationship=relationship,
    )


def install_converged_routes(
    speakers: Dict[int, BGPSpeaker],
    prefix: Prefix,
    origin_asn: int,
    targets: Iterable[int],
    resolve: Callable[[int], Tuple[int, Relationship]],
) -> None:
    """Materialize and install the converged best routes for one prefix.

    ``resolve(asn)`` returns ``(best_sender, learned_relationship)`` for
    any AS that holds a (non-local) route — the converged best-sender
    forest the equilibrium solver computed.  (The ``array`` backend
    cannot use this walk: some of its routes are stale entries that no
    longer match the sender's best route, so it rebuilds each route
    from its stored path instead.)  Routes are rebuilt by walking
    each target's sender chain down to the origin and applying the
    *real* export/import transformations edge by edge (the sender's
    :meth:`BGPSpeaker.exported_attributes`, then :func:`imported_route`
    at the receiver), so attributes — AS path, LOCAL_PREF, communities
    — are bit-identical to what the event loop would have installed.
    Intermediate chain routes are memoized per prefix; only ``targets``
    are actually installed (pruned mode passes the kept ASes).

    A consistent forest reaches the origin in fewer hops than there are
    speakers, so a longer chain must contain a cycle: the walk raises
    :class:`ConvergenceError` naming it instead of looping forever.
    """
    routes: Dict[int, Route] = {}
    max_hops = len(speakers)

    def route_for(asn: int) -> Route:
        route = routes.get(asn)
        if route is not None:
            return route
        chain: List[int] = []
        node = asn
        while True:
            if node == origin_asn:
                base = routes.get(node)
                if base is None:
                    base = routes[node] = Route.originate(prefix, node)
                break
            chain.append(node)
            if len(chain) > max_hops:
                raise ConvergenceError(
                    f"best-sender chain for {prefix} (origin AS{origin_asn}) "
                    f"loops: {_describe_cycle(node, resolve)}"
                )
            node = resolve(node)[0]
            base = routes.get(node)
            if base is not None:
                break
        for hop in reversed(chain):
            sender, relationship = resolve(hop)
            exported = speakers[sender].exported_attributes(routes[sender])
            routes[hop] = imported_route(
                speakers[hop], prefix, sender, relationship, exported
            )
        return routes[asn]

    for target in targets:
        if target == origin_asn:
            # Exactly like the event path: the origin keeps its locally
            # originated route (Loc-RIB entry + local-routes table).
            speakers[target].originate(prefix)
        else:
            speakers[target].loc_rib._routes[prefix] = route_for(target)


def _describe_cycle(start: int, resolve: Callable[[int], Tuple[int, Relationship]]) -> str:
    """``"AS7 -> AS8 -> AS7"``: the sender cycle reached from ``start``,
    written from its lowest ASN."""
    position: Dict[int, int] = {}
    walk: List[int] = []
    node = start
    while node not in position:
        position[node] = len(walk)
        walk.append(node)
        node = resolve(node)[0]
    cycle = walk[position[node]:]
    first = cycle.index(min(cycle))
    cycle = cycle[first:] + cycle[:first] + [cycle[first]]
    return " -> ".join(f"AS{asn}" for asn in cycle)


def speakers_without_sessions(
    graph: ASGraph, policies: Mapping[int, RoutingPolicy]
) -> Dict[int, BGPSpeaker]:
    """One session-less :class:`BGPSpeaker` per AS in the graph.

    Solver backends compute routing over interned adjacency structures
    and only need speakers as Loc-RIB holders for the result; skipping
    session construction keeps result assembly O(ASes) instead of
    O(links).
    """
    return {asn: BGPSpeaker(asn, policies.get(asn)) for asn in graph.ases}
