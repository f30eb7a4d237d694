"""The propagation-backend interface and the session-less speaker helper.

A *backend* turns ``(graph, policies, origins)`` into a converged
:class:`~repro.bgp.results.PropagationResult`.  Two implementations
exist, both valid for every policy configuration:

``event``
    The event-driven :class:`~repro.bgp.propagation.PropagationSimulator`
    — the oracle, and the only backend that populates Adj-RIB-In state.
``array``
    A faithful port of the event loop over dense integer ids and flat
    per-AS arrays — bit-identical to ``event`` (same event ordering,
    same event *count*), with routes materialized from their stored AS
    paths once at quiescence instead of once per event.  The default
    engine.

Contract (pinned by the cross-backend suite): for the same inputs both
backends produce identical best routes (Loc-RIB contents, attribute for
attribute), identical ``reachable_counts``, identical ``events`` and —
in pruned mode — identical kept state.  Adj-RIB-In state is an
``event``-only artifact: ``array`` leaves it empty (nothing downstream
of propagation reads it — collectors snapshot Loc-RIBs).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterable, Mapping, Optional

from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.results import PropagationResult
from repro.bgp.router import BGPSpeaker
from repro.topology.graph import ASGraph


class PropagationBackend(ABC):
    """One way of computing a converged :class:`PropagationResult`.

    Backends share the constructor signature of the event simulator so
    the engine can instantiate any of them interchangeably.  A backend
    instance is single-shot per :meth:`run` call semantics-wise: every
    call starts from a clean converged-state computation (the event
    simulator additionally supports incremental re-runs on one
    instance, but the engine never relies on that).
    """

    #: Engine-config name of the backend (``event`` or ``array``).
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

    @abstractmethod
    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        """Originate ``origins`` and return the converged result."""


def speakers_without_sessions(
    graph: ASGraph, policies: Mapping[int, RoutingPolicy]
) -> Dict[int, BGPSpeaker]:
    """One session-less :class:`BGPSpeaker` per AS in the graph.

    The ``array`` backend computes routing over interned adjacency
    structures and only needs speakers as Loc-RIB holders for the
    result; skipping session construction keeps result assembly
    O(ASes) instead of O(links).
    """
    return {asn: BGPSpeaker(asn, policies.get(asn)) for asn in graph.ases}
