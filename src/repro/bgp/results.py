"""Propagation outcomes, shared by every propagation backend.

:class:`PropagationResult` is the **engine-agnostic contract** of the
propagation subsystem: whichever backend computed it (the event-driven
simulator or the array-native core — see :mod:`repro.bgp.backends`),
downstream consumers read the same shape:

* ``speakers`` — converged :class:`~repro.bgp.router.BGPSpeaker`
  objects whose Loc-RIBs hold the best routes (the collectors snapshot
  these),
* ``reachable_counts`` — per-prefix reachability, available even when
  RIBs were pruned to the vantage points, and
* ``events`` — the number of best-route changes processed (the same
  count on both backends for a plane ``array`` replays; 0 for a plane
  it solves).

This module also hosts :class:`ConvergenceError`, the event budget
:data:`MAX_EVENTS_PER_PREFIX` and the :func:`originate_one_prefix_per_as`
convenience so backends do not have to import the event simulator module
just for its result types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.core.relationships import AFI
from repro.bgp.messages import Route
from repro.bgp.prefixes import Prefix
from repro.bgp.rib import RibSnapshot
from repro.bgp.router import BGPSpeaker
from repro.topology.graph import ASGraph


class ConvergenceError(RuntimeError):
    """Raised when propagation does not quiesce within the event budget,
    or when a converged route's stored AS path is inconsistent (it
    crosses a pair with no known relationship or misses the origin)."""


#: Events one prefix may take to quiesce before its event loop (the
#: ``event`` engine's, or the replay of ``array``) raises
#: :class:`ConvergenceError`.
MAX_EVENTS_PER_PREFIX = 200_000


@dataclass
class PropagationResult:
    """Outcome of a propagation run.

    Attributes:
        speakers: The fully converged speakers, keyed by ASN.
        origins: Which AS originated which prefix.
        events: Number of best-route changes processed (a measure of
            convergence work, reported by the benchmarks).  ``0`` for
            backends that compute the converged state directly.
        reachable_counts: For every propagated prefix, the number of ASes
            that ended up with a route to it (including the origin).
            Available even when per-AS RIBs were pruned to save memory.
    """

    speakers: Dict[int, BGPSpeaker]
    origins: Dict[Prefix, int]
    events: int = 0
    reachable_counts: Dict[Prefix, int] = field(default_factory=dict)

    def snapshot(self, asn: int) -> RibSnapshot:
        """Frozen Loc-RIB of one AS."""
        return self.speakers[asn].snapshot()

    def best_route(self, asn: int, prefix: Prefix) -> Optional[Route]:
        """Best route of ``asn`` towards ``prefix`` (``None`` if unreachable)."""
        return self.speakers[asn].best_route(prefix)

    def best_path(self, asn: int, prefix: Prefix) -> Optional[Tuple[int, ...]]:
        """The full AS path (including ``asn``) towards ``prefix``."""
        route = self.best_route(asn, prefix)
        if route is None:
            return None
        return route.full_path()


def originate_one_prefix_per_as(
    graph: ASGraph,
    afi: AFI,
    allocator=None,
    ases: Optional[Iterable[int]] = None,
) -> Dict[Prefix, int]:
    """Convenience helper: every AS (in ``afi``) originates one prefix.

    ``allocator`` defaults to a fresh
    :class:`~repro.bgp.prefixes.PrefixAllocator`.
    """
    from repro.bgp.prefixes import PrefixAllocator

    allocator = allocator or PrefixAllocator()
    selected = list(ases) if ases is not None else graph.ases_in(afi)
    origins: Dict[Prefix, int] = {}
    for asn in selected:
        if not graph.node(asn).supports(afi):
            continue
        origins[allocator.prefix(asn, afi)] = asn
    return origins
