"""Propagation engine: one origin set over one topology, on a chosen backend.

:class:`PropagationEngine` makes the two engines of
:mod:`repro.bgp.backends` a configuration choice: ``engine`` selects
``array`` (the default: :class:`~repro.bgp.backends.arraycore.ArrayBackend`)
or ``event`` (:class:`~repro.bgp.propagation.PropagationSimulator`, the
simulator ``array`` is checked against).  Both are valid for every
policy configuration, so the engine named is the backend that runs.

Every run is serial and in-process: the whole origin set propagates on
one fresh backend instance.  With ``engine="event"`` a run is exactly
:meth:`repro.bgp.propagation.PropagationSimulator.run`.  The default
``array`` gives the same routes and ``reachable_counts``; it solves each
plane whose stable state is unique and replays the event loop, with the
event engine's ``events``, on any other plane, so its ``events`` count
only the replayed planes.  The ``propagation`` span records which
method ran and why.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

from repro.bgp.backends import DEFAULT_ENGINE, ENGINE_CHOICES, engine_provenance
from repro.bgp.backends.arraycore import ArrayBackend
from repro.telemetry.tracer import get_tracer
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.results import PropagationResult
from repro.topology.graph import ASGraph


class PropagationEngine:
    """Propagate origin sets over one topology on the configured backend."""

    def __init__(
        self,
        graph: ASGraph,
        policies: Optional[Mapping[int, RoutingPolicy]] = None,
        keep_ribs_for: Optional[Iterable[int]] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        """``engine`` picks the propagation backend (see
        :mod:`repro.bgp.backends`): ``array`` (default) or ``event``.
        Any other name raises :class:`ValueError`.
        """
        if engine not in ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
            )
        self.graph = graph
        self.policies = dict(policies) if policies is not None else None
        self.keep_ribs_for = (
            sorted(keep_ribs_for) if keep_ribs_for is not None else None
        )
        self.engine = engine

    def selection_report(self, origins: Mapping[Prefix, int]) -> Dict[str, object]:
        """Structured backend provenance for one origin set
        (:func:`engine_provenance` of the configured engine, whatever
        the origins)."""
        return engine_provenance(self.engine)

    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        """Propagate ``origins`` on a fresh instance of the configured backend.

        With ``engine="event"`` this is identical to
        ``PropagationSimulator.run``.  The ``propagation`` span gets
        ``method`` (``solve`` when every plane was solved, else
        ``replay``) and ``method_reason`` (the first disqualifier that
        forced a replay, ``None`` when solved).
        """
        backend_cls = PropagationSimulator if self.engine == "event" else ArrayBackend
        tracer = get_tracer()
        with tracer.span(
            "propagation",
            backend=self.engine,
            engine=self.engine,
            prefixes=len(origins),
        ) as span:
            backend = backend_cls(
                self.graph, self.policies, keep_ribs_for=self.keep_ribs_for
            )
            result = backend.run(origins)
            if self.engine == "event":
                reasons = ["engine event"]
            else:
                reasons = [
                    reason
                    for method, reason in backend.methods.values()
                    if method == "replay"
                ]
            span.annotate(
                events=result.events,
                method="replay" if reasons else "solve",
                method_reason=reasons[0] if reasons else None,
            )
            return result
