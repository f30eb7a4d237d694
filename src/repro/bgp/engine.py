"""Propagation engine: one origin set over one topology, on a chosen backend.

:class:`PropagationEngine` is where the pluggable backends of
:mod:`repro.bgp.backends` become a configuration choice: ``engine``
selects ``array`` (the default: the event loop over interned arrays),
``event`` (the simulator the others are checked against),
``equilibrium`` (direct Gao-Rexford fixed point) or ``auto``
(equilibrium when the policies qualify, event otherwise).  Selection
happens once per :meth:`PropagationEngine.run` call, on the full origin
set.  When ``auto`` or ``equilibrium`` falls back to ``event``,
:meth:`~PropagationEngine.run` says so: one ``engine.fallback`` trace
counter (attributes ``engine`` and ``reason``) and one line on stderr
per call.

Every run is serial and in-process: the whole origin set propagates on
one fresh backend instance.  With ``engine="event"`` a run is exactly
:meth:`repro.bgp.propagation.PropagationSimulator.run`; the default
``array`` gives the same events and routes.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.bgp.backends import (
    BACKENDS,
    DEFAULT_ENGINE,
    ENGINE_CHOICES,
    EquilibriumBackend,
)
from repro.telemetry import get_tracer
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.propagation import PropagationResult
from repro.topology.graph import ASGraph


class PropagationEngine:
    """Propagate origin sets over one topology on the configured backend."""

    def __init__(
        self,
        graph: ASGraph,
        policies: Optional[Mapping[int, RoutingPolicy]] = None,
        max_events_per_prefix: int = 200_000,
        keep_ribs_for: Optional[Iterable[int]] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        """``engine`` picks the propagation backend (see
        :mod:`repro.bgp.backends`): ``array`` (default), ``event``,
        ``equilibrium`` or ``auto``.  ``equilibrium`` and ``auto`` fall
        back to the event backend when the policies are not vanilla
        Gao-Rexford (:meth:`select_backend` exposes the decision and the
        reason).
        """
        if engine not in ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
            )
        self.graph = graph
        self.policies = dict(policies) if policies is not None else None
        self.max_events_per_prefix = max_events_per_prefix
        self.keep_ribs_for = (
            sorted(keep_ribs_for) if keep_ribs_for is not None else None
        )
        self.engine = engine

    def select_backend(
        self, origins: Mapping[Prefix, int]
    ) -> Tuple[str, Optional[str]]:
        """Resolve the configured engine to ``(backend name, reason)``.

        ``event`` and ``array`` are unconditional.  ``equilibrium`` and
        ``auto`` resolve to the equilibrium solver only when it is
        applicable to every address family present in ``origins``;
        otherwise they resolve to ``event`` and the reason carries the
        (first) cause of the fallback (``None`` when nothing fell back).
        Pure: reporting a fallback is left to :meth:`run`.
        """
        if self.engine in ("event", "array"):
            return self.engine, None
        for afi in sorted({prefix.afi for prefix in origins}, key=lambda a: a.value):
            reason = EquilibriumBackend.inapplicable_reason(
                self.graph, self.policies, afi
            )
            if reason is not None:
                return "event", reason
        return "equilibrium", None

    def selection_report(self, origins: Mapping[Prefix, int]) -> Dict[str, object]:
        """Structured backend provenance for one origin set.

        The machine-readable counterpart of :meth:`select_backend`,
        surfaced by ``section3 --json`` so consumers can see which
        backend actually ran without parsing reason strings.
        """
        name, fallback = self.select_backend(origins)
        return {
            "engine": self.engine,
            "backend": name,
            "fallback_reason": fallback,
        }

    def _resolve_and_report(self, origins: Mapping[Prefix, int]) -> str:
        """:meth:`select_backend`, announcing a fallback (counter + stderr)."""
        name, reason = self.select_backend(origins)
        if reason is not None:
            get_tracer().counter("engine.fallback", engine=self.engine, reason=reason)
            print(
                f"[engine] {self.engine} fell back to event: {reason}",
                file=sys.stderr,
            )
        return name

    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        """Propagate ``origins`` on a fresh instance of the resolved backend.

        With ``engine="event"`` this is identical to
        ``PropagationSimulator.run``.
        """
        name = self._resolve_and_report(origins)
        tracer = get_tracer()
        with tracer.span(
            "propagation",
            backend=name,
            engine=self.engine,
            prefixes=len(origins),
        ) as span:
            with tracer.span("propagation.propagate", backend=name):
                result = BACKENDS[name](
                    self.graph,
                    self.policies,
                    max_events_per_prefix=self.max_events_per_prefix,
                    keep_ribs_for=self.keep_ribs_for,
                ).run(origins)
            span.annotate(events=result.events)
            return result
