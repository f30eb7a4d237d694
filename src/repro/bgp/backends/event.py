"""The event-driven backend — a thin wrapper around the simulator.

:class:`~repro.bgp.propagation.PropagationSimulator` predates the
backend interface and remains directly usable; this adapter gives it a
:class:`~repro.bgp.backends.base.PropagationBackend` face so the engine
can treat both backends uniformly.  It is the oracle ``array`` is
cross-validated against.
"""

from __future__ import annotations

from typing import Mapping

from repro.bgp.backends.base import PropagationBackend
from repro.bgp.prefixes import Prefix
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.results import PropagationResult


class EventBackend(PropagationBackend):
    """Event-driven propagation (see :mod:`repro.bgp.propagation`)."""

    name = "event"

    def __init__(self, graph, policies=None, max_events_per_prefix=200_000, keep_ribs_for=None):
        super().__init__(graph, policies, max_events_per_prefix, keep_ribs_for)
        self._simulator = PropagationSimulator(
            graph,
            policies,
            max_events_per_prefix=max_events_per_prefix,
            keep_ribs_for=keep_ribs_for,
        )

    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        return self._simulator.run(origins)
