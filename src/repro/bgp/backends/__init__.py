"""Pluggable propagation backends.

Three interchangeable implementations of route propagation sit behind
the :class:`~repro.bgp.backends.base.PropagationBackend` interface:

=============  ====================================================
``event``      The event-driven simulator — valid for every policy
               configuration; the oracle the others validate against.
``equilibrium``  Direct Gao-Rexford fixed-point computation — orders of
               magnitude faster, valid only for vanilla valley-free
               policies (explicit applicability check).
``array``      The event loop over interned int ids and flat arrays —
               same events, same routes, far less allocation.
=============  ====================================================

Callers normally go through :class:`~repro.bgp.engine.PropagationEngine`
(which adds ``auto`` selection and the equilibrium→event fallback)
rather than instantiating backends directly.  ``array`` is the default
engine; ``event`` stays the oracle that tests and CI check it against.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.bgp.backends.arraycore import ArrayBackend
from repro.bgp.backends.base import (
    BackendNotApplicable,
    PropagationBackend,
    imported_route,
    install_converged_routes,
    speakers_without_sessions,
)
from repro.bgp.backends.equilibrium import EquilibriumBackend
from repro.bgp.backends.event import EventBackend

#: Concrete backends by engine-config name.  ``auto`` is not a backend:
#: the engine resolves it to one of these per run.
BACKENDS: Dict[str, Type[PropagationBackend]] = {
    EventBackend.name: EventBackend,
    EquilibriumBackend.name: EquilibriumBackend,
    ArrayBackend.name: ArrayBackend,
}

#: Valid values of the ``propagation.engine`` config field.
ENGINE_CHOICES = ("event", "equilibrium", "array", "auto")

#: The engine every entry point uses unless told otherwise.
DEFAULT_ENGINE = "array"

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "BackendNotApplicable",
    "DEFAULT_ENGINE",
    "ENGINE_CHOICES",
    "EquilibriumBackend",
    "EventBackend",
    "PropagationBackend",
    "imported_route",
    "install_converged_routes",
    "speakers_without_sessions",
]
