"""Pluggable propagation backends.

Two interchangeable implementations of route propagation sit behind
the :class:`~repro.bgp.backends.base.PropagationBackend` interface,
both valid for every policy configuration:

=========  ========================================================
``event``  The event-driven simulator — the oracle ``array`` is
           checked against.
``array``  The event loop over interned int ids and flat arrays —
           same events, same routes, far less allocation.
=========  ========================================================

Callers normally go through :class:`~repro.bgp.engine.PropagationEngine`
rather than instantiating backends directly.  ``array`` is the default
engine; ``event`` stays the oracle that tests and CI check it against.
"""

from __future__ import annotations

from typing import Dict, Type

from repro.bgp.backends.arraycore import ArrayBackend
from repro.bgp.backends.base import (
    PropagationBackend,
    imported_route,
    speakers_without_sessions,
)
from repro.bgp.backends.event import EventBackend

#: Concrete backends by engine-config name.
BACKENDS: Dict[str, Type[PropagationBackend]] = {
    EventBackend.name: EventBackend,
    ArrayBackend.name: ArrayBackend,
}

#: Valid values of the ``propagation.engine`` config field and ``--engine``.
ENGINE_CHOICES = tuple(BACKENDS)

#: The engine every entry point uses unless told otherwise.
DEFAULT_ENGINE = "array"

__all__ = [
    "ArrayBackend",
    "BACKENDS",
    "DEFAULT_ENGINE",
    "ENGINE_CHOICES",
    "EventBackend",
    "PropagationBackend",
    "imported_route",
    "speakers_without_sessions",
]
