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

#: Valid values of the ``propagation.engine`` config field and ``--engine``
#: (the keys of :data:`repro.bgp.engine.BACKENDS`).  Naming the engines
#: here, not importing the backend classes, keeps this module free of
#: the propagation code, so the CLI and the pipeline config can validate
#: an engine name without loading an engine.
ENGINE_CHOICES = ("event", "array")

#: The engine every entry point uses unless told otherwise.
DEFAULT_ENGINE = "array"
