"""The two propagation engines and their names.

Both engines turn ``(graph, policies, origins)`` into a converged
:class:`~repro.bgp.results.PropagationResult`, and both are valid for
every policy configuration:

=========  ========================================================
``event``  :class:`~repro.bgp.propagation.PropagationSimulator`, the
           event-driven simulator — the oracle ``array`` is checked
           against.
``array``  :class:`~repro.bgp.backends.arraycore.ArrayBackend`, over
           interned int ids and flat arrays: it solves each plane whose
           Gao–Rexford stable state is unique, route class by route
           class, and replays the event loop on any other plane.
=========  ========================================================

Contract (pinned by the cross-backend suite): for the same inputs both
produce identical best routes, ``reachable_counts`` and, in pruned
mode, identical kept state.  ``events`` are identical on the planes
``array`` replays; a plane it solves runs no events and counts 0.
Callers normally go through :class:`~repro.bgp.engine.PropagationEngine`,
which builds the one the ``engine`` name selects.  ``array`` is the
default engine.
"""

from typing import Dict

#: Valid values of the ``propagation.engine`` config field and ``--engine``.
#: Naming the engines here, not importing the engine classes, keeps this
#: module free of the propagation code, so the CLI and the pipeline
#: config can validate an engine name without loading an engine.
ENGINE_CHOICES = ("event", "array")

#: The engine every entry point uses unless told otherwise.
DEFAULT_ENGINE = "array"


def engine_provenance(engine: str) -> Dict[str, object]:
    """Which backend a run configured with ``engine`` used, and why.

    The per-plane entry of ``section3 --json``'s ``provenance`` block,
    defined here so the CLI builds it without loading an engine.
    ``backend`` is always ``engine`` (no engine falls back), and
    ``fallback_reason`` is always ``None``; both keys stay so the report
    keeps its shape.
    """
    return {"engine": engine, "backend": engine, "fallback_reason": None}
