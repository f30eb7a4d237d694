"""Deterministic fault injection for chaos-testing the artifact cache.

The package contributes no behaviour to a healthy run; it exists to
make unhealthy runs *reproducible*.  A :class:`FaultPlan` scripts which
operation calls fail and how; :class:`FaultInjectingBackend` executes
the plan against cache storage and :func:`intercept_stage` inside the
pipeline DAG.  ``fault://PLAN.json!INNER`` cache specs (see
:func:`repro.cluster.backends.open_backend`) thread a plan through a
sweep and into its pool processes with zero new parameters.
"""

from repro.faults.backend import FaultInjectingBackend
from repro.faults.hooks import intercept_stage
from repro.faults.plan import (
    FAULT_KINDS,
    FAULT_PLAN_SCHEMA_VERSION,
    WORKER_ID_ENV,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    FaultState,
    shared_state,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_SCHEMA_VERSION",
    "WORKER_ID_ENV",
    "FaultInjectingBackend",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "FaultState",
    "intercept_stage",
    "shared_state",
]
