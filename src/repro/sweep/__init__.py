"""Parameter-grid scenario runner over the shared artifact cache.

The sweep subsystem treats a *population of scenarios* — not one run —
as the unit of work:

* :mod:`repro.sweep.grid` — declarative sweep specs: axes over
  ``PipelineConfig`` fields expand into concrete configurations with
  stable scenario ids,
* :mod:`repro.sweep.planner` — fingerprint-level dedup: shared upstream
  slices are identified before execution and scheduled into waves so
  each is computed exactly once,
* :mod:`repro.sweep.executor` — serial/thread/process execution with
  per-scenario failure isolation, resume-from-cache on rerun, and
  optional post-wave cache-budget pruning,
* :mod:`repro.sweep.report` — cross-scenario delta tables and
  seed-variance statistics with t-based confidence intervals
  (JSON + markdown).

CLI entry point: ``repro sweep --grid grid.json --cache-dir DIR``
(add ``--executor process`` to run each wave's scenarios in worker
processes).  See the "Sweeps" section of ``docs/architecture.md``.
"""

from repro.sweep.executor import ScenarioResult, SweepResult, run_sweep
from repro.sweep.grid import (
    GRID_SCHEMA_VERSION,
    GridAxis,
    GridError,
    Scenario,
    SweepGrid,
    apply_overrides,
)
from repro.sweep.planner import DEFAULT_TARGETS, ScenarioPlan, SweepPlan, plan_sweep
from repro.sweep.report import (
    SWEEP_REPORT_SCHEMA_VERSION,
    build_report,
    confidence_interval,
    render_markdown,
    scenario_metrics,
    t_critical_95,
    write_json_report,
)

__all__ = [
    "GRID_SCHEMA_VERSION",
    "SWEEP_REPORT_SCHEMA_VERSION",
    "DEFAULT_TARGETS",
    "GridAxis",
    "GridError",
    "Scenario",
    "ScenarioPlan",
    "ScenarioResult",
    "SweepGrid",
    "SweepPlan",
    "SweepResult",
    "apply_overrides",
    "build_report",
    "confidence_interval",
    "plan_sweep",
    "render_markdown",
    "run_sweep",
    "scenario_metrics",
    "t_critical_95",
    "write_json_report",
]
