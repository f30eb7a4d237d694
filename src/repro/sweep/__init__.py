"""Parameter-grid scenario runner over the shared artifact cache.

The sweep subsystem treats a *population of scenarios* — not one run —
as the unit of work:

* :mod:`repro.sweep.grid` — declarative sweep specs: axes over
  ``PipelineConfig`` fields expand into concrete configurations with
  stable scenario ids,
* :mod:`repro.sweep.planner` — fingerprint-level dedup: shared upstream
  slices are identified before execution,
* :mod:`repro.sweep.executor` — runs the scenarios one at a time in
  declaration order, so each shared slice is computed exactly once;
  per-scenario failure isolation and resume-from-cache on rerun,
* :mod:`repro.sweep.report` — cross-scenario delta tables and
  seed-variance statistics with t-based confidence intervals
  (JSON + markdown).

CLI entry point: ``repro sweep --grid grid.json --cache-dir DIR``.
See the "Sweeps" section of ``docs/architecture.md``.
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
]
