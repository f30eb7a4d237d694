"""Sweep execution: many scenarios, one artifact cache, isolated failures.

:func:`run_sweep` runs the scenarios of a planned sweep (see
:mod:`repro.sweep.planner`) one at a time, in declaration order, in
this process.  Every stage a scenario computes lands in the shared
:class:`~repro.pipeline.ArtifactCache` before the next scenario starts,
so every distinct stage invocation is computed exactly once and reused
by every later scenario that needs it.

The sweep never evicts: ``repro cache prune`` is the one way to bound
the cache.  An artifact evicted (or corrupted) under a running sweep
costs exactly-once, not correctness — the recompute shows up in the
per-fingerprint counters, never as an error.

Failure isolation: a scenario that raises is recorded as ``"failed"``
with its error message; every other scenario still runs.  A rerun of
the same sweep against the same cache resumes from whatever the failed
run managed to cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.correction import correction_payload
from repro.pipeline import PipelineRun, StageSpec, make_runner
from repro.pipeline.runner import StageFailure
from repro.sweep.grid import Scenario, SweepGrid
from repro.sweep.planner import DEFAULT_TARGETS, ScenarioPlan, SweepPlan, plan_sweep
from repro.telemetry.tracer import get_tracer


@dataclass
class ScenarioResult:
    """The outcome of one grid cell."""

    scenario_id: str
    overrides: Dict[str, object]
    status: str  # "ok" | "failed"
    error: Optional[str] = None
    seconds: float = 0.0
    stage_statuses: Dict[str, str] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    section3: Optional[Dict[str, float]] = None
    correction: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def computed_stages(self) -> List[str]:
        return [s for s, status in self.stage_statuses.items() if status == "computed"]


@dataclass
class SweepResult:
    """Everything one sweep execution produced."""

    targets: Tuple[str, ...]
    plan: SweepPlan
    results: List[ScenarioResult]
    seconds: float
    cache_dir: Optional[str]

    def by_id(self) -> Dict[str, ScenarioResult]:
        return {result.scenario_id: result for result in self.results}

    def ok(self) -> List[ScenarioResult]:
        return [result for result in self.results if result.ok]

    def failed(self) -> List[ScenarioResult]:
        return [result for result in self.results if not result.ok]

    # ------------------------------------------------------------------
    # cache accounting (cacheable stages only — a cacheable=False stage
    # is recomputed by every scenario by design, see SweepPlan)
    # ------------------------------------------------------------------
    def _cacheable_computed(self, result: ScenarioResult) -> List[str]:
        return [
            stage
            for stage in result.computed_stages()
            if stage not in self.plan.noncacheable_stages
        ]

    def computed_counts(self) -> Dict[str, int]:
        """Fingerprint -> how many times the sweep computed it.

        With a shared cache every count must be 1 (scenarios run one at
        a time, so each reuses what the earlier ones cached); without a
        cache shared fingerprints are recomputed per scenario.
        """
        counts: Dict[str, int] = {}
        for result in self.results:
            for stage in self._cacheable_computed(result):
                fingerprint = result.fingerprints[stage]
                counts[fingerprint] = counts.get(fingerprint, 0) + 1
        return counts

    def duplicate_computes(self) -> Dict[str, int]:
        """Fingerprints computed more than once (empty = perfect dedup)."""
        return {fp: n for fp, n in self.computed_counts().items() if n > 1}

    def cache_counters(self) -> Dict[str, int]:
        """Aggregate cacheable stage-invocation counters, all scenarios."""
        computed = cached = 0
        for result in self.results:
            for stage, status in result.stage_statuses.items():
                if stage in self.plan.noncacheable_stages:
                    continue
                if status == "computed":
                    computed += 1
                else:
                    cached += 1
        return {"computed": computed, "cached": cached}

    def fully_cached(self) -> bool:
        """True when every scenario ran and no cacheable stage recomputed."""
        return bool(self.results) and not self.failed() and all(
            not self._cacheable_computed(result) for result in self.results
        )


def _run_scenario(
    plan: ScenarioPlan,
    cache_dir: Optional[str],
    targets: Tuple[str, ...],
    stages: Optional[Sequence[StageSpec]],
) -> ScenarioResult:
    """Run one scenario's pipeline, containing any failure.

    A :class:`StageFailure` keeps the partial stage statuses: the stages
    that completed (and were cached) before the failure feed the
    sweep's exactly-once accounting.  Any other error keeps only the
    planned fingerprints.
    """
    config = plan.scenario.config
    result = ScenarioResult(
        scenario_id=plan.scenario_id,
        overrides=plan.scenario.overrides_dict(),
        status="ok",
    )
    run: Optional[PipelineRun] = None
    started = time.perf_counter()
    try:
        run = make_runner(cache_dir, stages).run(config, targets=targets)
        if "section3" in targets:
            result.section3 = run.value("section3").as_dict()
        if "correction" in targets:
            result.correction = correction_payload(run.value("correction"), config.top)
    except StageFailure as exc:
        result.status, result.error = "failed", str(exc)
        run = exc.run
    except Exception as exc:  # noqa: BLE001 - failure isolation
        result.status, result.error = "failed", f"{type(exc).__name__}: {exc}"
        run = None
    result.seconds = time.perf_counter() - started
    if run is None:
        result.fingerprints = dict(plan.fingerprints)
    else:
        result.stage_statuses = dict(run.statuses)
        result.fingerprints = dict(run.fingerprints)
    return result


def run_sweep(
    grid: Union[SweepGrid, SweepPlan, Sequence[Scenario]],
    cache_dir: Optional[str] = None,
    targets: Sequence[str] = DEFAULT_TARGETS,
    stages: Optional[Sequence[StageSpec]] = None,
) -> SweepResult:
    """Run every scenario of a grid over one shared artifact cache.

    ``grid`` may be a :class:`SweepGrid`, a scenario sequence, or a
    ready :class:`SweepPlan` (e.g. one already built for a pre-flight
    summary — passing it through guarantees the announced plan is the
    executed plan; its embedded targets override the ``targets``
    argument, and it must have been planned over the same ``stages``).

    Without ``cache_dir`` nothing can be shared: the sweep degenerates
    to independent full runs, which is exactly the baseline the sweep
    tests compare the cached cells against.

    An active tracer (``repro sweep --trace-dir``) records one
    ``sweep`` span with every scenario's ``pipeline`` span nested in it;
    tracing never changes a result.
    """
    if isinstance(grid, SweepPlan):
        plan = grid
    else:
        scenarios = grid.expand() if isinstance(grid, SweepGrid) else list(grid)
        plan = plan_sweep(scenarios, targets=targets, stages=stages)
    cache_str = str(cache_dir) if cache_dir is not None else None

    results: List[ScenarioResult] = []
    started = time.perf_counter()
    with get_tracer().span("sweep", scenarios=len(plan.plans)):
        for scenario_plan in plan.plans:
            results.append(
                _run_scenario(scenario_plan, cache_str, plan.targets, stages)
            )
    return SweepResult(
        targets=plan.targets,
        plan=plan,
        results=results,
        seconds=time.perf_counter() - started,
        cache_dir=cache_str,
    )
