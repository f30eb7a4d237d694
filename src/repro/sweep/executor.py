"""Sweep execution: many scenarios, one artifact cache, isolated failures.

:func:`run_sweep` executes a planned sweep wave by wave (see
:mod:`repro.sweep.planner`): scenarios within a wave never claim the
same not-yet-computed fingerprint, so they can run concurrently while
every distinct stage invocation is still computed exactly once and
reused through the shared :class:`~repro.pipeline.ArtifactCache` by
every later scenario that needs it.

Executors:

* ``"serial"`` — one scenario at a time in this process.  Combine with
  ``propagation_workers`` to parallelize *inside* each scenario instead:
  the propagation stages then run through
  :meth:`~repro.bgp.engine.PropagationEngine.run_many`, whose
  fork-sharing machinery ships the graph and policies to process
  workers by fork inheritance (bit-identical to serial, so cached
  artifacts and fingerprints are unaffected).
* ``"thread"`` (default) — scenarios of a wave run on a thread pool.
  CPython's GIL bounds the speedup for this pure-Python workload, but
  cache I/O and the many small stages overlap, and the mode is ready
  for free-threaded builds.
* ``"process"`` — scenarios of a wave run on a process pool.  Only the
  small pickled ``PipelineConfig`` and the result payload cross the
  boundary; all artifact sharing happens through the on-disk cache,
  which is what makes cross-process reuse safe (atomic writes,
  hash-verified reads).  Requires the default stage DAG (a custom
  ``stages`` list may close over unpicklable state).

Cache hygiene: ``cache_budget_bytes`` prunes the shared cache down to
the budget after every wave (age-then-LRU, the ``repro cache prune``
logic), so long campaigns stay inside a disk quota.  A budget tight
enough to evict artifacts a *later* wave still needs trades the
exactly-once guarantee for the quota — the recompute shows up in the
per-fingerprint counters, never as an error.

Failure isolation: a scenario that raises is recorded as ``"failed"``
with its error message; every other scenario still runs.  A rerun of
the same sweep against the same cache resumes from whatever the failed
run managed to cache.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.correction import correction_payload
from repro.pipeline import PipelineConfig, StageSpec, make_runner, run_pipeline
from repro.pipeline.runner import StageFailure
from repro.pipeline.stages import propagation_parallelism
from repro.sweep.grid import Scenario, SweepGrid
from repro.sweep.planner import DEFAULT_TARGETS, ScenarioPlan, SweepPlan, plan_sweep
from repro.telemetry import TelemetryConfig, Tracer, activated, get_tracer

_EXECUTORS = ("serial", "thread", "process")


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
    executor: str
    cache_dir: Optional[str]
    waves: List[List[str]] = field(default_factory=list)

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

        With a shared cache every count must be 1 (the wave schedule
        guarantees it as long as no scenario fails); without a cache
        shared fingerprints are recomputed per scenario.
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


# ----------------------------------------------------------------------
# per-scenario execution (module-level: picklable for process pools)
# ----------------------------------------------------------------------
def _execute_scenario(
    config: PipelineConfig,
    cache_dir: Optional[str],
    targets: Tuple[str, ...],
    stages: Optional[Sequence[StageSpec]] = None,
) -> Dict[str, object]:
    """Run one scenario's pipeline; returns a picklable payload.

    A :class:`StageFailure` is converted to a ``"failed"`` payload
    *here* — inside the worker — keeping the partial stage outcomes
    (the stages that completed and were cached before the failure feed
    the sweep's exactly-once accounting) while never asking a process
    pool to pickle the unpicklable partial run.
    """
    started = time.perf_counter()
    try:
        if stages is None:
            run = run_pipeline(config, cache_dir=cache_dir, targets=targets)
        else:
            run = make_runner(cache_dir, stages).run(config, targets=targets)
        payload: Dict[str, object] = {
            "status": "ok",
            "error": None,
            "stage_statuses": {o.stage: o.status for o in run.outcomes},
            "fingerprints": dict(run.fingerprints),
            "section3": None,
            "correction": None,
        }
        if "section3" in targets:
            payload["section3"] = run.value("section3").as_dict()
        if "correction" in targets:
            payload["correction"] = correction_payload(
                run.value("correction"), config.top, config.max_sources
            )
    except StageFailure as exc:
        payload = {
            "status": "failed",
            "error": str(exc),
            "stage_statuses": {o.stage: o.status for o in exc.run.outcomes},
            "fingerprints": dict(exc.run.fingerprints),
            "section3": None,
            "correction": None,
        }
    payload["seconds"] = time.perf_counter() - started
    return payload


def with_trace_context(
    config: PipelineConfig, context: Optional[TelemetryConfig]
) -> PipelineConfig:
    """Stamp a trace context onto a scenario config (fingerprint-neutral:
    ``telemetry`` is in no stage's config slice).  Configs without a
    ``telemetry`` field pass through untouched."""
    if context is None:
        return config
    try:
        return dataclasses.replace(config, telemetry=context)
    except TypeError:
        return config


def _process_task(
    scenario_id: str,
    config: PipelineConfig,
    cache_dir: Optional[str],
    targets: Tuple[str, ...],
) -> Tuple[str, Dict[str, object]]:
    """Process-pool entry point (default stage DAG only)."""
    return scenario_id, _execute_scenario(config, cache_dir, targets)


def _result_from_payload(
    plan: ScenarioPlan, payload: Dict[str, object]
) -> ScenarioResult:
    return ScenarioResult(
        scenario_id=plan.scenario_id,
        overrides=plan.scenario.overrides_dict(),
        status=payload["status"],
        error=payload["error"],
        seconds=payload["seconds"],
        stage_statuses=payload["stage_statuses"],
        fingerprints=payload["fingerprints"],
        section3=payload["section3"],
        correction=payload["correction"],
    )


def _failure_result(plan: ScenarioPlan, exc: BaseException) -> ScenarioResult:
    """Fallback for failures outside the pipeline itself (infra errors,
    a process pool that died) — no partial outcomes are available."""
    return ScenarioResult(
        scenario_id=plan.scenario_id,
        overrides=plan.scenario.overrides_dict(),
        status="failed",
        error=f"{type(exc).__name__}: {exc}",
        fingerprints=dict(plan.fingerprints),
    )


# ----------------------------------------------------------------------
# the sweep driver
# ----------------------------------------------------------------------
def run_sweep(
    grid: Union[SweepGrid, SweepPlan, Sequence[Scenario]],
    cache_dir: Optional[str] = None,
    targets: Sequence[str] = DEFAULT_TARGETS,
    executor: str = "thread",
    workers: Optional[int] = None,
    stages: Optional[Sequence[StageSpec]] = None,
    propagation_workers: Optional[int] = None,
    cache_budget_bytes: Optional[int] = None,
    trace_dir: Optional[str] = None,
    profiling=None,
) -> SweepResult:
    """Run every scenario of a grid over one shared artifact cache.

    ``grid`` may be a :class:`SweepGrid`, a scenario sequence, or a
    ready :class:`SweepPlan` (e.g. one already built for a pre-flight
    summary — passing it through guarantees the announced plan is the
    executed plan; its embedded targets override the ``targets``
    argument, and it must have been planned over the same ``stages``).

    Without ``cache_dir`` nothing can be shared: the sweep degenerates
    to independent full runs (one wave), which is exactly the baseline
    the sweep tests compare the cached cells against.

    ``cache_budget_bytes`` prunes the cache to the budget after every
    wave barrier.

    ``trace_dir`` turns on telemetry for the sweep: one ``sweep`` span,
    one ``wave`` span per wave, and a trace context stamped onto every
    scenario config so spans from pool threads and pool processes all
    join one tree (fingerprint-neutral — traced and untraced sweeps
    produce byte-identical results).  An already-active
    ambient tracer is used as-is; ``trace_dir`` is then ignored.
    ``profiling`` (a :class:`repro.telemetry.ProfilingConfig`) rides
    the trace context, so pool processes profile their hot spans too;
    it requires a ``trace_dir``.
    """
    if profiling is not None and trace_dir is None:
        raise ValueError("profiling requires a trace_dir to write to")
    if executor not in _EXECUTORS:
        raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
    if executor == "process" and stages is not None:
        raise ValueError(
            f"executor={executor!r} supports only the default stage DAG "
            "(custom stage lists may not survive pickling)"
        )
    if executor != "serial" and propagation_workers:
        # Under "process" this nests pools inside workers; under
        # "thread" each scenario thread would fork() a process pool
        # while sibling threads hold locks — a classic fork-in-
        # multithreaded-process deadlock.  Per-scenario propagation
        # parallelism composes only with serial scenario execution.
        raise ValueError(
            "propagation_workers requires executor='serial' (scenario-level "
            "parallelism cannot nest per-scenario process pools)"
        )
    if cache_budget_bytes is not None and cache_dir is None:
        raise ValueError("cache_budget_bytes requires a cache_dir to prune")
    if isinstance(grid, SweepPlan):
        plan = grid
    else:
        scenarios = grid.expand() if isinstance(grid, SweepGrid) else list(grid)
        plan = plan_sweep(scenarios, targets=targets, stages=stages)
    cache_str = str(cache_dir) if cache_dir is not None else None
    # Without a cache there is nothing to share, hence nothing to order.
    waves = plan.waves if cache_str is not None else [plan.plans]

    propagation_context = (
        propagation_parallelism(propagation_workers)
        if propagation_workers
        else contextlib.nullcontext()
    )
    tracer = get_tracer()
    owned: Optional[Tracer] = None
    if trace_dir is not None and not tracer:
        owned = tracer = Tracer(trace_dir, profiling=profiling)
    outcomes: Dict[str, ScenarioResult] = {}
    started = time.perf_counter()
    try:
        with propagation_context, activated(owned):
            with tracer.span(
                "sweep",
                executor=executor,
                scenarios=len(plan.plans),
                waves=len(waves),
            ):
                for index, wave in enumerate(waves):
                    with tracer.span("wave", index=index, scenarios=len(wave)):
                        # Scenario configs carry the trace context (run id
                        # + this wave's span id) so spans emitted by pool
                        # threads and processes join this tree.
                        context = tracer.context() if tracer else None
                        _run_wave(
                            wave, cache_str, plan.targets, executor, workers,
                            stages, outcomes, context,
                        )
                    if cache_budget_bytes is not None and cache_str is not None:
                        from repro.pipeline import ArtifactCache

                        ArtifactCache(cache_str).prune(
                            max_bytes=cache_budget_bytes
                        )
    finally:
        if owned is not None:
            owned.flush()
    elapsed = time.perf_counter() - started

    results = [outcomes[p.scenario_id] for p in plan.plans]
    return SweepResult(
        targets=plan.targets,
        plan=plan,
        results=results,
        seconds=elapsed,
        executor=executor,
        cache_dir=cache_str,
        waves=[[p.scenario_id for p in wave] for wave in waves],
    )


def _run_wave(
    wave: Sequence[ScenarioPlan],
    cache_dir: Optional[str],
    targets: Tuple[str, ...],
    executor: str,
    workers: Optional[int],
    stages: Optional[Sequence[StageSpec]],
    outcomes: Dict[str, ScenarioResult],
    trace_context: Optional[TelemetryConfig] = None,
) -> None:
    if not wave:
        return
    if executor == "serial" or len(wave) == 1:
        for plan in wave:
            try:
                payload = _execute_scenario(
                    with_trace_context(plan.scenario.config, trace_context),
                    cache_dir, targets, stages,
                )
                outcomes[plan.scenario_id] = _result_from_payload(plan, payload)
            except Exception as exc:  # noqa: BLE001 - failure isolation
                outcomes[plan.scenario_id] = _failure_result(plan, exc)
        return

    max_workers = min(workers or os.cpu_count() or 1, len(wave))
    if executor == "thread":
        pool_cls = concurrent.futures.ThreadPoolExecutor
        submit = lambda pool, plan: pool.submit(  # noqa: E731
            _execute_scenario,
            with_trace_context(plan.scenario.config, trace_context),
            cache_dir, targets, stages,
        )
    else:
        pool_cls = concurrent.futures.ProcessPoolExecutor
        submit = lambda pool, plan: pool.submit(  # noqa: E731
            _process_task,
            plan.scenario_id,
            with_trace_context(plan.scenario.config, trace_context),
            cache_dir, targets,
        )
    with pool_cls(max_workers=max_workers) as pool:
        futures = {submit(pool, plan): plan for plan in wave}
        for future in concurrent.futures.as_completed(futures):
            plan = futures[future]
            try:
                payload = future.result()
                if executor == "process":
                    payload = payload[1]
                outcomes[plan.scenario_id] = _result_from_payload(plan, payload)
            except Exception as exc:  # noqa: BLE001 - failure isolation
                outcomes[plan.scenario_id] = _failure_result(plan, exc)
