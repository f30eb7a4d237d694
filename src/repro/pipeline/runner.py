"""Generic stage-DAG runner with fingerprint-addressed caching.

:class:`PipelineRunner` runs the closure of a set of target stages
declared as :class:`~repro.pipeline.stages.StageSpec` objects.  Every
stage has an invocation fingerprint (stage name, code version,
configuration token, upstream fingerprints — see
:mod:`repro.pipeline.artifacts`), so the runner resolves the closure
**backwards from the targets** before computing anything:

* a target, or an input of a stage that has to be computed, is
  *demanded*;
* a demanded cacheable stage is hash-verified in the
  :class:`ArtifactCache`; a hit satisfies it (its payload is loaded
  lazily, only if something reads it) and ends the walk up that branch;
* a demanded stage that missed, or is not cacheable, is computed, which
  demands its inputs in turn.

Closure stages no demanded stage needs are *skipped*: a warm
``figure2`` verifies ``correction``, ``views`` and ``inference`` and
touches nothing upstream of them.  The computed stages then run in
declared topological order, so results and span order do not depend on
the cache.  :meth:`PipelineRun.value` resolves a skipped stage on first
access (load it from the cache, or compute it).

The runner is deliberately generic: the concrete snapshot/analysis DAG
lives in :mod:`repro.pipeline.stages`, and nothing here knows about
topologies or BGP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.pipeline.artifacts import (
    ArtifactCache,
    ArtifactRecord,
    config_token,
    fingerprint,
)
from repro.telemetry.tracer import get_tracer


@dataclass(frozen=True)
class StageSpec:
    """Declaration of one pipeline stage.

    Attributes:
        name: Unique stage name (also the cache subdirectory).
        version: Code version of the stage implementation.  Bumping it
            invalidates every cached artifact of this stage *and* of all
            downstream stages (fingerprints chain).
        dependencies: Names of upstream stages whose artifacts this
            stage consumes.  Must be declared before this stage.
        compute: ``compute(run)`` produces the artifact; upstream values
            are read with ``run.value(name)``.
        config_slice: Maps the pipeline configuration to the slice this
            stage actually consumes; only changes to that slice
            invalidate the stage.  ``None`` means the stage reads no
            configuration beyond its upstream artifacts.
        cacheable: Stages whose artifact no workload reads back opt
            out of persistence; their fingerprint still chains so
            downstream caching works, and they are computed only when
            a consumer that missed the cache needs them.
    """

    name: str
    version: str
    dependencies: Tuple[str, ...]
    compute: Callable[["PipelineRun"], object]
    config_slice: Optional[Callable[[object], object]] = None
    cacheable: bool = True


@dataclass
class StageOutcome:
    """What happened to one stage during a run."""

    stage: str
    fingerprint: str
    status: str  # "computed" | "cached"
    seconds: float


class StageFailure(RuntimeError):
    """A stage's compute function raised.

    Carries the partial :class:`PipelineRun` so callers that account
    for work across many runs (the sweep executor) can still see the
    outcomes of the stages that *did* complete — and were stored in the
    cache — before the failure.  The failing stage itself has no
    outcome (it never completed).  The original exception is chained as
    ``__cause__``.
    """

    def __init__(self, stage: str, run: "PipelineRun", cause: BaseException) -> None:
        super().__init__(
            f"stage {stage!r} failed: {type(cause).__name__}: {cause}"
        )
        self.stage = stage
        self.run = run


class PipelineRun:
    """One execution of (a target-closure of) the pipeline.

    Stage values are exposed through :meth:`value`; artifacts of warm
    stages are unpickled on first access, and closure stages the run
    skipped are resolved then (loaded from the cache or computed).
    When a cached payload turns out to be unloadable at access time
    (e.g. corrupted between the fingerprint check and the read), the
    stage is recomputed transparently and the repaired artifact is
    stored back.
    """

    def __init__(self, config: object, runner: "PipelineRunner") -> None:
        self.config = config
        self.fingerprints: Dict[str, str] = {}
        self.outcomes: List[StageOutcome] = []
        self._runner = runner
        self._ready: Dict[str, object] = {}
        self._pending: Set[str] = set()
        self._outcome_index: Dict[str, StageOutcome] = {}

    # ------------------------------------------------------------------
    # artifact access
    # ------------------------------------------------------------------
    def value(self, name: str):
        """The artifact of one stage, materializing it if necessary."""
        if name in self._ready:
            return self._ready[name]
        if name not in self.fingerprints:
            raise KeyError(f"stage {name!r} was not part of this run")
        spec = self._runner.stage(name)
        cache = self._runner.cache
        stage_fingerprint = self.fingerprints[name]
        loaded = (
            cache.load(name, stage_fingerprint)
            if cache is not None and spec.cacheable
            else None
        )
        if loaded is not None:
            value = loaded[0]
            if name not in self._outcome_index:
                self._record(StageOutcome(name, stage_fingerprint, "cached", 0.0))
        else:
            if name in self._pending:
                # The verified artifact became unloadable; recompute.
                tracer = get_tracer()
                if tracer:
                    tracer.counter("cache.unloadable", stage=name)
            started = time.perf_counter()
            try:
                value = spec.compute(self)
            except Exception as exc:
                raise StageFailure(name, self, exc) from exc
            if cache is not None and spec.cacheable:
                cache.store(name, stage_fingerprint, value, spec.version)
            outcome = self._outcome_index.get(name)
            if outcome is None:
                outcome = StageOutcome(name, stage_fingerprint, "computed", 0.0)
                self._record(outcome)
            outcome.status = "computed"
            outcome.seconds = time.perf_counter() - started
        self._pending.discard(name)
        self._ready[name] = value
        return value

    def status_of(self, name: str) -> str:
        """``"computed"`` or ``"cached"`` for one stage of this run."""
        return self._outcome_index[name].status

    def cached_stages(self) -> List[str]:
        """Names of the stages satisfied from the artifact cache."""
        return [o.stage for o in self.outcomes if o.status == "cached"]

    def computed_stages(self) -> List[str]:
        """Names of the stages that were (re)computed."""
        return [o.stage for o in self.outcomes if o.status == "computed"]

    # internal: registration by the runner -----------------------------
    def _record(self, outcome: StageOutcome) -> None:
        self.outcomes.append(outcome)
        self._outcome_index[outcome.stage] = outcome


class PipelineRunner:
    """Execute a stage DAG, reusing cached artifacts when possible."""

    def __init__(
        self,
        stages: Sequence[StageSpec],
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self._order: List[StageSpec] = list(stages)
        self._by_name: Dict[str, StageSpec] = {}
        seen: Set[str] = set()
        for spec in self._order:
            if spec.name in self._by_name:
                raise ValueError(f"duplicate stage name {spec.name!r}")
            missing = [dep for dep in spec.dependencies if dep not in seen]
            if missing:
                raise ValueError(
                    f"stage {spec.name!r} depends on undeclared stage(s) {missing}; "
                    "stages must be declared in topological order"
                )
            self._by_name[spec.name] = spec
            seen.add(spec.name)
        self.cache = cache

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stage(self, name: str) -> StageSpec:
        return self._by_name[name]

    def closure(self, targets: Optional[Sequence[str]] = None) -> List[StageSpec]:
        """The targets plus all their ancestors, in execution order."""
        if targets is None:
            return list(self._order)
        needed: Set[str] = set()
        frontier = list(targets)
        while frontier:
            name = frontier.pop()
            if name in needed:
                continue
            if name not in self._by_name:
                raise KeyError(f"unknown stage {name!r}")
            needed.add(name)
            frontier.extend(self._by_name[name].dependencies)
        return [spec for spec in self._order if spec.name in needed]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def fingerprints(
        self, config: object, targets: Optional[Sequence[str]] = None
    ) -> Dict[str, str]:
        """Stage name -> invocation fingerprint for the target closure.

        Pure arithmetic over the stage declarations and the
        configuration — nothing is computed, loaded or cached.  This is
        what lets a sweep planner predict which stages two
        configurations share *before* running either of them.
        """
        fingerprints: Dict[str, str] = {}
        for spec in self.closure(targets):
            token = (
                config_token(spec.config_slice(config))
                if spec.config_slice is not None
                else ""
            )
            fingerprints[spec.name] = fingerprint(
                spec.name,
                spec.version,
                token,
                [fingerprints[dep] for dep in spec.dependencies],
            )
        return fingerprints

    def run(
        self, config: object, targets: Optional[Sequence[str]] = None
    ) -> PipelineRun:
        """Run the closure of ``targets`` (default: every stage).

        Stages are resolved backwards from the targets (see the module
        docstring).  A hit is hash-verified here (one read of its
        payload — corruption surfaces immediately as a recompute) and
        unpickled only on first :meth:`PipelineRun.value` access.

        Telemetry: when a tracer is active (``repro --trace-dir`` or an
        explicit :func:`repro.telemetry.tracer.activated`), one ``"pipeline"``
        span wraps the run — nested under whatever span is already open,
        e.g. a sweep's — and lists the ``skipped`` closure stages; one
        ``"stage"`` span per demanded stage records the fingerprint,
        cache status, verify time and artifact bytes.  Telemetry never
        feeds into fingerprints, so a traced run is byte-identical to
        an untraced one.
        """
        tracer = get_tracer()
        with tracer.span(
            "pipeline", targets=",".join(targets) if targets else "all"
        ) as span:
            return self._run(config, targets, tracer, span)

    def _run(
        self,
        config: object,
        targets: Optional[Sequence[str]],
        tracer,
        pipeline_span,
    ) -> PipelineRun:
        run = PipelineRun(config, self)
        run.fingerprints = self.fingerprints(config, targets)
        closure = self.closure(targets)
        # Reverse topological order decides every consumer of a stage
        # before the stage itself, so ``demanded`` is final on arrival.
        demanded = set(targets) if targets is not None else set(run.fingerprints)
        verified: Dict[str, Tuple[Optional[ArtifactRecord], float]] = {}
        for spec in reversed(closure):
            if spec.name not in demanded:
                continue
            if self.cache is not None and spec.cacheable:
                verify_started = time.perf_counter()
                record = self.cache.verify(spec.name, run.fingerprints[spec.name])
                verified[spec.name] = (record, time.perf_counter() - verify_started)
                if record is not None:
                    continue
            demanded.update(spec.dependencies)
        skipped = [spec.name for spec in closure if spec.name not in demanded]
        if skipped:
            pipeline_span.annotate(skipped=",".join(skipped))
        for spec in closure:
            if spec.name not in demanded:
                continue
            stage_fingerprint = run.fingerprints[spec.name]
            with tracer.span(
                "stage", stage=spec.name, fingerprint=stage_fingerprint
            ) as span:
                if spec.name in verified:
                    record, verify_seconds = verified[spec.name]
                    span.annotate(verify_seconds=round(verify_seconds, 6))
                    if record is not None:
                        span.annotate(
                            status="cached", artifact_bytes=record.size_bytes
                        )
                        run._pending.add(spec.name)
                        run._record(
                            StageOutcome(spec.name, stage_fingerprint, "cached", 0.0)
                        )
                        continue
                started = time.perf_counter()
                try:
                    value = spec.compute(run)
                except Exception as exc:
                    raise StageFailure(spec.name, run, exc) from exc
                elapsed = time.perf_counter() - started
                span.annotate(status="computed")
                if self.cache is not None and spec.cacheable:
                    stored = self.cache.store(
                        spec.name, stage_fingerprint, value, spec.version
                    )
                    span.annotate(artifact_bytes=stored.size_bytes)
                run._ready[spec.name] = value
                run._record(
                    StageOutcome(spec.name, stage_fingerprint, "computed", elapsed)
                )
        return run
