"""Generic stage-DAG runner with fingerprint-addressed caching.

:class:`PipelineRunner` executes a declared sequence of
:class:`~repro.pipeline.stages.StageSpec` objects in topological order.
For every stage it derives the invocation fingerprint (stage name, code
version, configuration token, upstream fingerprints — see
:mod:`repro.pipeline.artifacts`) and then either

* reuses a verified artifact from the :class:`ArtifactCache` (a *warm*
  stage — its payload is loaded lazily, only if something actually reads
  it), or
* calls the stage's compute function and stores the result.

Because fingerprints chain on upstream fingerprints rather than on
payload bytes, a warm run decides "everything is cached" without
deserializing a single artifact: each warm stage pays one sequential
read + hash of its payload (eager corruption detection, see
:meth:`ArtifactCache.verify`) but unpickles only the artifacts the
caller actually reads — for a fully warm ``section3`` + ``figure2``,
just the two small final ones.

The runner is deliberately generic: the concrete snapshot/analysis DAG
lives in :mod:`repro.pipeline.stages`, and nothing here knows about
topologies or BGP.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.pipeline.artifacts import ArtifactCache, config_token, fingerprint
from repro.telemetry import get_tracer


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
        cacheable: Cheap assembly stages can opt out of persistence;
            their fingerprint still chains so downstream caching works.
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
    stages are unpickled on first access.  When a cached payload turns
    out to be unloadable at access time (e.g. corrupted between the
    fingerprint check and the read), the stage is recomputed
    transparently and the repaired artifact is stored back.
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
        if name not in self._pending:
            raise KeyError(f"stage {name!r} was not part of this run")
        spec = self._runner.stage(name)
        cache = self._runner.cache
        loaded = (
            cache.load(name, self.fingerprints[name]) if cache is not None else None
        )
        if loaded is not None:
            value = loaded[0]
        else:
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
                cache.store(name, self.fingerprints[name], value, spec.version)
            outcome = self._outcome_index[name]
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

    def summary_lines(self) -> List[str]:
        """Human-readable per-stage outcome lines (for the CLI)."""
        return [
            f"{outcome.stage:<14} {outcome.status:<8} {outcome.seconds:7.2f}s"
            for outcome in self.outcomes
        ]

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
    @property
    def stage_names(self) -> List[str]:
        return [spec.name for spec in self._order]

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

        Warm stages are hash-verified here (one read of each payload —
        corruption surfaces immediately as a recompute) but *not*
        deserialized; payloads unpickle on first
        :meth:`PipelineRun.value` access, so artifacts nobody reads are
        never deserialized.

        Telemetry: when a tracer is active (``repro --trace-dir`` or an
        explicit :func:`repro.telemetry.activated`), one ``"pipeline"``
        span wraps the run — nested under whatever span is already open,
        e.g. a sweep's — and one ``"stage"`` span per stage records the
        fingerprint, cache status, verify time and artifact bytes.
        Telemetry never feeds into fingerprints, so a traced run is
        byte-identical to an untraced one.
        """
        tracer = get_tracer()
        with tracer.span(
            "pipeline", targets=",".join(targets) if targets else "all"
        ):
            return self._run(config, targets, tracer)

    def _run(
        self,
        config: object,
        targets: Optional[Sequence[str]],
        tracer,
    ) -> PipelineRun:
        run = PipelineRun(config, self)
        run.fingerprints = self.fingerprints(config, targets)
        for spec in self.closure(targets):
            stage_fingerprint = run.fingerprints[spec.name]
            with tracer.span(
                "stage", stage=spec.name, fingerprint=stage_fingerprint
            ) as span:
                if self.cache is not None and spec.cacheable:
                    verify_started = time.perf_counter()
                    record = self.cache.verify(spec.name, stage_fingerprint)
                    span.annotate(
                        verify_seconds=round(time.perf_counter() - verify_started, 6)
                    )
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
