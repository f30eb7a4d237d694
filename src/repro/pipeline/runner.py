"""Generic stage-DAG runner with fingerprint-addressed caching.

:class:`PipelineRunner` runs the closure of a set of target stages
declared as :class:`~repro.pipeline.stages.StageSpec` objects.  Every
stage has an invocation fingerprint (stage name, code version,
configuration token, upstream fingerprints — see
:mod:`repro.pipeline.artifacts`), known before anything runs.  One
recursive method, :meth:`PipelineRun._resolve`, then resolves each
target, and it is the only place a stage is loaded or computed:

* a stage that is already resolved is left alone;
* a cacheable stage is loaded from the :class:`ArtifactCache` (one
  hash-verified read and one unpickle); a hit records it as ``cached``
  with its value and ends the walk up that branch;
* a stage that missed (absent or defective artifact), or is not
  cacheable, resolves its inputs first, in declared order, and is then
  computed, stored and recorded as ``computed``.

All of it happens under the stage's one ``stage`` span, which opens
before the cache lookup.

Closure stages that no resolved stage needed are *skipped*: a warm
``figure2`` loads ``views`` and ``inference`` and touches nothing
upstream of them.  :meth:`PipelineRun.value` resolves a skipped stage
on first access through the same method (a hit costs one cache read).

A run that names its targets also *releases* what it no longer needs.
It counts each closure stage's consumers inside the closure; each time
a consumer resolves (computed or loaded) for the first time, every one
of its inputs loses one, and an input left with none is dropped from
the run unless it is a target.  A cold ``section3`` thus frees each
plane's propagation result once that plane's collection holds its
records, and the archive once the store is built, instead of holding
every intermediate until the process exits.  Releasing stops once the
last target has resolved: nothing is left to compute, so freeing what
the targets were computed from would lower no peak and only cost its
deallocation (a cold ``section3`` keeps ``views`` and ``inference``).  A run of every
stage (``targets=None``) has only targets and releases nothing.
:meth:`PipelineRun.value` resolves a released stage again, as it does
a skipped one: a cacheable stage is one cache read, any other stage is
computed again.

The runner is deliberately generic: the concrete snapshot/analysis DAG
lives in :mod:`repro.pipeline.stages`, and nothing here knows about
topologies or BGP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.pipeline.artifacts import ArtifactCache, config_token, fingerprint
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


class StageFailure(RuntimeError):
    """A stage's compute function raised.

    Carries the partial :class:`PipelineRun` so callers that account
    for work across many runs (the sweep executor) can still see the
    statuses of the stages that *did* complete — and were stored in the
    cache — before the failure.  The failing stage itself has no
    status (it never completed).  The original exception is chained as
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

    Stage values are exposed through :meth:`value`; closure stages the
    run skipped or released are resolved on access (loaded from the
    cache or computed).  :attr:`statuses` maps each resolved stage to
    ``"computed"`` or ``"cached"``, in the order of first resolution;
    resolving a released stage again keeps its first status.
    :attr:`released` lists the stages dropped once their last consumer
    in the closure had resolved, while a target was still unresolved
    (see the module docstring).
    """

    def __init__(self, config: object, runner: "PipelineRunner") -> None:
        self.config = config
        self.fingerprints: Dict[str, str] = {}
        self.statuses: Dict[str, str] = {}
        self.released: List[str] = []
        self._runner = runner
        self._ready: Dict[str, object] = {}
        # Non-target closure stage -> consumers not yet resolved.
        self._consumers: Dict[str, int] = {}
        # Targets not yet resolved; releasing stops with the last one.
        self._pending: Set[str] = set()

    # ------------------------------------------------------------------
    # artifact access
    # ------------------------------------------------------------------
    def value(self, name: str):
        """The artifact of one stage, resolving it if necessary."""
        if name not in self._ready:
            if name not in self.fingerprints:
                raise KeyError(f"stage {name!r} was not part of this run")
            self._resolve(name)
        return self._ready[name]

    def status_of(self, name: str) -> str:
        """``"computed"`` or ``"cached"`` for one stage of this run."""
        if name not in self.statuses:
            raise KeyError(f"stage {name!r} was not resolved in this run")
        return self.statuses[name]

    def cached_stages(self) -> List[str]:
        """Names of the stages satisfied from the artifact cache."""
        return [name for name, status in self.statuses.items() if status == "cached"]

    def computed_stages(self) -> List[str]:
        """Names of the stages that were (re)computed."""
        return [name for name, status in self.statuses.items() if status == "computed"]

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def _resolve(self, name: str) -> None:
        """Resolve one stage (see the module docstring)."""
        if name in self._ready:
            return
        spec = self._runner.stage(name)
        stage_fingerprint = self.fingerprints[name]
        cache = self._runner.cache if spec.cacheable else None
        with get_tracer().span(
            "stage", stage=name, fingerprint=stage_fingerprint
        ) as span:
            loaded = cache.load(name, stage_fingerprint) if cache is not None else None
            if loaded is not None:
                value, record = loaded
                status = "cached"
                span.annotate(status=status, artifact_bytes=record.size_bytes)
            else:
                for dep in self._runner.in_order(spec.dependencies):
                    self._resolve(dep.name)
                span.annotate(held=",".join(self._ready))
                try:
                    value = spec.compute(self)
                except Exception as exc:
                    raise StageFailure(name, self, exc) from exc
                status = "computed"
                span.annotate(status=status)
                if cache is not None:
                    stored = cache.store(name, stage_fingerprint, value, spec.version)
                    span.annotate(artifact_bytes=stored.size_bytes)
            self._ready[name] = value
            if name not in self.statuses:
                self.statuses[name] = status
                self._pending.discard(name)
                if self._pending:
                    self._release_inputs(spec)

    def _release_inputs(self, spec: StageSpec) -> None:
        """A consumer resolved for the first time: drop each input it
        was the last unresolved consumer of."""
        for dep in spec.dependencies:
            if dep not in self._consumers:
                continue
            self._consumers[dep] -= 1
            if self._consumers[dep] == 0 and dep in self._ready:
                del self._ready[dep]
                self.released.append(dep)


class PipelineRunner:
    """Execute a stage DAG, reusing cached artifacts when possible."""

    def __init__(
        self,
        stages: Sequence[StageSpec],
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self._order: List[StageSpec] = list(stages)
        self._by_name: Dict[str, StageSpec] = {}
        for spec in self._order:
            if spec.name in self._by_name:
                raise ValueError(f"duplicate stage name {spec.name!r}")
            missing = [dep for dep in spec.dependencies if dep not in self._by_name]
            if missing:
                raise ValueError(
                    f"stage {spec.name!r} depends on undeclared stage(s) {missing}; "
                    "stages must be declared in topological order"
                )
            self._by_name[spec.name] = spec
        self.cache = cache

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stage(self, name: str) -> StageSpec:
        return self._by_name[name]

    def in_order(self, names: Iterable[str]) -> List[StageSpec]:
        """The named stages, in declaration (topological) order."""
        wanted = set(names)
        return [spec for spec in self._order if spec.name in wanted]

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
        return self.in_order(needed)

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
        """Resolve each of ``targets`` (default: every stage).

        Targets are resolved in declaration order (see the module
        docstring).  A hit is loaded here, with one read of its payload:
        a defective artifact surfaces immediately as a recompute.

        Telemetry: when a tracer is active (``repro --trace-dir`` or an
        explicit :func:`repro.telemetry.tracer.activated`), one ``"pipeline"``
        span wraps the run — nested under whatever span is already open,
        e.g. a sweep's — and lists the ``skipped`` and the ``released``
        closure stages; one ``"stage"`` span per resolved stage records
        the fingerprint, cache status, artifact bytes and the process's
        peak RSS at its close (``max_rss_kb``), whether the stage is
        resolved during the run or when :meth:`PipelineRun.value` reads
        it later; a computed stage's span also lists the stages whose
        artifacts the run ``held`` when its compute started.
        A stage's span covers everything its resolution does: the cache
        lookup (a ``cache.load`` child span), then on a miss the stages
        it resolves upstream (nested ``stage`` spans), its compute and
        its ``cache.store`` (see :meth:`ArtifactCache.load` and
        :meth:`ArtifactCache.store`); ``repro trace summary`` reports
        each stage's self time without the nested stages and cache
        I/O.  Telemetry never feeds into fingerprints, so a traced run
        is byte-identical to an untraced one.
        """
        run = PipelineRun(config, self)
        run.fingerprints = self.fingerprints(config, targets)
        if targets is not None:
            run._pending = set(targets)
            for name in run.fingerprints:
                for dep in self._by_name[name].dependencies:
                    if dep not in targets:
                        run._consumers[dep] = run._consumers.get(dep, 0) + 1
        with get_tracer().span(
            "pipeline", targets=",".join(targets) if targets else "all"
        ) as span:
            for spec in self.in_order(targets or run.fingerprints):
                run._resolve(spec.name)
            skipped = [name for name in run.fingerprints if name not in run.statuses]
            if skipped:
                span.annotate(skipped=",".join(skipped))
            if run.released:
                span.annotate(released=",".join(run.released))
        return run
