"""Sweep planning: fingerprint-level dedup before anything runs.

Two grid cells that differ only in the correction budget share every
stage up to ``views``; two cells that differ only in ``dataset.seed``
still share the ``topology`` stage (the topology has its own seed).
The planner makes that sharing explicit *before* execution:

:func:`plan_sweep` derives, for every scenario, the fingerprints of its
target closure (:meth:`PipelineRunner.fingerprints` — pure arithmetic,
nothing is computed) and summarizes how many distinct stage
invocations the sweep needs.

The executor runs the scenarios one at a time in declaration order over
the shared artifact cache, so every fingerprint a scenario computes is
cached before the next scenario starts: across the whole sweep **every
distinct stage invocation is computed exactly once** and every other
scenario that needs it gets a cache hit.  A scenario that fails
mid-pipeline keeps the stages it completed in the cache, and the stage
that failed is computed by the next scenario that needs it.  Only a
cache budget tight enough to evict an artifact a later scenario still
needs computes a fingerprint twice; the executor's per-fingerprint
counters make that visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.pipeline import PipelineRunner, StageSpec, full_stages
from repro.sweep.grid import Scenario

#: The default sweep targets: the Section-3 report and the Figure-2 sweep.
DEFAULT_TARGETS: Tuple[str, ...] = ("section3", "correction")


@dataclass(frozen=True)
class ScenarioPlan:
    """One scenario plus the fingerprints of its target closure."""

    scenario: Scenario
    fingerprints: Dict[str, str]  # stage name -> fingerprint

    @property
    def scenario_id(self) -> str:
        return self.scenario.scenario_id


@dataclass
class SweepPlan:
    """The executable shape of a sweep: plans and sharing summary.

    All sharing accounting covers **cacheable** stages only: a
    ``cacheable=False`` stage (e.g. the ``snapshot`` assembly facade)
    can never be served from the cache, so every scenario legitimately
    recomputes its own — counting those as "shared work" would make the
    exactly-once counters report phantom duplicates.
    """

    targets: Tuple[str, ...]
    stage_order: List[str]
    plans: List[ScenarioPlan]
    noncacheable_stages: Set[str] = field(default_factory=set)

    # ------------------------------------------------------------------
    # sharing accounting (cacheable stages only)
    # ------------------------------------------------------------------
    def cacheable_fingerprints(self, plan: ScenarioPlan) -> Set[str]:
        """The fingerprints of one scenario the cache can actually serve."""
        return {
            fingerprint
            for stage, fingerprint in plan.fingerprints.items()
            if stage not in self.noncacheable_stages
        }

    def distinct_fingerprints(self) -> Dict[str, Set[str]]:
        """Stage name -> the distinct cacheable fingerprints needed."""
        result: Dict[str, Set[str]] = {name: set() for name in self.stage_order}
        for plan in self.plans:
            for stage, fingerprint in plan.fingerprints.items():
                if stage not in self.noncacheable_stages:
                    result[stage].add(fingerprint)
        return {stage: fps for stage, fps in result.items() if fps}

    def total_stage_invocations(self) -> int:
        """Cacheable stage invocations a cache-less sweep would perform."""
        return sum(len(self.cacheable_fingerprints(plan)) for plan in self.plans)

    def distinct_stage_invocations(self) -> int:
        """Cacheable stage invocations the deduplicated sweep performs."""
        return sum(len(fps) for fps in self.distinct_fingerprints().values())

    def sharing_summary(self) -> Dict[str, Dict[str, int]]:
        """Per stage: how many scenarios need it vs distinct slices."""
        distinct = self.distinct_fingerprints()
        needed: Dict[str, int] = {}
        for plan in self.plans:
            for stage in plan.fingerprints:
                if stage not in self.noncacheable_stages:
                    needed[stage] = needed.get(stage, 0) + 1
        return {
            stage: {"scenarios": needed[stage], "distinct": len(distinct[stage])}
            for stage in self.stage_order
            if stage in distinct
        }

    def summary_lines(self) -> List[str]:
        """Human-readable plan summary (for the CLI)."""
        lines = [
            f"{len(self.plans)} scenarios over targets {', '.join(self.targets)}: "
            f"{self.distinct_stage_invocations()} distinct stage invocations "
            f"(a cache-less sweep would run {self.total_stage_invocations()})",
        ]
        for stage, counts in self.sharing_summary().items():
            if counts["distinct"] < counts["scenarios"]:
                lines.append(
                    f"  {stage:<14} shared: {counts['distinct']} distinct slices "
                    f"serve {counts['scenarios']} scenarios"
                )
        return lines


def plan_sweep(
    scenarios: Sequence[Scenario],
    targets: Sequence[str] = DEFAULT_TARGETS,
    stages: Optional[Sequence[StageSpec]] = None,
) -> SweepPlan:
    """Plan a sweep: the closure fingerprints of every scenario.

    Duplicate scenario ids are rejected — they would shadow each other
    in every report keyed by id.
    """
    seen: Set[str] = set()
    for scenario in scenarios:
        if scenario.scenario_id in seen:
            raise ValueError(f"duplicate scenario id {scenario.scenario_id!r}")
        seen.add(scenario.scenario_id)
    runner = PipelineRunner(list(stages) if stages is not None else full_stages())
    targets = tuple(targets)
    plans = [
        ScenarioPlan(
            scenario=scenario,
            fingerprints=runner.fingerprints(scenario.config, targets),
        )
        for scenario in scenarios
    ]
    closure = runner.closure(targets)
    return SweepPlan(
        targets=targets,
        stage_order=[spec.name for spec in closure],
        plans=plans,
        noncacheable_stages={spec.name for spec in closure if not spec.cacheable},
    )
