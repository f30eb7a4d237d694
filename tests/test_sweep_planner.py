"""Sweep planning: fingerprint sharing.

The planner's claims are structural, so these tests run no pipeline at
all — they check the fingerprint arithmetic (which stages two grid
cells share).
"""

from __future__ import annotations

from repro.datasets import DatasetConfig
from repro.pipeline import PipelineConfig
from repro.sweep import GridAxis, SweepGrid, plan_sweep
from repro.topology.generator import TopologyConfig


def tiny_base(seed: int = 5) -> PipelineConfig:
    return PipelineConfig(
        dataset=DatasetConfig(
            topology=TopologyConfig(
                seed=seed, tier1_count=3, tier2_count=8, tier3_count=20
            ),
            seed=seed,
            vantage_points=4,
        ),
        top=3,
        max_sources=10,
    )


def seeds_by_tops_plan(targets=("section3", "correction")):
    grid = SweepGrid(
        tiny_base(),
        [GridAxis("dataset.seed", (1, 2)), GridAxis("top", (3, 4))],
    )
    return plan_sweep(grid.expand(), targets=targets)


class TestSharing:
    def test_topology_shared_across_all_cells(self):
        """dataset.seed does not feed the topology stage (the topology
        has its own seed), so all four cells share one topology."""
        plan = seeds_by_tops_plan()
        distinct = plan.distinct_fingerprints()
        assert len(distinct["topology"]) == 1

    def test_upstream_shared_per_seed(self):
        """Everything from irr to section3 depends on the dataset seed
        but not on the correction budget: two distinct slices each."""
        plan = seeds_by_tops_plan()
        distinct = plan.distinct_fingerprints()
        for stage in (
            "irr",
            "scenario",
            "propagation_v4",
            "propagation_v6",
            "archive",
            "store",
            "inference",
            "views",
            "section3",
        ):
            assert len(distinct[stage]) == 2, stage

    def test_correction_distinct_per_cell(self):
        plan = seeds_by_tops_plan()
        assert len(plan.distinct_fingerprints()["correction"]) == 4

    def test_invocation_counts(self):
        plan = seeds_by_tops_plan()
        # 11-stage closure x 4 scenarios vs 1 + 9*2 + 4 distinct.
        assert plan.total_stage_invocations() == 44
        assert plan.distinct_stage_invocations() == 23

    def test_sharing_summary_shape(self):
        summary = seeds_by_tops_plan().sharing_summary()
        assert summary["topology"] == {"scenarios": 4, "distinct": 1}
        assert summary["correction"] == {"scenarios": 4, "distinct": 4}

    def test_identical_configs_share_everything(self):
        base = tiny_base()
        grid = SweepGrid(base, [GridAxis("dataset.seed", (1, 1))])
        # Same config twice (ids differ only by position is impossible:
        # same value -> same id), so expansion must be rejected upstream.
        scenarios = grid.expand()
        assert scenarios[0].scenario_id == scenarios[1].scenario_id
        try:
            plan_sweep(scenarios)
        except ValueError as exc:
            assert "duplicate scenario id" in str(exc)
        else:
            raise AssertionError("duplicate ids must be rejected")


class TestSchedule:
    def test_summary_lines_mention_sharing(self):
        text = "\n".join(seeds_by_tops_plan().summary_lines())
        assert "4 scenarios" in text
        assert "topology" in text

    def test_section3_only_target_narrows_the_closure(self):
        plan = seeds_by_tops_plan(targets=("section3",))
        assert "correction" not in plan.distinct_fingerprints()
        # Without the correction stage the two tops collapse entirely.
        assert plan.distinct_stage_invocations() == 1 + 9 * 2


class TestNonCacheableStages:
    """``cacheable=False`` stages (the ``snapshot`` facade) can never be
    served from the cache, so they must not participate in the sharing
    accounting — otherwise every multi-scenario sweep targeting them
    would report phantom duplicate computes."""

    def plan(self):
        grid = SweepGrid(tiny_base(), [GridAxis("dataset.seed", (1, 2))])
        return plan_sweep(grid.expand(), targets=("snapshot",))

    def test_snapshot_stage_is_flagged_noncacheable(self):
        assert "snapshot" in self.plan().noncacheable_stages

    def test_noncacheable_stages_excluded_from_accounting(self):
        plan = self.plan()
        assert "snapshot" not in plan.distinct_fingerprints()
        assert "snapshot" not in plan.sharing_summary()
        # 2 scenarios x (topology..propagation..store chain of 8
        # cacheable stages, topology shared).
        assert plan.total_stage_invocations() == 2 * 8
        assert plan.distinct_stage_invocations() == 1 + 7 * 2

    def test_schedule_claims_only_cacheable_fingerprints(self):
        """Scenarios identical in the snapshot closure (a `top` axis
        does not feed it) share every fingerprint, including the
        non-cacheable snapshot's; only the cacheable ones count as work
        the cache can share."""
        grid = SweepGrid(tiny_base(), [GridAxis("top", (2, 3))])
        plan = plan_sweep(grid.expand(), targets=("snapshot",))
        first = plan.plans[0]
        assert "snapshot" in first.fingerprints
        claimed = plan.cacheable_fingerprints(first)
        assert first.fingerprints["snapshot"] not in claimed
