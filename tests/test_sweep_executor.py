"""Sweep execution: golden equivalence, exactly-once, failure isolation.

The acceptance criteria of the sweep subsystem:

* every grid cell is **bit-identical** to the corresponding standalone
  single-scenario pipeline run (the sweep may reorganize *when* stages
  compute, never *what* they compute),
* with a shared cache every distinct stage invocation is computed
  **exactly once** across the whole sweep (cache hit/miss counters),
* a warm rerun of the same grid recomputes nothing,
* ``cache_budget_bytes`` prunes the shared cache after each scenario, and
* one failing scenario does not take the sweep down.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import build_parser
from repro.core.correction import correction_payload
from repro.datasets import DatasetConfig
from repro.pipeline import ArtifactCache, PipelineConfig, full_stages, run_pipeline
from repro.sweep import GridAxis, SweepGrid, run_sweep
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


def two_by_two() -> SweepGrid:
    """2 seeds x 2 correction depths — the acceptance-criteria grid."""
    return SweepGrid(
        tiny_base(),
        [GridAxis("dataset.seed", (1, 2)), GridAxis("top", (2, 3))],
    )


def standalone_cell(config: PipelineConfig):
    """The reference: one uncached, single-scenario pipeline run."""
    run = run_pipeline(config, targets=("section3", "correction"))
    return (
        run.value("section3").as_dict(),
        correction_payload(run.value("correction"), config.top, config.max_sources),
    )


@pytest.fixture(scope="module")
def cold_sweep(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("sweep-cache")
    grid = two_by_two()
    result = run_sweep(grid, cache_dir=cache_dir)
    return cache_dir, grid, result


class TestGolden2x2:
    def test_all_cells_ok(self, cold_sweep):
        _, _, result = cold_sweep
        assert [r.status for r in result.results] == ["ok"] * 4

    def test_cells_bit_identical_to_standalone_runs(self, cold_sweep):
        """The acceptance criterion: every cell equals an independently
        run `repro section3`/`figure2` for that configuration."""
        _, grid, result = cold_sweep
        by_id = result.by_id()
        for scenario in grid.expand():
            section3, correction = standalone_cell(scenario.config)
            cell = by_id[scenario.scenario_id]
            assert cell.section3 == section3, scenario.scenario_id
            assert cell.correction == correction, scenario.scenario_id

    def test_shared_stages_computed_exactly_once(self, cold_sweep):
        """Cache hit/miss counters: no fingerprint computes twice, and
        the number of computes equals the planner's distinct count."""
        _, _, result = cold_sweep
        assert result.duplicate_computes() == {}
        counters = result.cache_counters()
        assert counters["computed"] == result.plan.distinct_stage_invocations()
        assert (
            counters["computed"] + counters["cached"]
            == result.plan.total_stage_invocations()
        )

    def test_warm_rerun_is_fully_cached(self, cold_sweep):
        cache_dir, grid, cold = cold_sweep
        warm = run_sweep(grid, cache_dir=cache_dir)
        assert warm.fully_cached()
        assert warm.cache_counters()["computed"] == 0
        # And the warm cells still match the cold ones.
        cold_cells = {r.scenario_id: (r.section3, r.correction) for r in cold.results}
        warm_cells = {r.scenario_id: (r.section3, r.correction) for r in warm.results}
        assert warm_cells == cold_cells


class TestExecutors:
    def test_no_cache_runs_standalone_per_cell(self):
        """Without a cache nothing is shared — every scenario computes
        its full closure."""
        grid = SweepGrid(tiny_base(), [GridAxis("top", (2, 3))])
        result = run_sweep(grid, cache_dir=None)
        counters = result.cache_counters()
        assert counters["cached"] == 0
        assert counters["computed"] == result.plan.total_stage_invocations()

    def test_unknown_executor_rejected(self, capsys):
        """Scenarios only ever run serially: ``repro sweep`` accepts
        ``--executor serial`` and rejects every other executor name."""
        parser = build_parser()
        assert parser.parse_args(
            ["sweep", "--grid", "g.json", "--executor", "serial"]
        ).executor == "serial"
        for executor in ("thread", "process", "carrier-pigeon"):
            with pytest.raises(SystemExit):
                parser.parse_args(["sweep", "--grid", "g.json", "--executor", executor])
        assert "invalid choice" in capsys.readouterr().err


class TestCacheBudget:
    def test_budget_prunes_after_each_scenario(self, tmp_path):
        """--cache-budget-bytes automation: after the sweep the cache
        fits the budget; scenarios still all succeed (evictions are
        misses, never errors)."""
        grid = SweepGrid(tiny_base(), [GridAxis("top", (2, 3))])
        cache_dir = tmp_path / "cache"
        result = run_sweep(grid, cache_dir=cache_dir, cache_budget_bytes=1)
        assert [r.status for r in result.results] == ["ok", "ok"]
        assert ArtifactCache(cache_dir).stats().total_bytes <= 1
        # The prune ran between the scenarios: the second one found
        # nothing of the first's shared upstream left to reuse.
        second = result.results[1]
        assert set(second.stage_statuses.values()) == {"computed"}

    def test_generous_budget_preserves_exactly_once(self, tmp_path):
        grid = SweepGrid(tiny_base(), [GridAxis("top", (2, 3))])
        result = run_sweep(
            grid,
            cache_dir=tmp_path / "cache",
            cache_budget_bytes=10 ** 9,
        )
        assert result.duplicate_computes() == {}
        stats = ArtifactCache(tmp_path / "cache").stats()
        assert 0 < stats.total_bytes <= 10 ** 9

    def test_budget_requires_cache(self):
        grid = SweepGrid(tiny_base(), [GridAxis("top", (2,))])
        with pytest.raises(ValueError, match="cache_budget_bytes"):
            run_sweep(grid, cache_budget_bytes=100)


def _failing_stages():
    """The default DAG with a correction stage that detonates on top=99."""
    stages = []
    for spec in full_stages():
        if spec.name == "correction":
            original = spec.compute

            def compute(run, _original=original):
                if run.config.top == 99:
                    raise RuntimeError("injected sweep failure")
                return _original(run)

            spec = dataclasses.replace(spec, compute=compute)
        stages.append(spec)
    return stages


class TestNonCacheableTargets:
    def test_snapshot_target_reports_no_phantom_duplicates(self, tmp_path):
        """The snapshot stage is cacheable=False: every scenario
        recomputes its own by design.  That must not surface as a
        duplicate compute, and a warm rerun must still count as fully
        cached even though each scenario rebuilt its facade."""
        grid = SweepGrid(tiny_base(), [GridAxis("dataset.seed", (1, 2))])
        targets = ("snapshot", "section3")
        cold = run_sweep(grid, cache_dir=tmp_path, targets=targets)
        assert not cold.failed()
        assert cold.duplicate_computes() == {}
        assert cold.cache_counters()["computed"] == cold.plan.distinct_stage_invocations()
        warm = run_sweep(grid, cache_dir=tmp_path, targets=targets)
        assert warm.fully_cached()
        # The recompute is still truthfully visible per scenario.
        assert all(
            "snapshot" in r.computed_stages() for r in warm.results
        )


class TestFailureIsolation:
    def test_one_failure_does_not_stop_the_sweep(self, tmp_path):
        grid = SweepGrid(tiny_base(), [GridAxis("top", (2, 99, 3))])
        result = run_sweep(
            grid, cache_dir=tmp_path, stages=_failing_stages()
        )
        statuses = {r.scenario_id: r.status for r in result.results}
        assert statuses == {"top=2": "ok", "top=99": "failed", "top=3": "ok"}
        failed = result.by_id()["top=99"]
        assert "injected sweep failure" in failed.error
        assert failed.section3 is None
        # The stages that completed before the failure are still
        # visible (they were cached, and they feed the exactly-once
        # accounting): only the failing correction stage is absent.
        assert "views" in failed.stage_statuses
        assert "correction" not in failed.stage_statuses

    def test_rerun_resumes_from_cache_after_failure(self, tmp_path):
        grid = SweepGrid(tiny_base(), [GridAxis("top", (2, 99))])
        run_sweep(grid, cache_dir=tmp_path, stages=_failing_stages())
        # Second attempt with the failure fixed: everything the failed
        # run cached (the whole shared prefix) is reused.
        retry = run_sweep(grid, cache_dir=tmp_path)
        assert not retry.failed()
        recovered = retry.by_id()["top=99"]
        assert recovered.computed_stages() == ["correction"]

    def test_failed_scenarios_surface_in_counters(self, tmp_path):
        grid = SweepGrid(tiny_base(), [GridAxis("top", (99,))])
        result = run_sweep(
            grid, cache_dir=tmp_path, stages=_failing_stages()
        )
        assert result.failed()
        assert not result.fully_cached()

    def test_completed_stages_of_failed_scenarios_are_counted(self, tmp_path):
        """A scenario that fails mid-pipeline still cached its completed
        prefix; those computations must appear in the exactly-once
        counters (otherwise the accounting silently undercounts and a
        real duplicate could never surface)."""
        calls = {"n": 0}
        stages = []
        for spec in full_stages():
            if spec.name == "store":
                original = spec.compute

                def compute(run, _original=original):
                    calls["n"] += 1
                    if calls["n"] == 1:
                        raise RuntimeError("transient store failure")
                    return _original(run)

                spec = dataclasses.replace(spec, compute=compute)
            stages.append(spec)
        grid = SweepGrid(tiny_base(), [GridAxis("top", (2, 3))])
        result = run_sweep(grid, cache_dir=tmp_path, stages=stages)
        failed, ok = result.results
        assert failed.status == "failed" and "transient" in failed.error
        assert ok.status == "ok"
        counts = result.computed_counts()
        # The failed scenario's completed upstream work is counted once ...
        assert counts[failed.fingerprints["topology"]] == 1
        # ... and reused by the surviving scenario from the cache.
        assert ok.stage_statuses["topology"] == "cached"
        # The stage that died mid-compute was completed only by the
        # retry, so its count is 1 — no phantom duplicate.
        assert counts[ok.fingerprints["store"]] == 1
        assert result.duplicate_computes() == {}
