"""Seed-variance confidence intervals in the sweep report.

The seed-variance section used to flag varying metrics with a yes/no;
it now reports t-based mean ± 95% CI across the repeated-seed cells of
each fixed-configuration group, in both the JSON report and the
markdown rendering.
"""

from __future__ import annotations

import math

import pytest

from repro.datasets import DatasetConfig
from repro.pipeline import PipelineConfig
from repro.sweep import (
    SWEEP_REPORT_SCHEMA_VERSION,
    GridAxis,
    SweepGrid,
    build_report,
    confidence_interval,
    render_markdown,
    run_sweep,
    t_critical_95,
)
from repro.topology.generator import TopologyConfig


class TestTTable:
    def test_exact_small_dfs(self):
        assert t_critical_95(1) == pytest.approx(12.706)
        assert t_critical_95(2) == pytest.approx(4.303)
        assert t_critical_95(9) == pytest.approx(2.262)
        assert t_critical_95(30) == pytest.approx(2.042)

    def test_bracketing_rounds_df_down_and_quantile_up(self):
        # Between table rows the largest tabulated df <= request is
        # used: t decreases in df, so the interval is widened, never
        # narrowed (conservative direction).
        assert t_critical_95(35) == pytest.approx(2.042)  # floor df=30
        assert t_critical_95(59) == pytest.approx(2.021)  # floor df=40
        assert t_critical_95(100) == pytest.approx(2.000)  # floor df=60
        assert t_critical_95(10_000) == pytest.approx(1.980)  # table tail
        for df in (31, 45, 80, 500):
            floor = t_critical_95(df)
            assert floor >= 1.980
            # Never narrower than the next tabulated row above.
            assert floor >= t_critical_95(df + 100)

    def test_rejects_zero_df(self):
        with pytest.raises(ValueError):
            t_critical_95(0)


class TestConfidenceInterval:
    def test_known_three_sample_case(self):
        # values 1, 2, 3: mean 2, sample stddev 1, t(df=2) = 4.303.
        interval = confidence_interval([1.0, 2.0, 3.0])
        assert interval["n"] == 3
        assert interval["mean"] == pytest.approx(2.0)
        assert interval["stddev"] == pytest.approx(1.0)
        expected = 4.303 / math.sqrt(3)
        assert interval["ci95_half_width"] == pytest.approx(expected)
        assert interval["ci95_low"] == pytest.approx(2.0 - expected)
        assert interval["ci95_high"] == pytest.approx(2.0 + expected)

    def test_identical_samples_have_zero_width(self):
        interval = confidence_interval([5.0, 5.0, 5.0, 5.0])
        assert interval["stddev"] == 0.0
        assert interval["ci95_half_width"] == 0.0
        assert interval["ci95_low"] == interval["ci95_high"] == 5.0

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            confidence_interval([1.0])


def seed_grid(seeds=(1, 2, 3)) -> SweepGrid:
    base = PipelineConfig(
        dataset=DatasetConfig(
            topology=TopologyConfig(
                seed=5, tier1_count=3, tier2_count=8, tier3_count=20
            ),
            seed=5,
            vantage_points=4,
        ),
        top=2,
        max_sources=10,
    )
    return SweepGrid(base, [GridAxis("dataset.seed", tuple(seeds))])


@pytest.fixture(scope="module")
def seed_sweep_report(tmp_path_factory):
    cache = tmp_path_factory.mktemp("ci-cache")
    grid = seed_grid()
    result = run_sweep(grid, cache_dir=cache)
    assert not result.failed()
    return build_report(result, grid)


class TestReportIntegration:
    def test_schema_version_bumped_for_ci_fields(self, seed_sweep_report):
        assert seed_sweep_report["schema_version"] == SWEEP_REPORT_SCHEMA_VERSION
        assert SWEEP_REPORT_SCHEMA_VERSION >= 2

    def test_groups_carry_interval_statistics(self, seed_sweep_report):
        groups = seed_sweep_report["seed_variance"]["groups"]
        assert len(groups) == 1  # one fixed config, three seeds
        group = groups[0]
        assert len(group["scenario_ids"]) == 3
        assert group["metrics"], "per-metric intervals missing"
        for name, interval in group["metrics"].items():
            assert interval["n"] == 3, name
            assert interval["ci95_low"] <= interval["mean"] <= interval["ci95_high"]
            assert interval["ci95_half_width"] >= 0
        # A metric flagged as varying must have a nonzero interval, and
        # its values must straddle nothing outside [low, high] bounds
        # computed from the raw per-scenario deltas.
        for name in group["varying_metrics"]:
            interval = group["metrics"][name]
            assert interval["stddev"] > 0, name
            values = seed_sweep_report["deltas"][name]["values"]
            sample = [values[sid] for sid in group["scenario_ids"] if sid in values]
            assert interval["mean"] == pytest.approx(sum(sample) / len(sample))

    def test_stable_metrics_have_zero_width_intervals(self, seed_sweep_report):
        group = seed_sweep_report["seed_variance"]["groups"][0]
        stable = [
            name for name in group["metrics"] if name not in group["varying_metrics"]
        ]
        assert stable, "expected at least one seed-stable metric"
        for name in stable:
            assert group["metrics"][name]["ci95_half_width"] == 0.0

    def test_markdown_renders_ci_table(self, seed_sweep_report):
        markdown = render_markdown(seed_sweep_report)
        assert "t-based mean ± 95% CI" in markdown
        assert "| metric | n | mean | ± 95% CI | interval |" in markdown
        assert "(3 seeds)" in markdown

    def test_markdown_without_seed_groups_still_renders(self, tmp_path):
        grid = SweepGrid(
            seed_grid().base, [GridAxis("top", (2, 3))]
        )
        result = run_sweep(grid, cache_dir=tmp_path)
        markdown = render_markdown(build_report(result, grid))
        assert "No scenario group differs only in a seed axis" in markdown
