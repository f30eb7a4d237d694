"""Golden-equivalence suite for the staged pipeline.

The staged pipeline (:mod:`repro.pipeline`) must be indistinguishable
from the frozen monolithic builder
(:func:`repro.datasets.reference.reference_build_snapshot`) — same
observations, same archive bytes, same ground truth, same Section-3
report — on two seeds, cold *and* through a warm artifact cache.
"""

from __future__ import annotations

import pytest

from repro.analysis.stats import compute_section3
from repro.collectors.mrt import write_table_dump
from repro.core.relationships import AFI
from repro.datasets.config import DatasetConfig
from repro.datasets.synthetic import build_snapshot
from repro.datasets.reference import reference_build_snapshot
from repro.pipeline import PipelineConfig, run_pipeline
from repro.topology.config import TopologyConfig

GOLDEN_SEEDS = (3, 11)


def golden_config(seed: int) -> DatasetConfig:
    return DatasetConfig(
        topology=TopologyConfig(
            seed=seed,
            tier1_count=4,
            tier2_count=14,
            tier3_count=45,
        ),
        seed=seed,
        vantage_points=8,
    )


def _assert_snapshots_identical(staged, monolith):
    assert staged.observations == monolith.observations
    assert staged.archive.snapshots() == monolith.archive.snapshots()
    for key in staged.archive.snapshots():
        assert write_table_dump(staged.archive._snapshots[key]) == write_table_dump(
            monolith.archive._snapshots[key]
        ), key
    for collector in staged.archive.collectors:
        assert staged.archive.project_of(collector) == monolith.archive.project_of(
            collector
        )
    assert staged.relaxed_adjacencies == monolith.relaxed_adjacencies
    assert staged.dispute_links == monolith.dispute_links
    assert staged.true_hybrid_links == monolith.true_hybrid_links
    assert staged.extraction.stats == monolith.extraction.stats
    for afi in (AFI.IPV4, AFI.IPV6):
        assert (
            staged.ground_truth[afi].records() == monolith.ground_truth[afi].records()
        )
        assert (
            staged.propagation[afi].reachable_counts
            == monolith.propagation[afi].reachable_counts
        )
    assert sorted(staged.registry.documented_ases) == sorted(
        monolith.registry.documented_ases
    )
    assert staged.registry.documentation_corpus() == monolith.registry.documentation_corpus()


class TestStagedEqualsMonolith:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_snapshot_bit_identical(self, seed):
        staged = build_snapshot(golden_config(seed))
        monolith = reference_build_snapshot(golden_config(seed))
        _assert_snapshots_identical(staged, monolith)

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_section3_report_identical(self, seed):
        staged = build_snapshot(golden_config(seed))
        monolith = reference_build_snapshot(golden_config(seed))
        staged_report = compute_section3(staged.store, staged.registry).report
        monolith_report = compute_section3(monolith.store, monolith.registry).report
        assert staged_report.as_dict() == monolith_report.as_dict()


class TestCachedEqualsCold:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_warm_cache_results_identical(self, seed, tmp_path):
        config = PipelineConfig(dataset=golden_config(seed), top=5)
        targets = ("snapshot", "section3", "correction")
        cold = run_pipeline(config, cache_dir=tmp_path, targets=targets)
        warm = run_pipeline(config, cache_dir=tmp_path, targets=targets)
        # Only the stages that are never persisted recompute: the
        # snapshot assembly and the propagation → store chain it reads.
        assert warm.computed_stages() == [
            "propagation_v4",
            "propagation_v6",
            "archive",
            "store",
            "snapshot",
        ]
        assert warm.cached_stages() == [
            "irr",
            "scenario",
            "ground_truth",
            "section3",
            "correction",
        ]
        monolith = reference_build_snapshot(golden_config(seed))
        _assert_snapshots_identical(warm.value("snapshot"), monolith)
        assert (
            warm.value("section3").as_dict()
            == compute_section3(monolith.store, monolith.registry).report.as_dict()
        )
        assert warm.value("correction").averages == cold.value("correction").averages
        assert warm.value("correction").diameters == cold.value("correction").diameters

    def test_stage_values_match_compute_section3(self, tmp_path):
        config = PipelineConfig(dataset=golden_config(3))
        run = run_pipeline(config, cache_dir=tmp_path, targets=("section3",))
        views = run.value("views")
        snapshot = build_snapshot(golden_config(3))
        direct = compute_section3(snapshot.store, snapshot.registry)
        assert run.value("section3").as_dict() == direct.report.as_dict()
        assert views.hybrid.hybrid_link_set() == direct.hybrid.hybrid_link_set()
        assert views.inventory.summary() == direct.inventory.summary()
        assert run.value("inference").coverage == direct.inference.coverage
