"""Golden-equivalence suite for the staged pipeline.

The staged pipeline (:mod:`repro.pipeline`) must be indistinguishable
from the monolithic builder it replaced — same observations, same
archive bytes, same ground truth, same Section-3 report — on two seeds,
cold *and* through a warm artifact cache.
``tests/fixtures/pipeline_golden.json`` holds what that builder (one
shared ``random.Random(seed)`` stream threaded through policies,
disputes, leaks, vantage and origin selection, with propagation and
collection interleaved per address family) produced for them: small
results as values, large ones as digests (see ``tests/golden.py``).

Regenerate (only on purpose, and say why in CHANGES.md)::

    PYTHONPATH=src python tests/test_pipeline_golden.py
"""

from __future__ import annotations

import pytest

from golden import canonical, digest, load, write
from repro.analysis.stats import compute_section3
from repro.collectors.mrt import write_table_dump
from repro.core.relationships import AFI
from repro.datasets.config import DatasetConfig
from repro.datasets.synthetic import build_snapshot
from repro.pipeline import PipelineConfig, run_pipeline
from repro.topology.config import TopologyConfig

FIXTURE = "pipeline_golden.json"
GOLDEN_SEEDS = (3, 11)
AFIS = (AFI.IPV4, AFI.IPV6)


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


def monolith(seed: int) -> dict:
    """The fixture entry of one golden seed."""
    return load(FIXTURE)[str(seed)]


def section3_of(snapshot) -> dict:
    return compute_section3(snapshot.store, snapshot.registry).report.as_dict()


def snapshot_entry(snapshot) -> dict:
    """What the fixture records for one snapshot (less its report)."""
    archive = snapshot.archive
    return {
        "observations_sha256": digest(snapshot.observations),
        "archive": {
            "snapshots": canonical(archive.snapshots()),
            "table_dump_sha256": [
                digest(write_table_dump(archive._snapshots[key]))
                for key in archive.snapshots()
            ],
            "projects": {
                collector: archive.project_of(collector)
                for collector in archive.collectors
            },
        },
        "relaxed_adjacencies": canonical(snapshot.relaxed_adjacencies),
        "dispute_links": canonical(snapshot.dispute_links),
        "true_hybrid_links": canonical(snapshot.true_hybrid_links),
        "extraction_stats": canonical(snapshot.extraction.stats),
        "ground_truth_sha256": {
            afi.name: digest(snapshot.ground_truth[afi].records()) for afi in AFIS
        },
        "reachable_counts_sha256": {
            afi.name: digest(snapshot.propagation[afi].reachable_counts)
            for afi in AFIS
        },
        "documented_ases": sorted(snapshot.registry.documented_ases),
        "documentation_corpus_sha256": digest(
            snapshot.registry.documentation_corpus()
        ),
    }


def _assert_snapshots_identical(staged, expected: dict):
    entry = snapshot_entry(staged)
    for key, value in entry.items():
        assert value == expected[key], key
    assert set(entry) | {"section3"} == set(expected)


class TestStagedEqualsMonolith:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_snapshot_bit_identical(self, seed):
        staged = build_snapshot(golden_config(seed))
        _assert_snapshots_identical(staged, monolith(seed))

    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_section3_report_identical(self, seed):
        staged = build_snapshot(golden_config(seed))
        assert section3_of(staged) == monolith(seed)["section3"]


class TestCachedEqualsCold:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_warm_cache_results_identical(self, seed, tmp_path):
        config = PipelineConfig(dataset=golden_config(seed), top=5)
        targets = ("snapshot", "section3", "correction")
        cold = run_pipeline(config, cache_dir=tmp_path, targets=targets)
        warm = run_pipeline(config, cache_dir=tmp_path, targets=targets)
        # Only the stages that are never persisted recompute: the
        # snapshot assembly, and the irr → scenario → propagation →
        # store chain it reads, from the cached topology.
        assert warm.computed_stages() == [
            "irr",
            "scenario",
            "propagation_v4",
            "propagation_v6",
            "collection_v4",
            "collection_v6",
            "archive",
            "store",
            "snapshot",
        ]
        assert warm.cached_stages() == [
            "topology",
            "ground_truth",
            "section3",
            "correction",
        ]
        expected = monolith(seed)
        _assert_snapshots_identical(warm.value("snapshot"), expected)
        assert warm.value("section3").as_dict() == expected["section3"]
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


if __name__ == "__main__":
    entries = {}
    for seed in GOLDEN_SEEDS:
        snapshot = build_snapshot(golden_config(seed))
        entries[str(seed)] = {**snapshot_entry(snapshot), "section3": section3_of(snapshot)}
    print(write(FIXTURE, entries))
