"""Engine parity as a sweep axis: both backends, bit-identical reports.

``propagation.engine`` is an ordinary dotted-path grid axis, so a sweep
can fan the same scenario out across the propagation backends.  This
suite pins the two contracts that make that useful:

* **parity** — ``event`` and ``array`` produce byte-identical Section-3
  and Figure-2 report payloads for the same dataset cell (the engine
  trades build time, never results), and
* **cache honesty** — the engine participates in the propagation stage
  fingerprint, so two cells differing only in the engine share every
  upstream artifact but *recompute* propagation instead of aliasing to
  one cached result (which would make the parity assertion vacuous).

The grid keeps the stock policy mix of the synthetic dataset — IPv4
traffic-engineering overrides, gratuitous leaks and IPv6 peering
disputes — so parity is checked on the policies the paper exercises.
"""

from __future__ import annotations

import pytest

from repro.datasets.config import DatasetConfig
from repro.pipeline import PipelineConfig, run_pipeline
from repro.sweep import GridAxis, SweepGrid, run_sweep
from repro.topology.config import TopologyConfig

ENGINES = ("event", "array")


def _tiny_dataset(seed: int) -> DatasetConfig:
    """A tiny dataset cell with the stock policy knobs."""
    return DatasetConfig(
        topology=TopologyConfig(
            seed=seed, tier1_count=3, tier2_count=8, tier3_count=20
        ),
        seed=seed,
        vantage_points=4,
    )


def _engine_grid() -> SweepGrid:
    base = PipelineConfig(dataset=_tiny_dataset(1), top=3)
    return SweepGrid(
        base,
        [
            GridAxis("propagation.engine", ENGINES),
            GridAxis("dataset.seed", (1, 2)),
        ],
    )


@pytest.fixture(scope="module")
def engine_sweep(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("engine-sweep-cache")
    result = run_sweep(_engine_grid(), cache_dir=cache_dir)
    return result


class TestEngineParitySweep:
    def test_all_cells_ok(self, engine_sweep):
        assert [r.status for r in engine_sweep.results] == ["ok"] * (
            len(ENGINES) * 2
        )

    @pytest.mark.parametrize("seed", (1, 2))
    def test_reports_bit_identical_across_engines(self, engine_sweep, seed):
        by_id = engine_sweep.by_id()
        cells = [
            by_id[f"propagation.engine={engine},dataset.seed={seed}"]
            for engine in ENGINES
        ]
        reference = cells[0]
        assert reference.section3 is not None
        assert reference.correction is not None
        for cell in cells[1:]:
            assert cell.section3 == reference.section3, cell.scenario_id
            assert cell.correction == reference.correction, cell.scenario_id

    def test_engine_is_part_of_the_propagation_fingerprint(self, engine_sweep):
        """Same dataset cell, different engine: shared upstream stages,
        distinct propagation fingerprints (a real recompute, not one
        cached artifact wearing two engine labels)."""
        by_id = engine_sweep.by_id()
        cells = [
            by_id[f"propagation.engine={engine},dataset.seed=1"]
            for engine in ENGINES
        ]
        for stage in ("topology", "scenario"):
            fingerprints = {cell.fingerprints[stage] for cell in cells}
            assert len(fingerprints) == 1, f"{stage} should be shared"
        for stage in ("propagation_v4", "propagation_v6"):
            fingerprints = {cell.fingerprints[stage] for cell in cells}
            assert len(fingerprints) == len(ENGINES), (
                f"{stage} fingerprint must discriminate the engine"
            )

    def test_grid_exercises_the_stock_policy_mix(self):
        """Guard against parity narrowing to vanilla policies: the
        grid's scenarios carry peering disputes, relaxed exports and
        traffic-engineering overrides."""
        scenarios = [
            run_pipeline(
                PipelineConfig(dataset=_tiny_dataset(seed)), targets=("scenario",)
            ).value("scenario")
            for seed in (1, 2)
        ]
        assert all(s.dispute_links and s.relaxed_adjacencies for s in scenarios)
        assert any(
            policy.te_overrides for s in scenarios for policy in s.policies.values()
        )
