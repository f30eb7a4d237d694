"""Engine parity as a sweep axis: every backend, bit-identical reports.

``propagation.engine`` is an ordinary dotted-path grid axis, so a sweep
can fan the same scenario out across all propagation backends.  This
suite pins the two contracts that make that useful:

* **parity** — every engine produces byte-identical Section-3 and
  Figure-2 report payloads for the same dataset cell (the engine trades
  build time, never results), and
* **cache honesty** — the engine participates in the propagation stage
  fingerprint, so two cells differing only in the engine share every
  upstream artifact but *recompute* propagation instead of aliasing to
  one cached result (which would make the parity assertion vacuous).

The grid zeroes the traffic-engineering / leak / dispute knobs of the
synthetic dataset so the equilibrium solver genuinely applies — a
sanity check asserts applicability rather than trusting the silent
``auto`` fallback to hide a regression.
"""

from __future__ import annotations

import pytest

from repro.bgp.backends import EquilibriumBackend
from repro.core.relationships import AFI
from repro.datasets import DatasetConfig
from repro.pipeline import PipelineConfig, PropagationConfig, run_pipeline
from repro.sweep import GridAxis, SweepGrid, run_sweep
from repro.topology.generator import TopologyConfig

ENGINES = ("event", "equilibrium", "array", "auto")


def _solver_friendly_dataset(seed: int) -> DatasetConfig:
    """A tiny dataset cell with the non-Gao-Rexford knobs switched off."""
    return DatasetConfig(
        topology=TopologyConfig(
            seed=seed, tier1_count=3, tier2_count=8, tier3_count=20
        ),
        seed=seed,
        vantage_points=4,
        te_override_fraction=0.0,
        gratuitous_leak_fraction=0.0,
        ipv6_peering_disputes=0,
    )


def _engine_grid() -> SweepGrid:
    base = PipelineConfig(dataset=_solver_friendly_dataset(1), top=3, max_sources=10)
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
        cached artifact wearing four engine labels)."""
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

    def test_solver_actually_applies_to_the_grid(self):
        """Guard against the parity test silently degrading into
        event-vs-event: the zeroed dataset really is solver-eligible."""
        config = PipelineConfig(
            dataset=_solver_friendly_dataset(1),
            propagation=PropagationConfig(engine="equilibrium"),
        )
        run = run_pipeline(config, targets=("scenario",))
        scenario = run.value("scenario")
        graph = scenario.topology.graph
        for afi in (AFI.IPV4, AFI.IPV6):
            reason = EquilibriumBackend.inapplicable_reason(
                graph, scenario.policies, afi
            )
            assert reason is None, reason

    def test_default_dataset_falls_back(self):
        """The stock small dataset has TE overrides and IPv6 disputes —
        ``auto`` on it must take the event path, with a reason."""
        from repro.bgp.engine import PropagationEngine
        from repro.bgp.propagation import originate_one_prefix_per_as
        from repro.datasets import small_config

        config = PipelineConfig(dataset=small_config(seed=7))
        run = run_pipeline(config, targets=("scenario",))
        scenario = run.value("scenario")
        graph = scenario.topology.graph
        engine = PropagationEngine(graph, scenario.policies, engine="auto")
        origins = originate_one_prefix_per_as(graph, AFI.IPV4)
        name, reason = engine.select_backend(origins)
        assert name == "event"
        assert reason
