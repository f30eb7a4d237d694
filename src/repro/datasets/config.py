"""Configuration of the synthetic snapshot builder and its presets.

:class:`DatasetConfig` and the ``small_config``/``paper_scale_config``
presets live apart from :mod:`repro.datasets.synthetic`, so a command
that only names a configuration (a warm ``repro figure2``, a sweep
grid) imports none of the snapshot-building code.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass, field

from repro.topology.config import TopologyConfig


@dataclass
class DatasetConfig:
    """Configuration of the synthetic snapshot builder.

    The defaults produce a snapshot whose *shape* matches the paper's
    August-2010 measurements (coverage ≈ 70-85 %, hybrid share ≈ 10-15 %,
    valley share ≈ 5-20 %) at a size that builds in tens of seconds.
    """

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    seed: int = 42
    snapshot_date: _dt.date = _dt.date(2010, 8, 20)
    # IRR documentation coverage.
    documented_fraction: float = 0.70
    # Fraction of ASes that strip communities when exporting routes.
    strip_communities_fraction: float = 0.15
    # Fraction of multi-homed ASes with a traffic-engineering override.
    te_override_fraction: float = 0.10
    # Valley-path machinery.
    ipv6_peering_disputes: int = 1
    gratuitous_leak_fraction: float = 0.08
    # Collectors.
    vantage_points: int = 20
    collectors_per_project: int = 2
    exports_local_pref_fraction: float = 0.7

    def __post_init__(self) -> None:
        for name in (
            "documented_fraction",
            "strip_communities_fraction",
            "te_override_fraction",
            "gratuitous_leak_fraction",
            "exports_local_pref_fraction",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if self.vantage_points < 1:
            raise ValueError("at least one vantage point is required")


def small_config(seed: int = 7) -> DatasetConfig:
    """A small configuration for tests: builds in a couple of seconds."""
    return DatasetConfig(
        topology=TopologyConfig(
            seed=seed,
            tier1_count=5,
            tier2_count=25,
            tier3_count=90,
        ),
        seed=seed,
        vantage_points=10,
    )


def paper_scale_config(seed: int = 2010) -> DatasetConfig:
    """The ``--paper-scale`` configuration (449 ASes).

    Large enough for the statistics to be stable, small enough that a
    cold ``section3`` builds in seconds; ``perfbench/`` measures the
    paper pipeline at this scale.
    """
    return DatasetConfig(
        topology=TopologyConfig(
            seed=seed,
            tier1_count=9,
            tier2_count=80,
            tier3_count=360,
        ),
        seed=seed,
        vantage_points=24,
        collectors_per_project=3,
    )
