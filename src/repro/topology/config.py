"""Configuration of the synthetic topology generator.

:class:`TopologyConfig` lives apart from
:mod:`repro.topology.generator` so that code which only names a
configuration (the CLI, the pipeline's config types, sweep grids)
imports no graph or generator code.  Stage fingerprints name the class
by its class name alone (:func:`repro.pipeline.artifacts.config_token`),
and :mod:`repro.topology.generator` still imports it, so artifacts that
pickled it under the generator's module path keep loading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass
class TopologyConfig:
    """Knobs of the synthetic topology generator.

    The defaults produce a topology of roughly 550 ASes which is large
    enough to exhibit the paper's qualitative behaviour while keeping the
    route-propagation simulator fast enough for the test suite.
    """

    seed: int = 2010
    # Hierarchy sizes.
    tier1_count: int = 10
    tier2_count: int = 90
    tier3_count: int = 450
    # Connectivity.
    tier2_providers: Tuple[int, int] = (1, 3)
    tier3_providers: Tuple[int, int] = (1, 2)
    tier2_peering_probability: float = 0.12
    tier3_peering_probability: float = 0.004
    # IPv6 adoption.
    tier1_ipv6_fraction: float = 1.0
    tier2_ipv6_fraction: float = 0.85
    tier3_ipv6_fraction: float = 0.45
    # Extra IPv6-only peering links (fraction of the dual-stack link count).
    ipv6_only_peering_fraction: float = 0.25
    # Hybrid links.
    hybrid_fraction: float = 0.13
    hybrid_peer4_transit6_share: float = 0.67
    include_reversed_transit_case: bool = True
    # First ASN handed out.
    first_asn: int = 1

    def __post_init__(self) -> None:
        if self.tier1_count < 2:
            raise ValueError("at least two tier-1 ASes are required")
        if not 0.0 <= self.hybrid_fraction <= 1.0:
            raise ValueError("hybrid_fraction must be within [0, 1]")
        if not 0.0 <= self.hybrid_peer4_transit6_share <= 1.0:
            raise ValueError("hybrid_peer4_transit6_share must be within [0, 1]")
        for name in ("tier1_ipv6_fraction", "tier2_ipv6_fraction", "tier3_ipv6_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")

    @property
    def total_ases(self) -> int:
        """Total number of ASes the generator will create."""
        return self.tier1_count + self.tier2_count + self.tier3_count
