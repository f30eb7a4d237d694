"""AS-level topology substrate: graph, tiers, generator and serialization."""

from repro.topology.graph import ASGraph, ASNode
from repro.topology.generator import GeneratedTopology, TopologyConfig, generate_topology
from repro.topology.tiers import (
    TierThresholds,
    annotate_tiers,
    classify_tiers,
    tier_histogram,
    tier_members,
    tier_of_link,
)
from repro.topology.serialization import (
    TopologyFormatError,
    dumps_dual_stack,
    loads_dual_stack,
    read_caida_asrel,
    read_dual_stack,
    write_caida_asrel,
    write_dual_stack,
)

__all__ = [
    "ASGraph",
    "ASNode",
    "GeneratedTopology",
    "TopologyConfig",
    "generate_topology",
    "TierThresholds",
    "annotate_tiers",
    "classify_tiers",
    "tier_histogram",
    "tier_members",
    "tier_of_link",
    "TopologyFormatError",
    "dumps_dual_stack",
    "loads_dual_stack",
    "read_caida_asrel",
    "read_dual_stack",
    "write_caida_asrel",
    "write_dual_stack",
]
