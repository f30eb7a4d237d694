"""BGP substrate: prefixes, attributes, routes, policies, speakers, propagation."""

from repro.bgp.attributes import ASPath, Community, Origin, PathAttributes
from repro.bgp.messages import Announcement, Route
from repro.bgp.policy import (
    CommunityTagger,
    LocalPrefScheme,
    RoutingPolicy,
    TrafficEngineeringOverride,
    default_policies,
    gao_rexford_export_allowed,
)
from repro.bgp.engine import PropagationEngine
from repro.bgp.prefixes import Prefix, PrefixAllocator, group_by_afi
from repro.bgp.propagation import (
    ConvergenceError,
    PropagationResult,
    PropagationSimulator,
    originate_one_prefix_per_as,
)
from repro.bgp.rib import AdjRibIn, LocRib, RibSnapshot
from repro.bgp.router import BGPSpeaker, Neighbor

__all__ = [
    "ASPath",
    "Community",
    "Origin",
    "PathAttributes",
    "Announcement",
    "Route",
    "CommunityTagger",
    "LocalPrefScheme",
    "RoutingPolicy",
    "TrafficEngineeringOverride",
    "default_policies",
    "gao_rexford_export_allowed",
    "Prefix",
    "PrefixAllocator",
    "group_by_afi",
    "ConvergenceError",
    "PropagationEngine",
    "PropagationResult",
    "PropagationSimulator",
    "originate_one_prefix_per_as",
    "AdjRibIn",
    "LocRib",
    "RibSnapshot",
    "BGPSpeaker",
    "Neighbor",
]
