"""AS-link extraction and dual-stack matching.

The second stage of the measurement pipeline: from the per-family
observations, derive

* the set of links visible in the IPv4 plane,
* the set of links visible in the IPv6 plane, and
* their intersection — the *dual-stack* links on which hybrid
  relationships can exist at all (the paper's 7,618 links).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Set

from repro.core.relationships import AFI, Link

if TYPE_CHECKING:
    from repro.core.store import ObservationStore


@dataclass
class LinkInventory:
    """Links visible per address family and their intersection.

    Attributes:
        ipv4_links: Links seen in at least one IPv4 path.
        ipv6_links: Links seen in at least one IPv6 path.
    """

    ipv4_links: Set[Link] = field(default_factory=set)
    ipv6_links: Set[Link] = field(default_factory=set)

    @property
    def dual_stack_links(self) -> Set[Link]:
        """Links visible in both planes."""
        return self.ipv4_links & self.ipv6_links

    @property
    def ipv6_only_links(self) -> Set[Link]:
        """Links visible only in the IPv6 plane."""
        return self.ipv6_links - self.ipv4_links

    @property
    def ipv4_only_links(self) -> Set[Link]:
        """Links visible only in the IPv4 plane."""
        return self.ipv4_links - self.ipv6_links

    def links(self, afi: AFI) -> Set[Link]:
        """Links of one plane."""
        return self.ipv4_links if afi is AFI.IPV4 else self.ipv6_links

    def summary(self) -> Dict[str, int]:
        """Size summary used by reports."""
        return {
            "ipv4_links": len(self.ipv4_links),
            "ipv6_links": len(self.ipv6_links),
            "dual_stack_links": len(self.dual_stack_links),
            "ipv6_only_links": len(self.ipv6_only_links),
            "ipv4_only_links": len(self.ipv4_only_links),
        }


def build_link_inventory(store: ObservationStore) -> LinkInventory:
    """The per-plane link sets of a store.

    Copies the store's precomputed per-plane link sets, so the inventory
    stays independently mutable.
    """
    return LinkInventory(
        ipv4_links=set(store.links(AFI.IPV4)),
        ipv6_links=set(store.links(AFI.IPV6)),
    )
