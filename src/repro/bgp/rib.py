"""Routing Information Bases for the BGP speakers.

* :class:`LocRib`: the single best route per prefix, selected by the
  decision process in :mod:`repro.bgp.router`.
* :class:`RibSnapshot`: a frozen copy of one AS's Loc-RIB.  Collectors
  archive the snapshots of their vantage-point peers, which is what a
  RouteViews ``TABLE_DUMP2`` RIB snapshot contains.

:class:`~repro.bgp.router.BGPSpeaker` keeps its Adj-RIB-In as one
per-prefix candidate index, not as a RIB object per neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.relationships import AFI
from repro.bgp.messages import Route
from repro.bgp.prefixes import Prefix


class LocRib:
    """The best route per prefix, as selected by the decision process."""

    __slots__ = ("_routes",)

    def __init__(self) -> None:
        self._routes: Dict[Prefix, Route] = {}

    def install(self, route: Route) -> bool:
        """Install ``route`` as best for its prefix.

        Returns True when the Loc-RIB changed (no previous best, or a
        different route replaced it).
        """
        previous = self._routes.get(route.prefix)
        if previous == route:
            return False
        self._routes[route.prefix] = route
        return True

    def remove(self, prefix: Prefix) -> Optional[Route]:
        """Remove the best route for ``prefix`` (``None`` if absent)."""
        return self._routes.pop(prefix, None)

    def best(self, prefix: Prefix) -> Optional[Route]:
        """The currently installed best route for ``prefix``."""
        return self._routes.get(prefix)

    def routes(self, afi: Optional[AFI] = None) -> List[Route]:
        """All best routes, optionally filtered by address family."""
        if afi is None:
            return list(self._routes.values())
        return [route for route in self._routes.values() if route.afi is afi]

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def __iter__(self) -> Iterator[Route]:
        return iter(self._routes.values())


@dataclass
class RibSnapshot:
    """A frozen copy of an AS's RIB state, used by the collectors.

    Attributes:
        asn: The AS the snapshot belongs to.
        best_routes: The Loc-RIB content (per prefix best routes).
    """

    asn: int
    best_routes: Dict[Prefix, Route] = field(default_factory=dict)

    def routes(self, afi: Optional[AFI] = None) -> List[Route]:
        """Best routes in the snapshot, optionally per address family."""
        routes = list(self.best_routes.values())
        if afi is None:
            return routes
        return [route for route in routes if route.afi is afi]

    def __len__(self) -> int:
        return len(self.best_routes)
