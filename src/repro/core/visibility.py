"""Link visibility in observed AS paths.

The paper reports that hybrid links, despite being only 13 % of the
dual-stack links, appear in more than 28 % of the IPv6 AS paths because
they sit between well-connected tier-1/tier-2 ASes.  Figure 2 then
corrects the 20 hybrid links "with the highest visibility in the IPv6 AS
paths".  Both need the same primitive: counting, for every link, how many
observed paths traverse it.

The index holds the per-link counters only.  The one statistic they
cannot answer, how many paths cross *any* of a set of links, is
:meth:`~repro.core.store.ObservationStore.paths_crossing_any`, computed
from the store's per-path link tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.relationships import AFI, Link

if TYPE_CHECKING:  # the store module imports this one
    from repro.core.store import ObservationStore


@dataclass
class VisibilityIndex:
    """Per-link path-visibility counters for one set of observations.

    Attributes:
        afi: Address family of the indexed paths (``None`` = mixed).
        path_count: Number of distinct paths indexed.
        link_paths: For every link, the number of distinct paths that
            traverse it.
    """

    afi: Optional[AFI]
    path_count: int = 0
    link_paths: Dict[Link, int] = field(default_factory=dict)

    def visibility_of(self, link: Link) -> int:
        """Number of indexed paths that traverse ``link``."""
        return self.link_paths.get(link, 0)

    def rank_links(self, links: Optional[Iterable[Link]] = None) -> List[Tuple[Link, int]]:
        """Links ranked by decreasing visibility.

        ``links`` restricts the ranking (e.g. to the hybrid links); links
        never seen in a path get visibility 0 and sort last.  Ties are
        broken by the canonical link ordering so the ranking is stable.
        """
        candidates = list(links) if links is not None else list(self.link_paths)
        return sorted(
            ((link, self.visibility_of(link)) for link in candidates),
            key=lambda item: (-item[1], item[0]),
        )

    def top_links(self, count: int, links: Optional[Iterable[Link]] = None) -> List[Link]:
        """The ``count`` most visible links (optionally among ``links``)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [link for link, _ in self.rank_links(links)[:count]]


def build_visibility_index(
    store: ObservationStore, afi: Optional[AFI] = None
) -> VisibilityIndex:
    """Index the distinct AS paths of one plane of ``store``.

    Each distinct path is counted once, which is how the paper counts
    "IPv6 AS paths".  The index is the store's cached table.
    """
    return store.visibility_index(afi)
