"""An indexed, build-once store of route observations.

Every inference stage of the measurement pipeline reads the same set of
:class:`~repro.core.observations.ObservedRoute` objects: the
communities inference needs the tagged routes, the LocPrf inference
groups by vantage, the visibility index and the link inventory need the
links of every distinct path, and the valley analysis needs the distinct
paths themselves.

:class:`ObservationStore` is built once, by
:func:`repro.analysis.paths.store_from_records`, and is the only input
type of the measurement layer (``repro.analysis`` and the inference
modules in ``repro.core``).  One pass over the observations builds
the indexes every consumer reads —

* observations **by AFI** and **by vantage**,
* the **distinct-path tables** (per AFI in first-seen order; the
  mixed-plane table lazily), and
* the subsets of observations **carrying LOCAL_PREF** and **carrying
  communities** (the only observations the LocPrf and communities
  inferences can use).

The link side is built on first use: the **link set of each plane**
and the per-AFI :class:`~repro.core.visibility.VisibilityIndex` tables.
Each scan takes a path's links from :meth:`ObservationStore.path_links`,
which builds the tuple from the interned ``Link`` objects (``Link``
objects are created once per hop pair and shared by every path instead
of once per scan) and keeps no per-path table: a scan of tens of
thousands of paths leaves nothing per path behind it.  The pipeline
builds the store while the collector archive is still alive and
releases the archive before the inferences read links, so the link
tables never share the peak with the archive.

:meth:`ObservationStore._build` is the only code that fills the eager
indexes, :meth:`ObservationStore.links` and
:meth:`ObservationStore.visibility_index` the only code that fills the
link tables.  ``tests/test_store.py`` pins the store-backed results to
what the seed's per-stage list scans computed.

Index invariants
----------------

1. ``observations`` preserves extraction order; every other index
   preserves the relative order of that list (``by_afi``/``by_vantage``
   lists, ``with_local_pref``/``with_communities`` subsequences,
   distinct-path tables in first-seen order).  This is what makes the
   store-backed results *identical* to the seed's list scans, down to
   dict insertion order.
2. ``path_links(path)`` is a pure function of the path, built anew on
   each call from the shared, interned ``Link`` objects; the store
   keeps no container with one entry per path beyond the distinct-path
   tables.
3. ``links(afi)`` equals the union of ``path_links(p)`` over the
   distinct paths of that plane — links are plane-tagged only through
   the prefixes observed over them.
4. The store treats observations as immutable; do not mutate the lists
   or sets it returns (they are the live indexes, not copies).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.observations import ObservedRoute
from repro.core.relationships import AFI, Link
from repro.core.visibility import VisibilityIndex

#: A cleaned AS path, vantage first.
PathTuple = Tuple[int, ...]


class ObservationStore:
    """Build-once indexes over a set of observations.

    Args:
        observations: The (already extracted and deduplicated)
            observations, in extraction order.
    """

    def __init__(self, observations: Iterable[ObservedRoute]) -> None:
        self.observations: List[ObservedRoute] = list(observations)
        self.by_afi: Dict[AFI, List[ObservedRoute]] = {AFI.IPV4: [], AFI.IPV6: []}
        self.by_vantage: Dict[int, List[ObservedRoute]] = {}
        self.with_local_pref: List[ObservedRoute] = []
        self.with_communities: List[ObservedRoute] = []
        # Each plane's distinct paths in first-seen order, as the keys
        # of one dict (the values are unused).  The mixed-plane
        # (afi=None) table is derived lazily: it is only consulted by
        # whole-archive queries, not the per-plane pipeline.
        self._distinct: Dict[Optional[AFI], Optional[Dict[PathTuple, None]]] = {
            None: None,
            AFI.IPV4: {},
            AFI.IPV6: {},
        }
        # The link set of each plane is built on first use, by the
        # inferences and the views: a pipeline builds the store while
        # the collector archive is still alive, and releases the
        # archive before those run.  Path link tuples are not kept.
        self._links: Dict[AFI, Set[Link]] = {}
        # Canonical Link interning table: distinct links number in the
        # low thousands while the paths reference them tens of thousands
        # of times, so construct each once and share it.
        self._link_memo: Dict[Tuple[int, int], Link] = {}
        # Lazy caches.
        self._all_links: Optional[Set[Link]] = None
        self._dual_stack_links: Optional[Set[Link]] = None
        self._visibility: Dict[Optional[AFI], VisibilityIndex] = {}
        self._build()

    def _build(self) -> None:
        by_afi = self.by_afi
        by_vantage = self.by_vantage
        with_local_pref = self.with_local_pref
        with_communities = self.with_communities
        ipv4 = AFI.IPV4
        # Per-plane structures bound to locals and selected with one
        # identity check per observation: that replaces dict probes
        # and attribute loads per observation.
        v4_obs, v6_obs = by_afi[ipv4], by_afi[AFI.IPV6]
        v4_distinct, v6_distinct = self._distinct[ipv4], self._distinct[AFI.IPV6]
        for observation in self.observations:
            if observation.afi is ipv4:
                obs_list, distinct = v4_obs, v4_distinct
            else:
                obs_list, distinct = v6_obs, v6_distinct
            obs_list.append(observation)
            vantage_list = by_vantage.get(observation.vantage)
            if vantage_list is None:
                by_vantage[observation.vantage] = [observation]
            else:
                vantage_list.append(observation)
            # A repeated path keeps its first key and position.
            distinct[observation.path] = None
            if observation.local_pref is not None:
                with_local_pref.append(observation)
            if observation.communities:
                with_communities.append(observation)

    # ------------------------------------------------------------------
    # basic container behaviour
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[ObservedRoute]:
        return iter(self.observations)

    def __len__(self) -> int:
        return len(self.observations)

    # ------------------------------------------------------------------
    # observation subsets
    # ------------------------------------------------------------------
    def observations_for(self, afi: Optional[AFI]) -> List[ObservedRoute]:
        """Observations of one plane (``None`` = all), in extraction order."""
        if afi is None:
            return self.observations
        return self.by_afi[afi]

    @property
    def vantages(self) -> List[int]:
        """Vantage-point ASes, in first-seen order."""
        return list(self.by_vantage)

    # ------------------------------------------------------------------
    # path tables
    # ------------------------------------------------------------------
    def distinct_paths(self, afi: Optional[AFI] = None) -> List[PathTuple]:
        """Distinct AS paths (of one plane), in first-seen order."""
        return list(self._distinct_table(afi))

    def distinct_path_count(self, afi: Optional[AFI] = None) -> int:
        """Number of distinct AS paths (of one plane)."""
        if afi is None and self._distinct[None] is None:
            # Count the union of the planes without building its table.
            v4, v6 = self._distinct[AFI.IPV4], self._distinct[AFI.IPV6]
            return len(v4) + sum(1 for path in v6 if path not in v4)
        return len(self._distinct_table(afi))

    def _distinct_table(self, afi: Optional[AFI]) -> Dict[PathTuple, None]:
        paths = self._distinct[afi]
        if paths is None:  # afi is None: derive the mixed table on demand
            paths = self._distinct[afi] = dict.fromkeys(
                observation.path for observation in self.observations
            )
        return paths

    def path_links(self, path: PathTuple) -> Tuple[Link, ...]:
        """Canonical links of a path (observer side first), built from
        the interned ``Link`` objects on every call; no per-path table
        outlives a scan."""
        memo = self._link_memo
        try:
            return tuple(map(memo.__getitem__, zip(path, path[1:])))
        except KeyError:  # a hop pair not seen before: intern it
            for pair in zip(path, path[1:]):
                if pair not in memo:
                    memo[pair] = Link(*pair)
            return tuple(map(memo.__getitem__, zip(path, path[1:])))

    # ------------------------------------------------------------------
    # link tables
    # ------------------------------------------------------------------
    def links(self, afi: Optional[AFI] = None) -> Set[Link]:
        """Links visible in the paths of one plane (``None`` = union)."""
        if afi is None:
            if self._all_links is None:
                self._all_links = self.links(AFI.IPV4) | self.links(AFI.IPV6)
            return self._all_links
        plane = self._links.get(afi)
        if plane is None:
            # Distinct paths in first-seen order, each path's links in
            # path order: the insertion order the set always had.
            plane = self._links[afi] = set(
                chain.from_iterable(map(self.path_links, self._distinct[afi]))
            )
        return plane

    def dual_stack_links(self) -> Set[Link]:
        """Links visible in both planes."""
        if self._dual_stack_links is None:
            self._dual_stack_links = self.links(AFI.IPV4) & self.links(AFI.IPV6)
        return self._dual_stack_links

    def visibility_index(self, afi: Optional[AFI] = None) -> VisibilityIndex:
        """The per-link path-visibility table of one plane (cached).

        Each distinct AS path of the plane is counted once, which is how
        the paper counts "IPv6 AS paths"; a path's links are distinct,
        since paths are loop-free.
        """
        cached = self._visibility.get(afi)
        if cached is not None:
            return cached
        paths = self._distinct_table(afi)
        counter = Counter(chain.from_iterable(map(self.path_links, paths)))
        index = VisibilityIndex(afi=afi, path_count=len(paths), link_paths=dict(counter))
        self._visibility[afi] = index
        return index

    def paths_crossing_any(self, links: Iterable[Link], afi: Optional[AFI] = None) -> int:
        """Number of distinct paths (of one plane) that traverse at least
        one of ``links``.

        This is the statistic behind the paper's ">28 % of the IPv6 paths
        contain at least one hybrid link"; it cannot be derived from the
        per-link visibility counters (paths may cross several of the
        links), so it is answered from each path's hop pairs.
        """
        # A link equals the hop pair in its canonical orientation, so
        # matching both orientations checks a path's hop pairs directly.
        target = set(links)
        target.update([(link.b, link.a) for link in target])
        return sum(
            1
            for path in self._distinct_table(afi)
            if not target.isdisjoint(zip(path, path[1:]))
        )
