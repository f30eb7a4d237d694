"""Observed routes: the measurement-side view of BGP data.

The inference algorithms never see the ground-truth topology.  Their
input is a list of :class:`ObservedRoute` objects — one per archived
table-dump record — carrying exactly the fields the paper's methodology
uses: the (cleaned) AS path, the communities, the LOCAL_PREF reported by
the vantage feed, and the prefix/address family.

Keeping this type in :mod:`repro.core` (rather than the analysis
pipeline) lets the inference be exercised on hand-built observations in
unit tests without dragging the whole collector substrate in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.relationships import Link
from repro.bgp.attributes import Community
from repro.bgp.prefixes import Prefix


@dataclass(frozen=True)
class ObservedRoute:
    """One route observation from a vantage point.

    Attributes:
        path: The cleaned AS path — prepending collapsed, vantage AS
            first, origin AS last.  Paths with loops are dropped during
            extraction and never reach the inference.
        prefix: The prefix the path leads to.
        vantage: The vantage-point AS (equals ``path[0]``).
        communities: Communities carried by the route.
        local_pref: LOCAL_PREF reported by the vantage feed, ``None``
            when the feed does not export it.
        collector: Name of the collector the record came from.
        afi: Address family of the observation (derived from the prefix
            at construction; a plain attribute, not a dataclass field,
            because every per-plane filter of every pipeline stage reads
            it).
    """

    path: Tuple[int, ...]
    prefix: Prefix
    vantage: int
    communities: Tuple[Community, ...] = ()
    local_pref: Optional[int] = None
    collector: str = ""

    def __post_init__(self) -> None:
        if len(self.path) < 1:
            raise ValueError("an observed path cannot be empty")
        if self.path[0] != self.vantage:
            raise ValueError("the vantage AS must be the first hop of the path")
        if len(set(self.path)) != len(self.path):
            raise ValueError("observed paths must be loop-free and prepending-free")
        # ``afi`` is read on every per-plane filter of every pipeline
        # stage; a plain attribute beats a property chain through the
        # prefix.  Not a dataclass field: equality and repr stay keyed on
        # the declared fields.
        object.__setattr__(self, "afi", self.prefix.afi)

    @classmethod
    def trusted(
        cls,
        path: Tuple[int, ...],
        prefix: Prefix,
        vantage: int,
        communities: Tuple[Community, ...] = (),
        local_pref: Optional[int] = None,
        collector: str = "",
    ) -> "ObservedRoute":
        """Build an observation whose invariants the caller guarantees.

        The extraction pipeline cleans every path through
        :func:`clean_raw_path` (which already proves it non-empty and
        loop-free) and anchors the vantage AS itself, so re-validating in
        ``__post_init__`` would redo that work once per archived record.
        Hand-built observations should use the normal constructor.
        """
        observation = object.__new__(cls)
        # Attribute by attribute, as the validating constructor sets
        # them: assigning a fresh ``__dict__`` instead would lose
        # CPython's compact per-instance attribute storage, and
        # extraction creates one instance per archived record.
        setattr_ = object.__setattr__
        setattr_(observation, "path", path)
        setattr_(observation, "prefix", prefix)
        setattr_(observation, "vantage", vantage)
        setattr_(observation, "communities", communities)
        setattr_(observation, "local_pref", local_pref)
        setattr_(observation, "collector", collector)
        setattr_(observation, "afi", prefix.afi)
        return observation

    @property
    def origin_as(self) -> int:
        """The AS originating the prefix."""
        return self.path[-1]

    @property
    def length(self) -> int:
        """Number of AS hops in the path."""
        return len(self.path)

    def links(self) -> List[Link]:
        """Canonical links traversed by the path (observer side first)."""
        return [Link(self.path[i], self.path[i + 1]) for i in range(len(self.path) - 1)]

    def next_hop_of(self, asn: int) -> Optional[int]:
        """The AS from which ``asn`` learned this route (towards the origin).

        Returns ``None`` when ``asn`` is the origin or not on the path.
        This is the step the communities-based inference relies on: a
        relationship community set by ``asn`` describes its relationship
        with ``next_hop_of(asn)``.
        """
        for index, hop in enumerate(self.path[:-1]):
            if hop == asn:
                return self.path[index + 1]
        return None

    def communities_of(self, asn: int) -> List[Community]:
        """Communities administered by ``asn`` carried on this route."""
        return [community for community in self.communities if community.asn == asn]

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.prefix} via {' '.join(str(h) for h in self.path)}"


def clean_raw_path(raw_hops: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """Collapse prepending and reject loops.

    Returns the cleaned hop tuple, or ``None`` when the path contains a
    (non-prepending) loop and must be discarded, which is how both the
    paper and standard topology pipelines treat poisoned/looped paths.
    """
    hops = tuple(map(int, raw_hops))
    # Fast path: a path with no repeated AS at all has no prepending to
    # collapse and no loop to reject — the overwhelmingly common case.
    if len(set(hops)) == len(hops):
        return hops if hops else None
    collapsed: List[int] = []
    for hop in hops:
        if not collapsed or collapsed[-1] != hop:
            collapsed.append(hop)
    if len(set(collapsed)) != len(collapsed):
        return None
    return tuple(collapsed)
