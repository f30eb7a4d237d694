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

from collections import namedtuple
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.relationships import Link
from repro.bgp.attributes import Community
from repro.bgp.prefixes import Prefix


class ObservedRoute(
    namedtuple(
        "ObservedRoute",
        ("path", "prefix", "vantage", "communities", "local_pref", "collector", "afi"),
    )
):
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
        afi: Address family of the observation, stored from the
            prefix's at construction (every per-plane filter of every
            pipeline stage reads it).

    A tuple of those seven fields, built in C: extraction makes one per
    archived record.  ``afi`` is derived, so the constructor takes the
    other six.  ``__new__``, ``_make``, ``_replace`` and unpickling all
    validate; :meth:`trusted` is the one constructor that does not.
    """

    __slots__ = ()

    def __new__(
        cls,
        path: Tuple[int, ...],
        prefix: Prefix,
        vantage: int,
        communities: Tuple[Community, ...] = (),
        local_pref: Optional[int] = None,
        collector: str = "",
    ) -> "ObservedRoute":
        if len(path) < 1:
            raise ValueError("an observed path cannot be empty")
        if path[0] != vantage:
            raise ValueError("the vantage AS must be the first hop of the path")
        if len(set(path)) != len(path):
            raise ValueError("observed paths must be loop-free and prepending-free")
        return tuple.__new__(
            cls, (path, prefix, vantage, communities, local_pref, collector, prefix.afi)
        )

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "ObservedRoute":
        *fields, afi = iterable
        observation = cls(*fields)
        if afi is not observation.afi:
            raise ValueError("afi must be the address family of the prefix")
        return observation

    def _replace(self, **changes: object) -> "ObservedRoute":
        # ``afi`` follows the prefix; it is no constructor argument.
        fields = dict(zip(self._fields[:-1], self))
        fields.update(changes)
        return type(self)(**fields)

    def __getnewargs__(self) -> Tuple[object, ...]:
        return self[:-1]

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
        ``__new__`` would redo that work once per archived record.
        Hand-built observations should use the normal constructor.
        """
        return tuple.__new__(
            cls, (path, prefix, vantage, communities, local_pref, collector, prefix.afi)
        )

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
