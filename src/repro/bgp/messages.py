"""BGP route objects exchanged by the propagation simulator.

The simulator works at the granularity of a *route*: one prefix plus the
path attributes a particular AS currently uses to reach it.  Routes are
immutable; importing a route at a neighbour produces a new route with an
extended AS path and freshly computed LOCAL_PREF / communities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.relationships import AFI, Relationship
from repro.bgp.attributes import ASPath, Community, Origin, PathAttributes
from repro.bgp.prefixes import Prefix


@dataclass(frozen=True, slots=True)
class Route:
    """A route to ``prefix`` as held by AS ``holder``.

    Routes are created once per import event, so the class is slotted to
    keep the per-instance footprint small at simulation scale.

    Attributes:
        prefix: The destination prefix.
        holder: The AS whose RIB this route lives in.
        attributes: Path attributes as seen by ``holder`` (the AS path
            does *not* include ``holder`` itself; it is prepended when
            the route is exported).
        learned_from: The neighbour AS the route was learned from, or
            ``None`` for locally originated routes.
        learned_relationship: ``holder``'s relationship towards
            ``learned_from`` (``C2P`` when learned from a provider, etc.);
            ``None`` for local routes.  This is what the export policy and
            the LOCAL_PREF assignment key off.
    """

    prefix: Prefix
    holder: int
    attributes: PathAttributes
    learned_from: Optional[int] = None
    learned_relationship: Optional[Relationship] = None
    # Memo slot for the BGP decision-process preference key; computed
    # (once, routes are immutable) and read by BGPSpeaker._preference_key.
    _pref_key: Optional[Tuple[int, int, int, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def afi(self) -> AFI:
        """Address family of the route."""
        return self.prefix.afi

    @property
    def as_path(self) -> ASPath:
        """Shortcut to the AS path attribute."""
        return self.attributes.as_path

    @property
    def origin_as(self) -> int:
        """The AS that originated the prefix."""
        return self.attributes.as_path.origin_as

    @property
    def local_pref(self) -> Optional[int]:
        """Shortcut to the LOCAL_PREF attribute."""
        return self.attributes.local_pref

    @property
    def communities(self) -> Tuple[Community, ...]:
        """Shortcut to the communities attribute."""
        return self.attributes.communities

    @property
    def is_local(self) -> bool:
        """True for routes originated by ``holder`` itself."""
        return self.learned_from is None

    def full_path(self) -> Tuple[int, ...]:
        """The AS path including the holder, observer-side first.

        Locally originated routes already carry the holder as their only
        hop, so it is not repeated.
        """
        hops = self.attributes.as_path.hops
        if self.is_local:
            return hops
        return (self.holder,) + hops

    @classmethod
    def originate(cls, prefix: Prefix, origin_as: int) -> "Route":
        """Create the locally originated route for a prefix."""
        attributes = PathAttributes(
            as_path=ASPath([origin_as]),
            local_pref=None,
            origin=Origin.IGP,
            next_hop="",
        )
        return cls(prefix=prefix, holder=origin_as, attributes=attributes)

    @classmethod
    def trusted(
        cls,
        prefix: Prefix,
        holder: int,
        hops: Tuple[int, ...],
        communities: Tuple[Community, ...],
        local_pref: Optional[int],
        learned_from: int,
        learned_relationship: Relationship,
    ) -> "Route":
        """A learned route whose validity the caller guarantees.

        ``hops`` must be valid AS path hops (see :meth:`ASPath.trusted`).
        The route has the ORIGIN of :meth:`originate` and the MED and
        NEXT_HOP every exported route carries, which are the
        :class:`PathAttributes` defaults.  The slots are set directly:
        the frozen dataclass ``__init__`` sets each field through
        ``object.__setattr__``, which costs more than the rest of the
        route at propagation scale.
        """
        route = _new_route(cls)
        _set_prefix(route, prefix)
        _set_holder(route, holder)
        _set_attributes(
            route,
            PathAttributes(
                ASPath.trusted(hops), local_pref, 0, Origin.IGP, "", communities
            ),
        )
        _set_learned_from(route, learned_from)
        _set_learned_relationship(route, learned_relationship)
        _set_pref_key(route, None)
        return route


# The slot setters :meth:`Route.trusted` writes through.
_new_route = object.__new__
_set_prefix = Route.prefix.__set__
_set_holder = Route.holder.__set__
_set_attributes = Route.attributes.__set__
_set_learned_from = Route.learned_from.__set__
_set_learned_relationship = Route.learned_relationship.__set__
_set_pref_key = Route._pref_key.__set__


@dataclass(frozen=True, slots=True)
class Announcement:
    """A route advertisement in flight from ``sender`` to ``receiver``.

    The announcement carries the attributes as exported by the sender
    (AS path already includes the sender; communities are the ones the
    sender chose to propagate).
    """

    prefix: Prefix
    sender: int
    receiver: int
    attributes: PathAttributes

    @property
    def afi(self) -> AFI:
        """Address family of the announced prefix."""
        return self.prefix.afi

    @property
    def as_path(self) -> ASPath:
        """Shortcut to the announced AS path."""
        return self.attributes.as_path
