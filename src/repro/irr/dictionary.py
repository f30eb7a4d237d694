"""Per-AS BGP community dictionaries.

The Communities attribute is a free-form (asn, value) tag; its meaning is
defined by the AS identified in the ``asn`` half and, in the real world,
documented in Internet Routing Registry (IRR) objects or on looking-glass
pages.  The paper mines exactly those documents to translate community
values into relationship information.

A :class:`CommunityDictionary` is the structured form of one AS's
documentation:

* **relationship communities** — "this route was learned from a
  customer / peer / provider",
* **traffic-engineering communities** — "prepend twice towards AS x",
  "lower LOCAL_PREF", "blackhole", … which the paper uses to recognise
  and discard LOCAL_PREF values set for traffic engineering, and
* **informational communities** — city / PoP / IXP tags, irrelevant to
  the analysis but present in real data, so the parser and the inference
  must cope with them.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.relationships import Relationship
from repro.bgp.attributes import Community


class MeaningKind(enum.Enum):
    """Coarse category of a community's documented meaning."""

    RELATIONSHIP = "relationship"
    TRAFFIC_ENGINEERING = "traffic-engineering"
    INFORMATIONAL = "informational"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class CommunityMeaning:
    """The documented meaning of a single community value.

    Attributes:
        community: The (asn, value) pair being described.
        kind: Category of the meaning.
        relationship: For relationship communities, the relationship the
            tagging AS has towards the neighbour it learned the route
            from (``P2C`` = learned from customer).
        action: For traffic-engineering communities, a symbolic action
            name (``"prepend-1"``, ``"lower-pref"``, ``"blackhole"``, ...).
        description: Free-text description, as would appear in an IRR
            object; generated documentation round-trips through the
            parser in :mod:`repro.irr.parser`.
    """

    community: Community
    kind: MeaningKind
    relationship: Optional[Relationship] = None
    action: Optional[str] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind is MeaningKind.RELATIONSHIP and self.relationship is None:
            raise ValueError("relationship meanings must carry a relationship")
        if self.kind is MeaningKind.TRAFFIC_ENGINEERING and not self.action:
            raise ValueError("traffic-engineering meanings must carry an action")


class CommunityDictionary:
    """All documented community values of one AS.

    The class implements the :class:`~repro.bgp.policy.CommunityTagger`
    protocol, so it can be plugged directly into a
    :class:`~repro.bgp.policy.RoutingPolicy` to make the simulated AS tag
    its routes according to its own documentation — which is precisely
    the property the paper's inference exploits.
    """

    def __init__(self, asn: int) -> None:
        self.asn = asn
        self._meanings: Dict[Community, CommunityMeaning] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, meaning: CommunityMeaning) -> None:
        """Register a meaning; the community must belong to this AS."""
        if meaning.community.asn != self.asn:
            raise ValueError(
                f"community {meaning.community} does not belong to AS{self.asn}"
            )
        self._meanings[meaning.community] = meaning

    def add_relationship(
        self, value: int, relationship: Relationship, description: str = ""
    ) -> CommunityMeaning:
        """Register a relationship-tagging community value."""
        meaning = CommunityMeaning(
            community=Community(self.asn, value),
            kind=MeaningKind.RELATIONSHIP,
            relationship=relationship,
            description=description or _default_relationship_text(relationship),
        )
        self.add(meaning)
        return meaning

    def add_traffic_engineering(
        self, value: int, action: str, description: str = ""
    ) -> CommunityMeaning:
        """Register a traffic-engineering community value."""
        meaning = CommunityMeaning(
            community=Community(self.asn, value),
            kind=MeaningKind.TRAFFIC_ENGINEERING,
            action=action,
            description=description or _default_te_text(action),
        )
        self.add(meaning)
        return meaning

    def add_informational(self, value: int, description: str) -> CommunityMeaning:
        """Register an informational community value."""
        meaning = CommunityMeaning(
            community=Community(self.asn, value),
            kind=MeaningKind.INFORMATIONAL,
            description=description,
        )
        self.add(meaning)
        return meaning

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._meanings)

    def __contains__(self, community: Community) -> bool:
        return community in self._meanings

    def meanings(self) -> List[CommunityMeaning]:
        """All registered meanings, sorted by community value."""
        return sorted(self._meanings.values(), key=lambda m: m.community.value)

    def meaning_of(self, community: Community) -> Optional[CommunityMeaning]:
        """The meaning of a community value (``None`` if undocumented)."""
        return self._meanings.get(community)

    # ------------------------------------------------------------------
    # CommunityTagger protocol (used by the routing policies)
    # ------------------------------------------------------------------
    def relationship_communities(self, relationship: Relationship) -> List[Community]:
        """Communities this AS attaches to routes learned over ``relationship``."""
        return [
            meaning.community
            for meaning in self.meanings()
            if meaning.kind is MeaningKind.RELATIONSHIP
            and meaning.relationship is relationship
        ]

    def traffic_engineering_communities(self, action: str) -> List[Community]:
        """Communities this AS attaches for a traffic-engineering action."""
        return [
            meaning.community
            for meaning in self.meanings()
            if meaning.kind is MeaningKind.TRAFFIC_ENGINEERING and meaning.action == action
        ]


def _default_relationship_text(relationship: Relationship) -> str:
    texts = {
        Relationship.P2C: "routes learned from customers",
        Relationship.P2P: "routes learned from peers",
        Relationship.C2P: "routes learned from upstream providers",
        Relationship.SIBLING: "routes learned from sibling ASes",
    }
    return texts.get(relationship, "routes of unspecified origin")


def _default_te_text(action: str) -> str:
    texts = {
        "prepend-1": "prepend own AS once towards the tagged neighbor",
        "prepend-2": "prepend own AS twice towards the tagged neighbor",
        "prepend-3": "prepend own AS three times towards the tagged neighbor",
        "lower-pref": "set local preference below the default value",
        "raise-pref": "set local preference above the default value",
        "blackhole": "drop traffic towards the tagged prefix (blackhole)",
        "no-export-peers": "do not announce to peers",
        "no-export-upstreams": "do not announce to upstream providers",
    }
    return texts.get(action, f"traffic engineering action: {action}")


# ----------------------------------------------------------------------
# Standard dictionary "styles"
# ----------------------------------------------------------------------
#: Each style maps relationship / TE actions to community values.  Real
#: operators use wildly different numbering conventions; exposing several
#: styles keeps the inference honest (it must use the dictionary, not
#: guess magic values).
_STYLES: Tuple[Dict[str, int], ...] = (
    {"customer": 100, "peer": 200, "provider": 300, "lower-pref": 70, "prepend-1": 901},
    {"customer": 1000, "peer": 2000, "provider": 3000, "lower-pref": 80, "prepend-1": 911},
    {"customer": 10, "peer": 20, "provider": 30, "lower-pref": 666, "prepend-1": 501},
    {"customer": 3001, "peer": 3002, "provider": 3003, "lower-pref": 90, "prepend-1": 921},
    {"customer": 500, "peer": 510, "provider": 520, "lower-pref": 50, "prepend-1": 531},
)


def build_standard_dictionary(
    asn: int, style: Optional[int] = None, rng: Optional[random.Random] = None
) -> CommunityDictionary:
    """Build a realistic dictionary for an AS using one of the known styles.

    ``style`` selects the numbering convention explicitly; when omitted a
    deterministic pseudo-random style (seeded by ``rng`` or the ASN) is
    chosen.  Every generated dictionary documents the three relationship
    tags, a couple of traffic-engineering tags and an informational tag.
    """
    if style is None:
        chooser = rng or random.Random(asn)
        style = chooser.randrange(len(_STYLES))
    if not 0 <= style < len(_STYLES):
        raise ValueError(f"style must be within [0, {len(_STYLES) - 1}]")
    values = _STYLES[style]
    dictionary = CommunityDictionary(asn)
    dictionary.add_relationship(values["customer"], Relationship.P2C)
    dictionary.add_relationship(values["peer"], Relationship.P2P)
    dictionary.add_relationship(values["provider"], Relationship.C2P)
    dictionary.add_traffic_engineering(values["lower-pref"], "lower-pref")
    dictionary.add_traffic_engineering(values["prepend-1"], "prepend-1")
    dictionary.add_informational(values["customer"] + 9000 if values["customer"] + 9000 <= 0xFFFF else 65000,
                                 "routes received at the main PoP")
    return dictionary
