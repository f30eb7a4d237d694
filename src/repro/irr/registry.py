"""An IRR-like registry of community documentation for many ASes.

The registry plays the role of the Internet Routing Registries in the
paper's methodology: given a community value observed in BGP data, it is
the place to ask "what does this value mean according to the AS that
administers it?".

Coverage is intentionally partial: only a subset of ASes document their
communities (controlled by the synthetic dataset builder), which is what
limits the paper's relationship coverage to 72 % of the IPv6 links.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.relationships import Relationship
from repro.bgp.attributes import Community
from repro.irr.dictionary import (
    CommunityDictionary,
    CommunityMeaning,
    MeaningKind,
    build_standard_dictionary,
)
from repro.irr.parser import dictionary_from_documentation, render_documentation


class IRRRegistry:
    """A collection of per-AS community dictionaries."""

    def __init__(self) -> None:
        self._dictionaries: Dict[int, CommunityDictionary] = {}

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def register(self, dictionary: CommunityDictionary) -> None:
        """Add (or replace) the dictionary of one AS."""
        self._dictionaries[dictionary.asn] = dictionary

    def register_documentation(self, asn: int, lines: Iterable[str]) -> CommunityDictionary:
        """Parse documentation text and register the resulting dictionary."""
        dictionary = dictionary_from_documentation(asn, lines)
        self.register(dictionary)
        return dictionary

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._dictionaries)

    def __contains__(self, asn: int) -> bool:
        return asn in self._dictionaries

    def __iter__(self) -> Iterator[CommunityDictionary]:
        return iter(self._dictionaries.values())

    @property
    def documented_ases(self) -> List[int]:
        """ASes that have a registered dictionary."""
        return sorted(self._dictionaries)

    def dictionary_for(self, asn: int) -> Optional[CommunityDictionary]:
        """The dictionary of one AS (``None`` if undocumented)."""
        return self._dictionaries.get(asn)

    def meaning_of(self, community: Community) -> Optional[CommunityMeaning]:
        """Look up the documented meaning of a community value."""
        dictionary = self._dictionaries.get(community.asn)
        if dictionary is None:
            return None
        return dictionary.meaning_of(community)

    def relationship_for(self, community: Community) -> Optional[Relationship]:
        """Relationship encoded by a community, if documented as such."""
        meaning = self.meaning_of(community)
        if meaning is None or meaning.kind is not MeaningKind.RELATIONSHIP:
            return None
        return meaning.relationship

    def is_traffic_engineering(self, community: Community) -> bool:
        """True when the community is documented as a traffic-engineering tag."""
        meaning = self.meaning_of(community)
        return meaning is not None and meaning.kind is MeaningKind.TRAFFIC_ENGINEERING

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def documentation_corpus(self) -> Dict[int, List[str]]:
        """Render every registered dictionary back to documentation text."""
        return {
            asn: render_documentation(dictionary)
            for asn, dictionary in sorted(self._dictionaries.items())
        }

    def stats(self) -> Dict[str, int]:
        """Size statistics used by reports."""
        relationship = 0
        traffic_engineering = 0
        informational = 0
        for dictionary in self._dictionaries.values():
            for meaning in dictionary.meanings():
                if meaning.kind is MeaningKind.RELATIONSHIP:
                    relationship += 1
                elif meaning.kind is MeaningKind.TRAFFIC_ENGINEERING:
                    traffic_engineering += 1
                else:
                    informational += 1
        return {
            "documented_ases": len(self._dictionaries),
            "relationship_communities": relationship,
            "traffic_engineering_communities": traffic_engineering,
            "informational_communities": informational,
        }


def build_registry(
    asns: Iterable[int],
    documented_fraction: float = 0.75,
    seed: int = 0,
) -> IRRRegistry:
    """Build a registry where a fraction of ASes document their communities.

    The selection of documented ASes and the numbering style of each
    dictionary are deterministic functions of ``seed``.
    """
    if not 0.0 <= documented_fraction <= 1.0:
        raise ValueError("documented_fraction must be within [0, 1]")
    rng = random.Random(seed)
    registry = IRRRegistry()
    for asn in sorted(set(asns)):
        if rng.random() < documented_fraction:
            registry.register(build_standard_dictionary(asn, rng=rng))
    return registry
