"""Frozen seed implementation of the extraction + inference pipeline.

The measurement-side counterpart of :mod:`repro.bgp.reference`: this
module preserves the *algorithmic shape* the pipeline had before the
:class:`~repro.core.store.ObservationStore` overhaul, so the golden
tests (``tests/test_store.py``) can check that the indexed pipeline
still yields the same Section-3 report on identical inputs.

What is frozen here (one full re-scan of the observation list per
stage, exactly as the seed did):

* extraction through the *validating* ``ObservedRoute`` constructor and
  string-keyed deduplication,
* communities vote collection with a registry translation per community
  occurrence and a fresh ``Link`` per vote,
* LocPrf calibration and application as two independent passes, each
  re-evaluating the traffic-engineering filter per route,
* per-observation link enumeration for the inventory, the coverage
  denominators and the hybrid path-crossing count (the seed's list
  scan, inlined here now that the live pipeline answers it from the
  store), and
* valley validation through :func:`repro.core.valley.validate_path` for
  every distinct path.

What is *not* frozen: shared substrate (``Prefix`` caching, the
relationship enums, the valley-free BFS, the vote tuple type) — the
same conservative-denominator convention ``repro.bgp.reference`` uses.
The collector-layer semantics fixed in the same PR (optional
LOCAL_PREF, richer-copy deduplication) are retained, not reverted:
the reference must produce *identical results* to the live pipeline so
the golden tests can assert equality.

This module must not be "optimized" — it exists to stay slow in the
same way the seed was slow.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.links import LinkInventory
from repro.analysis.paths import ExtractionStats, _merge_duplicate
from repro.analysis.stats import Section3Report
from repro.collectors.archive import CollectorArchive
from repro.collectors.mrt import TableDumpRecord
from repro.core.annotation import ToRAnnotation
from repro.core.communities_inference import RelationshipVote
from repro.core.hybrid import HybridDetector
from repro.core.locpref_inference import LocPrefMapping
from repro.core.observations import ObservedRoute, clean_raw_path
from repro.core.relationships import (
    AFI,
    HybridType,
    Link,
    Relationship,
    RelationshipSource,
    majority_relationship,
)
from repro.core.valley import PathValidity, ValleyAnalyzer, ValleyReason, validate_path
from repro.irr.registry import IRRRegistry


# ----------------------------------------------------------------------
# extraction (seed shape: validating constructor, string dedup keys)
# ----------------------------------------------------------------------
def reference_extract_observations(
    records: Iterable[TableDumpRecord],
    afi: Optional[AFI] = None,
    deduplicate: bool = True,
) -> Tuple[List[ObservedRoute], ExtractionStats]:
    """Seed extraction loop: the observations and counters of the live
    extraction, without its store."""
    stats = ExtractionStats()
    observations: List[ObservedRoute] = []
    seen: Dict[Tuple[int, str, Tuple[int, ...]], int] = {}
    distinct: Set[Tuple[int, ...]] = set()
    for record in records:
        if afi is not None and record.afi is not afi:
            continue
        stats.records += 1
        cleaned = clean_raw_path(record.as_path.hops)
        if cleaned is None:
            stats.looped_paths += 1
            continue
        vantage = cleaned[0]
        if vantage != record.peer_as:
            if record.peer_as in cleaned:
                stats.looped_paths += 1
                continue
            cleaned = (record.peer_as,) + cleaned
            vantage = record.peer_as
        observation = ObservedRoute(
            path=cleaned,
            prefix=record.prefix,
            vantage=vantage,
            communities=record.communities,
            local_pref=record.local_pref,
            collector=record.collector,
        )
        if deduplicate:
            key = (observation.vantage, str(observation.prefix), observation.path)
            index = seen.get(key)
            if index is not None:
                observations[index] = _merge_duplicate(observations[index], observation)
                continue
            seen[key] = len(observations)
        observations.append(observation)
        distinct.add(observation.path)
    stats.observations = len(observations)
    stats.distinct_paths = len(distinct)
    return observations, stats


# ----------------------------------------------------------------------
# communities inference (seed shape: one registry translation per
# community occurrence, one Link per vote, no memoization)
# ----------------------------------------------------------------------
def _reference_collect_votes(
    observations: List[ObservedRoute], registry: IRRRegistry
) -> Dict[Tuple[Link, AFI], List[RelationshipVote]]:
    grouped: Dict[Tuple[Link, AFI], List[RelationshipVote]] = defaultdict(list)
    for route in observations:
        for community in route.communities:
            tagger = community.asn
            learned_from = route.next_hop_of(tagger)
            if learned_from is None:
                continue
            relationship = registry.relationship_for(community)
            if relationship is None or not relationship.is_known:
                continue
            link = Link(tagger, learned_from)
            canonical = relationship if link.a == tagger else relationship.inverse
            grouped[(link, route.afi)].append(
                RelationshipVote(
                    link=link,
                    afi=route.afi,
                    relationship=canonical,
                    tagger=tagger,
                    observed_from=route.vantage,
                )
            )
    return dict(grouped)


def _reference_communities_annotations(
    observations: List[ObservedRoute], registry: IRRRegistry
) -> Dict[AFI, ToRAnnotation]:
    votes = _reference_collect_votes(observations, registry)
    annotations = {
        AFI.IPV4: ToRAnnotation(AFI.IPV4, source=RelationshipSource.COMMUNITIES),
        AFI.IPV6: ToRAnnotation(AFI.IPV6, source=RelationshipSource.COMMUNITIES),
    }
    for (link, afi), link_votes in votes.items():
        winner = majority_relationship(
            (vote.relationship for vote in link_votes),
            min_votes=1,
            min_agreement=0.75,
        )
        if winner is not None:
            annotations[afi].set_canonical(link, winner)
    return annotations


# ----------------------------------------------------------------------
# LocPrf inference (seed shape: two passes, TE filter evaluated twice)
# ----------------------------------------------------------------------
def _reference_locpref_annotations(
    observations: List[ObservedRoute], registry: IRRRegistry
) -> Dict[AFI, ToRAnnotation]:
    def has_traffic_engineering(route: ObservedRoute) -> bool:
        return any(registry.is_traffic_engineering(c) for c in route.communities)

    def first_hop_relationship(route: ObservedRoute) -> Optional[Relationship]:
        if len(route.path) < 2:
            return None
        votes: List[Relationship] = []
        for community in route.communities_of(route.vantage):
            relationship = registry.relationship_for(community)
            if relationship is not None and relationship.is_known:
                votes.append(relationship)
        return majority_relationship(votes, min_votes=1, min_agreement=1.0)

    by_vantage: Dict[int, List[ObservedRoute]] = {}
    for route in observations:
        by_vantage.setdefault(route.vantage, []).append(route)

    mappings: Dict[int, LocPrefMapping] = {}
    for vantage, routes in by_vantage.items():
        mapping = LocPrefMapping(vantage=vantage)
        value_votes: Dict[int, Dict[Relationship, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        for route in routes:
            if route.local_pref is None:
                continue
            if has_traffic_engineering(route):
                continue
            relationship = first_hop_relationship(route)
            if relationship is None:
                continue
            value_votes[route.local_pref][relationship] += 1
            mapping.samples += 1
        for value, votes in value_votes.items():
            if len(votes) == 1:
                mapping.mapping[value] = next(iter(votes))
            else:
                mapping.ambiguous_values.add(value)
        mappings[vantage] = mapping

    annotations = {
        AFI.IPV4: ToRAnnotation(AFI.IPV4, source=RelationshipSource.LOCPREF),
        AFI.IPV6: ToRAnnotation(AFI.IPV6, source=RelationshipSource.LOCPREF),
    }
    votes: Dict[Tuple[Link, AFI], List[Relationship]] = defaultdict(list)
    for route in observations:
        if route.local_pref is None:
            continue
        if len(route.path) < 2:
            continue
        if has_traffic_engineering(route):
            continue
        mapping = mappings.get(route.vantage)
        if mapping is None:
            continue
        relationship = mapping.relationship_for(route.local_pref)
        if relationship is None:
            continue
        first_hop = route.path[1]
        link = Link(route.vantage, first_hop)
        canonical = relationship if link.a == route.vantage else relationship.inverse
        votes[(link, route.afi)].append(canonical)
    for (link, afi), link_votes in votes.items():
        winner = majority_relationship(link_votes, min_votes=1, min_agreement=0.75)
        if winner is not None:
            annotations[afi].set_canonical(link, winner)
    return annotations


# ----------------------------------------------------------------------
# Section-3 statistics (seed shape: one re-scan per stage)
# ----------------------------------------------------------------------
def reference_compute_section3(
    observations: List[ObservedRoute], registry: IRRRegistry
) -> Section3Report:
    """Seed Section-3 computation; identical numbers to the live path."""
    by_afi: Dict[AFI, List[ObservedRoute]] = {AFI.IPV4: [], AFI.IPV6: []}
    for observation in observations:
        by_afi[observation.afi].append(observation)

    inventory = LinkInventory()
    for observation in observations:
        target = (
            inventory.ipv4_links
            if observation.afi is AFI.IPV4
            else inventory.ipv6_links
        )
        target.update(observation.links())

    communities = _reference_communities_annotations(observations, registry)
    locpref = _reference_locpref_annotations(observations, registry)
    annotations: Dict[AFI, ToRAnnotation] = {}
    for afi in (AFI.IPV4, AFI.IPV6):
        merged = ToRAnnotation(afi, source=RelationshipSource.COMBINED)
        merged.update(communities[afi])
        merged.update(locpref[afi], overwrite=False)
        annotations[afi] = merged

    report = Section3Report()
    report.ipv6_paths = len({o.path for o in by_afi[AFI.IPV6]})
    report.ipv6_links = len(inventory.ipv6_links)
    report.ipv4_links = len(inventory.ipv4_links)
    report.dual_stack_links = len(inventory.dual_stack_links)

    ipv6_annotation = annotations[AFI.IPV6]
    annotated_ipv6 = {
        link
        for link in inventory.ipv6_links
        if ipv6_annotation.get_canonical(link).is_known
    }
    report.ipv6_links_with_relationship = len(annotated_ipv6)
    report.ipv6_coverage = (
        len(annotated_ipv6) / report.ipv6_links if report.ipv6_links else 0.0
    )
    dual_links = list(inventory.dual_stack_links)
    dual_covered = sum(
        1
        for link in dual_links
        if annotations[AFI.IPV4].get_canonical(link).is_known
        and annotations[AFI.IPV6].get_canonical(link).is_known
    )
    report.dual_stack_links_with_relationship = dual_covered
    report.dual_stack_coverage = dual_covered / len(dual_links) if dual_links else 0.0

    detector = HybridDetector(annotations[AFI.IPV4], ipv6_annotation)
    hybrid_report = detector.detect(inventory.dual_stack_links)
    report.hybrid_links = len(hybrid_report.hybrid_links)
    report.hybrid_fraction = hybrid_report.hybrid_fraction
    report.hybrid_share_peer4_transit6 = hybrid_report.type_share(
        HybridType.PEER4_TRANSIT6
    )
    report.hybrid_share_peer6_transit4 = hybrid_report.type_share(
        HybridType.PEER6_TRANSIT4
    )
    report.hybrid_share_transit_reversed = hybrid_report.type_share(
        HybridType.TRANSIT_REVERSED
    )

    visible_paths: Set[Tuple[int, ...]] = set()
    path_link_sets: List[Set[Link]] = []
    for observation in by_afi[AFI.IPV6]:
        if observation.path in visible_paths:
            continue
        visible_paths.add(observation.path)
        path_link_sets.append(set(observation.links()))
    hybrid_links = hybrid_report.hybrid_link_set()
    crossing = sum(1 for links in path_link_sets if links & hybrid_links)
    report.paths_crossing_hybrid = crossing
    report.fraction_paths_crossing_hybrid = (
        crossing / len(path_link_sets) if path_link_sets else 0.0
    )

    analyzer = ValleyAnalyzer(ipv6_annotation)
    seen_paths: Set[Tuple[int, ...]] = set()
    valley_paths = 0
    valley_free = 0
    unknown = 0
    reachability = 0
    total = 0
    for observation in by_afi[AFI.IPV6]:
        path = observation.path
        if path in seen_paths:
            continue
        seen_paths.add(path)
        total += 1
        validation = validate_path(path, ipv6_annotation)
        if validation.validity is PathValidity.VALLEY_FREE:
            valley_free += 1
        elif validation.validity is PathValidity.UNKNOWN:
            unknown += 1
        else:
            valley_paths += 1
            classified = analyzer.classify_valley(validation)
            if classified.reason is ValleyReason.REACHABILITY:
                reachability += 1
    report.valley_paths = valley_paths
    report.valley_fraction = valley_paths / total if total else 0.0
    report.reachability_valley_paths = reachability
    report.reachability_valley_fraction = (
        reachability / valley_paths if valley_paths else 0.0
    )
    return report


def reference_pipeline(
    archive: CollectorArchive, registry: IRRRegistry
) -> Section3Report:
    """The full seed pipeline: archive records -> Section-3 report."""
    observations, _ = reference_extract_observations(archive.records(), deduplicate=True)
    return reference_compute_section3(observations, registry)
