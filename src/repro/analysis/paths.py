"""Extracting clean AS paths from collector archives.

The first stage of the measurement pipeline: turn archived
:class:`~repro.collectors.mrt.TableDumpRecord` lines into
:class:`~repro.core.observations.ObservedRoute` objects, applying the
standard hygiene steps (prepending collapse, loop filtering,
de-duplication) and keeping per-stage counters so the data-reduction
story of a run can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.bgp.prefixes import Prefix
from repro.collectors.mrt import TableDumpRecord
from repro.core.observations import ObservedRoute, clean_raw_path
from repro.core.store import ObservationStore


@dataclass
class ExtractionStats:
    """Counters describing one extraction run.

    Attributes:
        records: Raw records examined.
        looped_paths: Records discarded because the cleaned path still
            contained a loop.
        observations: Observations produced.
        distinct_paths: Distinct AS paths among the observations.
    """

    records: int = 0
    looped_paths: int = 0
    observations: int = 0
    distinct_paths: int = 0


@dataclass
class ExtractionResult:
    """Observations, the indexed store over them, and the counters of
    the extraction that produced them (see :func:`store_from_records`)."""

    observations: List[ObservedRoute]
    stats: ExtractionStats
    store: ObservationStore

    def __iter__(self) -> Iterator[ObservedRoute]:
        return iter(self.observations)

    def __len__(self) -> int:
        return len(self.observations)


def _merge_duplicate(kept: ObservedRoute, duplicate: ObservedRoute) -> ObservedRoute:
    """Combine duplicate observations of one (vantage, prefix, path) route.

    Duplicates arise when several collectors archive the same feed, and
    their attribute sets can differ (a collector may strip communities,
    a feed may not export LOCAL_PREF to one session).  Attributes the
    kept (first-seen) copy already carries win; attributes it lacks are
    filled from the duplicate, so no LOCAL_PREF or communities evidence
    is lost regardless of arrival order.  Returns ``kept`` itself when
    the duplicate adds nothing.
    """
    local_pref = kept.local_pref if kept.local_pref is not None else duplicate.local_pref
    communities = kept.communities if kept.communities else duplicate.communities
    if local_pref == kept.local_pref and communities == kept.communities:
        return kept
    return ObservedRoute.trusted(
        path=kept.path,
        prefix=kept.prefix,
        vantage=kept.vantage,
        communities=communities,
        local_pref=local_pref,
        collector=kept.collector,
    )


def store_from_records(records: Iterable[TableDumpRecord]) -> ExtractionResult:
    """Extract deduplicated observations from raw records and index them.

    One observation is kept per (vantage, prefix, path) triple, which
    matters when several collectors archive the same feed.  When
    duplicates collide their attributes are merged — a collector whose
    feed strips LOCAL_PREF or communities must not shadow a copy of the
    same route that carries them, whichever arrives first.  The
    surviving observation keeps the position (and the collector
    attribution) of the first copy seen, so ordering stays
    deterministic.

    The records iterator is consumed exactly once (collectors and
    archives can therefore feed it lazily).  The indexed
    :class:`~repro.core.store.ObservationStore` is built from the final
    observation list and attached to the returned
    :class:`ExtractionResult`.  A record whose path still loops once
    prepending is collapsed yields no observation (such paths are
    artifacts and are dropped, as the paper's pipeline does), and a path
    that does not start with the record's peer AS is re-anchored on it
    unless the peer already appears in it.  An archived path's hops are
    validated ints (:class:`~repro.bgp.attributes.ASPath` guarantees it,
    :meth:`~repro.bgp.attributes.ASPath.parse` included), and a path
    with no repeated AS is its own cleaned form, so only paths with a
    repeat go through :func:`clean_raw_path`.
    """
    stats = ExtractionStats()
    observations: List[ObservedRoute] = []
    # prefix -> cleaned path -> index into ``observations``.  The
    # vantage is the path's first hop once anchored, so (prefix, path)
    # is the (vantage, prefix, path) triple without a key tuple per
    # record.
    seen: Dict[Prefix, Dict[Tuple[int, ...], int]] = {}
    records_seen = looped = 0
    trusted = ObservedRoute.trusted
    for record in records:
        records_seen += 1
        cleaned = record.as_path.hops
        if len(set(cleaned)) != len(cleaned):
            cleaned = clean_raw_path(cleaned)
            if cleaned is None:
                looped += 1
                continue
        vantage = cleaned[0]
        if vantage != record.peer_as:
            if record.peer_as in cleaned:
                looped += 1
                continue
            cleaned = (record.peer_as,) + cleaned
            vantage = record.peer_as
        prefix = record.prefix
        observation = trusted(
            cleaned,
            prefix,
            vantage,
            record.communities,
            record.local_pref,
            record.collector,
        )
        by_path = seen.get(prefix)
        if by_path is None:
            by_path = seen[prefix] = {}
        index = by_path.get(cleaned)
        if index is not None:
            observations[index] = _merge_duplicate(observations[index], observation)
            continue
        by_path[cleaned] = len(observations)
        observations.append(observation)
    del seen  # the dedupe table must not share the store build's peak
    store = ObservationStore(observations)
    stats.records = records_seen
    stats.looped_paths = looped
    stats.observations = len(store)
    stats.distinct_paths = store.distinct_path_count()
    return ExtractionResult(observations=store.observations, stats=stats, store=store)
