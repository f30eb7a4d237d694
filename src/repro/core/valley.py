"""Valley-free validation and classification of AS paths.

An AS path is *valley-free* (Gao's rule) when it consists of zero or more
customer-to-provider hops, followed by at most one peer-to-peer hop,
followed by zero or more provider-to-customer hops.  Paths violating the
rule are *valley paths*.

The paper finds that 13 % of the observed IPv6 paths are valley paths and
that 16 % of those are explained by deliberate relaxation of the rule to
preserve IPv6 reachability (the partitioned IPv6 plane).  This module
implements:

* the path validator (with precise localisation of the violating hop),
* the classification of a valley path as *reachability-motivated* (no
  valley-free alternative exists between the path's endpoints in the
  annotated topology) or not, and
* aggregate statistics over a set of observations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.annotation import ToRAnnotation, ValleyFreeIndex
from repro.core.relationships import AFI, Relationship

if TYPE_CHECKING:
    from repro.core.store import ObservationStore


class PathValidity(enum.Enum):
    """Outcome of validating one path against an annotation."""

    VALLEY_FREE = "valley-free"
    VALLEY = "valley"
    UNKNOWN = "unknown"  # at least one hop has no known relationship

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class ValleyReason(enum.Enum):
    """Why a valley path exists."""

    REACHABILITY = "reachability"  # no valley-free alternative to the origin
    POLICY_VIOLATION = "policy-violation"  # an alternative exists; leak / TE / misconfig

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class PathValidation:
    """Detailed result of validating a single path.

    Attributes:
        path: The validated path.
        validity: Overall verdict.
        violating_hop: Index ``i`` such that the step ``path[i] ->
            path[i+1]`` is the first one violating the valley-free state
            machine (``None`` when the path is valid or unknown).
        unknown_hops: Indices of steps whose relationship is unknown.
    """

    path: Tuple[int, ...]
    validity: PathValidity
    violating_hop: Optional[int] = None
    unknown_hops: Tuple[int, ...] = ()


def validate_path(
    path: Sequence[int], annotation: ToRAnnotation
) -> PathValidation:
    """Validate a single AS path against a relationship annotation.

    The path is interpreted observer-side first (as archived by the
    collectors): hop ``i`` learned the route from hop ``i+1``.  Walking
    the path from the *origin* towards the observer therefore follows the
    direction of route propagation; the implementation walks the stored
    order and inverts the relationship accordingly.

    The state machine (observer → origin order) is the mirror image of
    the usual uphill/downhill formulation: the observer-side segment must
    be c2p hops, then at most one p2p hop, then p2c hops towards the
    origin.  Equivalently, once a hop other than c2p is taken, no further
    c2p or p2p hop may appear.
    """
    hops = tuple(int(asn) for asn in path)
    if len(hops) < 2:
        return PathValidation(path=hops, validity=PathValidity.VALLEY_FREE)
    relationships = [
        annotation.get(hops[index], hops[index + 1]) for index in range(len(hops) - 1)
    ]
    unknown = tuple(
        index for index, rel in enumerate(relationships) if not rel.is_known
    )
    if unknown:
        # A hop with unknown relationship makes the state machine
        # ambiguous; the paper (and this reproduction) only assesses
        # paths whose every link has a known relationship.
        return PathValidation(path=hops, validity=PathValidity.UNKNOWN, unknown_hops=unknown)
    # Phase 0: climbing away from the observer (towards the "top" of the
    # path); phase 1: descending towards the origin.
    descending = False
    for index, relationship in enumerate(relationships):
        if relationship is Relationship.SIBLING:
            continue
        if not descending:
            if relationship is Relationship.C2P:
                continue
            # A p2p or p2c hop switches the path to the descending phase.
            descending = True
            continue
        # Already descending: only p2c hops are allowed.
        if relationship is Relationship.P2C:
            continue
        return PathValidation(
            path=hops, validity=PathValidity.VALLEY, violating_hop=index
        )
    return PathValidation(path=hops, validity=PathValidity.VALLEY_FREE)


@dataclass(frozen=True)
class ValleyPath:
    """A valley path together with its classification."""

    validation: PathValidation
    reason: ValleyReason

    @property
    def path(self) -> Tuple[int, ...]:
        """The offending path."""
        return self.validation.path


@dataclass
class ValleyAnalysisReport:
    """Aggregate valley statistics over a set of paths.

    Attributes:
        total_paths: Number of distinct paths analysed.
        valley_free_paths: Paths satisfying the valley-free rule.
        valley_paths: The valley paths with their classification.
        unknown_paths: Paths that could not be fully validated because a
            hop's relationship is unknown.
    """

    total_paths: int = 0
    valley_free_paths: int = 0
    valley_paths: List[ValleyPath] = field(default_factory=list)
    unknown_paths: int = 0

    @property
    def valley_count(self) -> int:
        """Number of valley paths."""
        return len(self.valley_paths)

    @property
    def valley_fraction(self) -> float:
        """Fraction of analysed paths that are valley paths."""
        if self.total_paths == 0:
            return 0.0
        return self.valley_count / self.total_paths

    @property
    def reachability_motivated(self) -> List[ValleyPath]:
        """Valley paths with no valley-free alternative (the 16 %)."""
        return [vp for vp in self.valley_paths if vp.reason is ValleyReason.REACHABILITY]

    @property
    def reachability_fraction(self) -> float:
        """Fraction of valley paths that are reachability-motivated."""
        if not self.valley_paths:
            return 0.0
        return len(self.reachability_motivated) / len(self.valley_paths)

    def summary(self) -> Dict[str, float]:
        """Compact numeric summary used by reports and benchmarks."""
        return {
            "total_paths": float(self.total_paths),
            "valley_free_paths": float(self.valley_free_paths),
            "valley_paths": float(self.valley_count),
            "unknown_paths": float(self.unknown_paths),
            "valley_fraction": self.valley_fraction,
            "reachability_motivated": float(len(self.reachability_motivated)),
            "reachability_fraction": self.reachability_fraction,
        }


class ValleyAnalyzer:
    """Validate and classify a set of observed paths against an annotation."""

    def __init__(self, annotation: ToRAnnotation) -> None:
        self.annotation = annotation
        # Cache of valley-free reachability: source -> set of ASes with a
        # valley-free path from source.  Computed lazily per source.
        self._reachable_cache: Dict[int, Set[int]] = {}
        # The valley-free index shared by every BFS source, built on first
        # use.  It and the reachability cache are snapshots of the
        # annotation at that moment: after mutating the annotation, build
        # a new analyzer.
        self._index: Optional[ValleyFreeIndex] = None

    # ------------------------------------------------------------------
    # classification helpers
    # ------------------------------------------------------------------
    def _valley_free_reachable(self, source: int) -> Set[int]:
        cached = self._reachable_cache.get(source)
        if cached is None:
            if self._index is None:
                self._index = ValleyFreeIndex(self.annotation)
            cached = set(self._index.distances_from(source))
            self._reachable_cache[source] = cached
        return cached

    def has_valley_free_alternative(self, source: int, destination: int) -> bool:
        """True when a valley-free path from ``source`` to ``destination`` exists."""
        return destination in self._valley_free_reachable(source)

    def classify_valley(self, validation: PathValidation) -> ValleyPath:
        """Classify a valley path by whether a valley-free alternative exists.

        The classification follows the paper's argument: a valley path is
        *reachability-motivated* when the annotated topology offers no
        valley-free route between the path's first AS (the observer side)
        and its origin AS, so relaxing the rule is the only way to reach
        the prefix.
        """
        if validation.validity is not PathValidity.VALLEY:
            raise ValueError("only valley paths can be classified")
        source, destination = validation.path[0], validation.path[-1]
        if self.has_valley_free_alternative(source, destination):
            reason = ValleyReason.POLICY_VIOLATION
        else:
            reason = ValleyReason.REACHABILITY
        return ValleyPath(validation=validation, reason=reason)

    # ------------------------------------------------------------------
    # aggregate analysis
    # ------------------------------------------------------------------
    def _directed_view(self) -> Dict[Tuple[int, int], Relationship]:
        """Both directions of every known link, as a flat dict.

        ``view[(a, b)]`` equals ``annotation.get(a, b)`` for known
        relationships; absent pairs mean UNKNOWN.  Built once per
        analysis so the per-hop lookup is a plain dict probe instead of
        a ``Link`` construction.
        """
        view: Dict[Tuple[int, int], Relationship] = {}
        for link, relationship in self.annotation.items():
            if not relationship.is_known:
                continue
            view[(link.a, link.b)] = relationship
            view[(link.b, link.a)] = relationship.inverse
        return view

    def analyze_paths(self, paths: Iterable[Sequence[int]]) -> ValleyAnalysisReport:
        """Validate and classify a collection of AS paths.

        The verdict of each path is computed against a directed
        relationship view (mirroring :func:`validate_path`'s state
        machine); only the rare valley paths re-run the full
        :func:`validate_path` to carry the violating-hop detail into the
        report, so the result is identical to validating every path
        individually.
        """
        report = ValleyAnalysisReport()
        view = self._directed_view()
        get = view.get
        unknown = Relationship.UNKNOWN
        sibling = Relationship.SIBLING
        c2p = Relationship.C2P
        p2c = Relationship.P2C
        for path in paths:
            # Paths from the extraction pipeline are already int tuples;
            # only normalize foreign input.
            if type(path) is tuple and (not path or type(path[0]) is int):
                hops = path
            else:
                hops = tuple(int(asn) for asn in path)
            report.total_paths += 1
            if len(hops) < 2:
                report.valley_free_paths += 1
                continue
            relationships = [
                get((hops[index], hops[index + 1]), unknown)
                for index in range(len(hops) - 1)
            ]
            if unknown in relationships:
                report.unknown_paths += 1
                continue
            descending = False
            valley = False
            for relationship in relationships:
                if relationship is sibling:
                    continue
                if not descending:
                    if relationship is c2p:
                        continue
                    descending = True
                    continue
                if relationship is p2c:
                    continue
                valley = True
                break
            if not valley:
                report.valley_free_paths += 1
                continue
            validation = validate_path(hops, self.annotation)
            report.valley_paths.append(self.classify_valley(validation))
        return report

    def analyze(
        self, store: ObservationStore, afi: Optional[AFI] = None
    ) -> ValleyAnalysisReport:
        """Analyse the distinct paths of one plane of a store, in
        first-seen order."""
        return self.analyze_paths(store.distinct_paths(afi))
