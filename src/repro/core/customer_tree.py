"""Customer trees and the metrics built on them.

The *customer tree* of an AS (the root) contains all the ASes the root
can reach by following provider-to-customer links only (Figure 1 of the
paper, originally introduced by Dimitropoulos et al.).  Because the tree
changes dramatically when a single link flips between p2c and p2p, the
paper uses the following metric to quantify the impact of relationship
misinference:

    the average length and the longest length (diameter) of the shortest
    valley-free AS paths of the *union of the IPv6 customer trees*.

This module implements customer-tree computation, the union of trees,
and the average/diameter of shortest valley-free paths over the union —
the quantities plotted in Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.core.annotation import ToRAnnotation, ValleyFreeIndex
from repro.core.relationships import Link


@dataclass(frozen=True)
class CustomerTree:
    """The customer tree of one root AS.

    Attributes:
        root: The AS at the top of the tree.
        members: Every AS reachable from the root via p2c links,
            including the root itself.
        edges: The p2c links used to reach the members (canonical
            orientation).
        depth: Length (in hops) of the longest root-to-member chain.
    """

    root: int
    members: frozenset
    edges: frozenset
    depth: int

    @property
    def size(self) -> int:
        """Number of ASes in the tree (root included)."""
        return len(self.members)

    def contains(self, asn: int) -> bool:
        """True when ``asn`` belongs to the tree."""
        return asn in self.members


def customer_tree(annotation: ToRAnnotation, root: int) -> CustomerTree:
    """Compute the customer tree of ``root`` under an annotation.

    The traversal follows p2c edges only (provider side towards customer
    side), breadth-first, recording every link used at least once.
    """
    members: Set[int] = {root}
    edges: Set[Link] = set()
    frontier = [root]
    depth = 0
    while frontier:
        next_frontier: List[int] = []
        for asn in frontier:
            for customer in annotation.customers_of(asn):
                edges.add(Link(asn, customer))
                if customer not in members:
                    members.add(customer)
                    next_frontier.append(customer)
        if next_frontier:
            depth += 1
        frontier = next_frontier
    return CustomerTree(
        root=root, members=frozenset(members), edges=frozenset(edges), depth=depth
    )


@dataclass
class CustomerTreeUnion:
    """The union of the customer trees of a set of roots.

    Attributes:
        roots: The roots whose trees were united.
        members: Union of all tree member sets.
        edges: Union of all tree edge sets.
    """

    roots: Tuple[int, ...]
    members: frozenset
    edges: frozenset

    @property
    def size(self) -> int:
        """Number of ASes in the union."""
        return len(self.members)


def union_of_customer_trees(
    annotation: ToRAnnotation, roots: Optional[Iterable[int]] = None
) -> CustomerTreeUnion:
    """Union of the customer trees of ``roots``.

    ``roots`` defaults to every AS of the annotation, matching the
    paper's "union of the IPv6 customer trees".  (ASes without customers
    contribute a trivial tree containing only themselves.)
    """
    root_list = sorted(roots) if roots is not None else annotation.ases
    members: Set[int] = set()
    edges: Set[Link] = set()
    for root in root_list:
        tree = customer_tree(annotation, root)
        members.update(tree.members)
        edges.update(tree.edges)
    return CustomerTreeUnion(
        roots=tuple(root_list), members=frozenset(members), edges=frozenset(edges)
    )


@dataclass
class PathLengthMetrics:
    """Average and maximum (diameter) of shortest valley-free path lengths.

    Attributes:
        average: Mean shortest valley-free path length over the reachable
            ordered pairs (0 when no pair is reachable).
        diameter: Longest of the shortest valley-free path lengths.
        reachable_pairs: Number of ordered pairs with a valley-free path.
    """

    average: float = 0.0
    diameter: int = 0
    reachable_pairs: int = 0


def _push(frontier: Dict[int, int], moves: List[List[int]], into: Dict[int, int]) -> None:
    """OR each frontier node's source mask into its neighbours along ``moves``."""
    for node, sources in frontier.items():
        for neighbor in moves[node]:
            into[neighbor] = into.get(neighbor, 0) | sources


def _advance(candidates: Dict[int, int], seen: List[int]) -> Dict[int, int]:
    """The candidate sources each node has not seen yet, now marked seen."""
    fresh = {}
    for node, sources in candidates.items():
        sources &= ~seen[node]
        if sources:
            seen[node] |= sources
            fresh[node] = sources
    return fresh


def valley_free_path_metrics(
    plane: Union[ToRAnnotation, ValleyFreeIndex], nodes: Iterable[int]
) -> PathLengthMetrics:
    """Average / diameter of shortest valley-free paths among ``nodes``.

    Every ordered pair of distinct ``nodes`` is measured; unreachable
    pairs are ignored, as in the paper's metric, and an AS the plane
    does not know reaches no other node.  ``plane`` is an annotation or
    a :class:`ValleyFreeIndex` built from one; callers measuring one
    plane repeatedly should pass the index.

    All sources advance together through one level-synchronous run of
    the two-state BFS of :meth:`ValleyFreeIndex.distances`.  Source ids
    are bits of a Python int: per id, ``up`` and ``down`` hold the
    sources that have reached it uphill and downhill.  Each level
    pushes the frontier masks along ``climb``/``turn``/``descend``; the
    pairs a level adds to ``up[t] | down[t]`` over the targets ``t`` in
    ``nodes`` are the pairs whose shortest path has that many hops.
    """
    index = plane if isinstance(plane, ValleyFreeIndex) else ValleyFreeIndex(plane)
    members = {index.ids[asn] for asn in nodes if asn in index.ids}
    up = [0] * len(index.ases)
    down = [0] * len(index.ases)
    frontier_up = _advance({member: 1 << member for member in members}, up)
    frontier_down: Dict[int, int] = {}
    reached = len(members)  # every member reaches itself, at 0 hops
    total = diameter = depth = 0
    while frontier_up or frontier_down:
        depth += 1
        next_up: Dict[int, int] = {}
        next_down: Dict[int, int] = {}
        _push(frontier_up, index.climb, next_up)
        _push(frontier_up, index.turn, next_down)
        _push(frontier_down, index.descend, next_down)
        frontier_up = _advance(next_up, up)
        frontier_down = _advance(next_down, down)
        count = sum((up[member] | down[member]).bit_count() for member in members)
        if count > reached:
            total += depth * (count - reached)
            diameter = depth
            reached = count
    pairs = reached - len(members)
    average = total / pairs if pairs else 0.0
    return PathLengthMetrics(average=average, diameter=diameter, reachable_pairs=pairs)


def customer_tree_union_metrics(
    annotation: ToRAnnotation, roots: Optional[Iterable[int]] = None
) -> Tuple[CustomerTreeUnion, PathLengthMetrics]:
    """The paper's Figure-2 metric for one annotation.

    Builds the union of customer trees, then measures the shortest
    valley-free paths among the union's member ASes.
    """
    union = union_of_customer_trees(annotation, roots)
    metrics = valley_free_path_metrics(annotation, union.members)
    return union, metrics
