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

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.annotation import ToRAnnotation, ValleyFreeIndex
from repro.core.relationships import Link, Relationship


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
        average: Mean shortest valley-free path length over the measured
            pairs (0 when no pair is reachable).
        diameter: Longest of the shortest valley-free path lengths.
        reachable_pairs: Number of ordered pairs with a valley-free path.
        measured_sources: Number of source ASes the BFS ran from.
    """

    average: float = 0.0
    diameter: int = 0
    reachable_pairs: int = 0
    measured_sources: int = 0


def valley_free_path_metrics(
    plane: Union[ToRAnnotation, ValleyFreeIndex],
    nodes: Iterable[int],
    max_sources: Optional[int] = None,
) -> PathLengthMetrics:
    """Average / diameter of shortest valley-free paths among ``nodes``.

    Runs the two-state valley-free BFS from every node (or the first
    ``max_sources`` nodes, for sampled evaluation on large topologies)
    and aggregates the distances towards the other nodes of the set.
    Unreachable pairs are ignored, as in the paper's metric.
    ``max_sources`` must be ``None`` (exact) or at least 1: a slice with
    a negative bound would silently drop the *last* sources instead.
    ``plane`` is an annotation or a :class:`ValleyFreeIndex` built from
    one; callers measuring one plane repeatedly should pass the index.
    """
    if max_sources is not None and max_sources < 1:
        raise ValueError(
            f"max_sources must be None (exact) or >= 1, got {max_sources}"
        )
    index = plane if isinstance(plane, ValleyFreeIndex) else ValleyFreeIndex(plane)
    node_list = sorted(set(nodes))
    sources = node_list if max_sources is None else node_list[:max_sources]
    ids = index.ids
    members = [ids[asn] for asn in node_list if asn in ids]
    every_node = len(members) == len(index.ases)
    total = 0
    pairs = 0
    diameter = 0
    for source in sources:
        if source not in ids:
            continue  # an AS without links reaches no other node
        distances = index.distances(ids[source])
        if not every_node:
            distances = [distances[member] for member in members]
        # Only the source is at distance 0; unreachable nodes are at -1.
        reached = [hops for hops in distances if hops > 0]
        if reached:
            total += sum(reached)
            pairs += len(reached)
            diameter = max(diameter, max(reached))
    average = total / pairs if pairs else 0.0
    return PathLengthMetrics(
        average=average,
        diameter=diameter,
        reachable_pairs=pairs,
        measured_sources=len(sources),
    )


def customer_tree_union_metrics(
    annotation: ToRAnnotation,
    roots: Optional[Iterable[int]] = None,
    max_sources: Optional[int] = None,
) -> Tuple[CustomerTreeUnion, PathLengthMetrics]:
    """The paper's Figure-2 metric for one annotation.

    Builds the union of customer trees, then measures the shortest
    valley-free paths among the union's member ASes.
    """
    union = union_of_customer_trees(annotation, roots)
    metrics = valley_free_path_metrics(annotation, union.members, max_sources=max_sources)
    return union, metrics
