"""Property tests for :class:`repro.core.annotation.ValleyFreeIndex`.

The oracle is the plain two-state BFS over ``(asn, state)`` tuples and
``ToRAnnotation.get``; the index must agree with it on every source of
random annotations holding all five relationship kinds (UNKNOWN links
included, so some ASes have no usable link), and in-place relabelling
must leave the index equal to one built fresh from the mutated
annotation.  The all-sources bit-parallel Figure-2 metric must equal
the per-source :meth:`ValleyFreeIndex.distances` aggregated pair by
pair.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.partition import analyze_reachability
from repro.core.annotation import ToRAnnotation, ValleyFreeIndex
from repro.core.correction import CorrectionExperiment
from repro.core.customer_tree import (
    PathLengthMetrics,
    union_of_customer_trees,
    valley_free_path_metrics,
)
from repro.core.relationships import AFI, Link, Relationship

RELATIONSHIPS = st.sampled_from(list(Relationship))
P2C, P2P = Relationship.P2C, Relationship.P2P
UP, DOWN = 0, 1


def oracle_distances(annotation: ToRAnnotation, source: int) -> Dict[int, int]:
    """Shortest valley-free path lengths by a tuple-state BFS."""
    best = {(source, UP)}
    distances = {source: 0}
    frontier = [(source, UP)]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for asn, state in frontier:
            for neighbor in annotation.neighbors(asn):
                relationship = annotation.get(asn, neighbor)
                if relationship is Relationship.SIBLING:
                    new_state = state
                elif state == UP and relationship is Relationship.C2P:
                    new_state = UP
                elif state == UP and relationship in (P2P, P2C):
                    new_state = DOWN
                elif state == DOWN and relationship is P2C:
                    new_state = DOWN
                else:
                    continue
                if (neighbor, new_state) in best:
                    continue
                best.add((neighbor, new_state))
                next_frontier.append((neighbor, new_state))
                distances.setdefault(neighbor, depth)
        frontier = next_frontier
    return distances


def metrics_of(lengths: List[int]) -> PathLengthMetrics:
    return PathLengthMetrics(
        average=sum(lengths) / len(lengths) if lengths else 0.0,
        diameter=max(lengths, default=0),
        reachable_pairs=len(lengths),
    )


def oracle_metrics(annotation: ToRAnnotation) -> PathLengthMetrics:
    """The Figure-2 metric over the union of every AS's customer tree."""
    members = union_of_customer_trees(annotation).members
    return metrics_of(
        [
            hops
            for source in members
            for target, hops in oracle_distances(annotation, source).items()
            if target != source and target in members
        ]
    )


def per_source_metrics(index: ValleyFreeIndex, nodes: Iterable[int]) -> PathLengthMetrics:
    """The metric among ``nodes`` from one :meth:`ValleyFreeIndex.distances`
    run per source; an ASN the index lacks reaches nothing."""
    members = sorted({index.ids[asn] for asn in nodes if asn in index.ids})
    lengths = []
    for source in members:
        distances = index.distances(source)
        lengths.extend(distances[target] for target in members if distances[target] > 0)
    return metrics_of(lengths)


def layout(index: ValleyFreeIndex):
    """The index as comparable data (neighbour order is not significant)."""
    return (
        index.ases,
        index.ids,
        [sorted(neighbors) for neighbors in index.climb],
        [sorted(neighbors) for neighbors in index.turn],
        [sorted(neighbors) for neighbors in index.descend],
    )


@st.composite
def plane_links(draw, population: List[int], max_size: int = 24):
    pairs = [(a, b) for i, a in enumerate(population) for b in population[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=max_size))
    return [(Link(a, b), draw(RELATIONSHIPS)) for a, b in chosen]


@st.composite
def annotations(draw):
    """A random annotation over up to ten ASes with every relationship kind."""
    population = draw(
        st.lists(st.integers(1, 40), min_size=2, max_size=10, unique=True)
    )
    annotation = ToRAnnotation(AFI.IPV6)
    for link, relationship in draw(plane_links(population)):
        annotation.set_canonical(link, relationship)
    return annotation


@settings(max_examples=150, deadline=None)
@given(annotation=annotations())
def test_distances_match_tuple_state_oracle(annotation):
    index = ValleyFreeIndex(annotation)
    for source in annotation.ases + [0]:  # AS 0 is never in the annotation
        expected = oracle_distances(annotation, source)
        assert index.distances_from(source) == expected


@settings(max_examples=100, deadline=None)
@given(annotation=annotations(), data=st.data())
def test_targets_keep_target_distances(annotation, data):
    index = ValleyFreeIndex(annotation)
    source = data.draw(st.sampled_from(annotation.ases or [0]))
    targets = set(data.draw(st.lists(st.integers(0, 40), max_size=3)))
    expected = oracle_distances(annotation, source)
    found = index.distances_from(source, targets)
    assert found.items() <= expected.items()
    assert {t: found[t] for t in targets if t in expected} == {
        t: expected[t] for t in targets if t in expected
    }


@settings(max_examples=150, deadline=None)
@given(annotation=annotations(), data=st.data())
def test_relabel_equals_fresh_build(annotation, data):
    index = ValleyFreeIndex(annotation)
    if len(index.ases) >= 2:
        for link, relationship in data.draw(plane_links(index.ases, max_size=12)):
            annotation.set_canonical(link, relationship)
            index.relabel(link, relationship)
    fresh = ValleyFreeIndex(annotation)
    assert layout(index) == layout(fresh)
    for node in range(len(fresh.ases)):
        assert index.distances(node) == fresh.distances(node)


@settings(max_examples=100, deadline=None)
@given(annotation=annotations())
def test_reachability_islands_match_networkx_components(annotation):
    reachable = {
        source: set(oracle_distances(annotation, source)) for source in annotation.ases
    }
    mutual = nx.Graph()
    mutual.add_nodes_from(annotation.ases)
    mutual.add_edges_from(
        (a, b) for a in reachable for b in reachable[a] if a < b and a in reachable[b]
    )
    report = analyze_reachability(annotation)
    assert report.island_sizes == sorted(
        (len(component) for component in nx.connected_components(mutual)), reverse=True
    )
    assert report.reachable_pairs == sum(len(found) - 1 for found in reachable.values())


def test_relabel_refuses_a_new_as():
    annotation = ToRAnnotation(AFI.IPV6, {Link(1, 2): Relationship.P2C})
    with pytest.raises(KeyError):
        ValleyFreeIndex(annotation).relabel(Link(2, 3), Relationship.P2P)


@settings(max_examples=150, deadline=None)
@given(annotation=annotations())
def test_union_of_every_customer_tree_is_every_as(annotation):
    """The identity that lets the Figure-2 metric skip building the union."""
    assert union_of_customer_trees(annotation).members == set(annotation.ases)


@settings(max_examples=150, deadline=None)
@given(annotation=annotations(), data=st.data())
def test_path_metrics_match_per_source_bfs(annotation, data):
    """All sources in one bit-parallel BFS equal one BFS per source, on
    any subset of the ASes, with ASes 0 and 41 (never in the
    annotation) drawn too."""
    index = ValleyFreeIndex(annotation)
    nodes = data.draw(st.sets(st.sampled_from(annotation.ases + [0, 41])))
    assert valley_free_path_metrics(index, nodes) == per_source_metrics(index, nodes)
    assert valley_free_path_metrics(annotation, nodes) == per_source_metrics(index, nodes)


@settings(max_examples=100, deadline=None)
@given(misinferred=annotations(), data=st.data())
def test_correction_steps_match_rebuilt_oracle(misinferred, data):
    """Every step equals the union metric of the annotation rebuilt from
    scratch, including corrections that bring in an AS (41..43) the
    misinferred annotation does not have."""
    population = sorted(set(misinferred.ases) | {41, 42, 43})
    corrections = data.draw(plane_links(population, max_size=8))
    reference = ToRAnnotation(AFI.IPV6)
    for link, relationship in corrections:
        if relationship.is_known:
            reference.set_canonical(link, relationship)
    ordered = sorted({link for link, _ in corrections if link in reference})
    series = CorrectionExperiment(misinferred, reference).run(ordered)
    working = misinferred.copy()
    expected = [oracle_metrics(working)]
    for link in ordered:
        working.set_canonical(link, reference.get_canonical(link))
        expected.append(oracle_metrics(working))
    assert [step.metrics for step in series.steps] == expected


def test_correction_with_reference_link_to_unknown_as():
    """A reference link to an AS missing from the misinferred plane
    re-interns the index: the new AS is measured from and towards."""
    misinferred = ToRAnnotation(
        AFI.IPV6, {Link(2, 3): Relationship.P2C, Link(3, 4): Relationship.P2C}
    )
    reference = ToRAnnotation(AFI.IPV6, {Link(1, 2): Relationship.P2C})
    series = CorrectionExperiment(misinferred, reference).run([Link(1, 2)])
    assert [step.metrics for step in series.steps] == [
        oracle_metrics(misinferred),
        oracle_metrics(
            ToRAnnotation(
                AFI.IPV6,
                {
                    Link(1, 2): Relationship.P2C,
                    Link(2, 3): Relationship.P2C,
                    Link(3, 4): Relationship.P2C,
                },
            ),
        ),
    ]
    # Every ordered pair of the chain 1 > 2 > 3 > 4 is valley-free.
    assert series.initial.metrics.reachable_pairs == 3 * 2
    assert series.final.metrics.reachable_pairs == 4 * 3
