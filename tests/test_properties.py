"""Property-based tests (hypothesis) for core data structures and invariants."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import ASPath, Community
from repro.core.annotation import ToRAnnotation, ValleyFreeIndex
from repro.core.customer_tree import customer_tree
from repro.core.observations import clean_raw_path
from repro.core.relationships import (
    AFI,
    HybridType,
    Link,
    Relationship,
    classify_hybrid,
    majority_relationship,
    orient_relationship,
)
from repro.core.valley import PathValidity, validate_path
from repro.irr.dictionary import build_standard_dictionary
from repro.irr.parser import dictionary_from_documentation, render_documentation
from repro.irr.registry import IRRRegistry
from repro.topology.serialization import read_dual_stack, write_dual_stack
from repro.topology.graph import ASGraph

asns = st.integers(min_value=1, max_value=65_000)
known_relationships = st.sampled_from(
    [Relationship.P2C, Relationship.C2P, Relationship.P2P, Relationship.SIBLING]
)


@st.composite
def links(draw):
    a = draw(asns)
    b = draw(asns.filter(lambda value: value != a))
    return Link(a, b)


@st.composite
def annotations(draw):
    """A random annotation over a small AS population."""
    population = draw(st.lists(asns, min_size=2, max_size=12, unique=True))
    annotation = ToRAnnotation(AFI.IPV6)
    pairs = [
        (a, b) for i, a in enumerate(population) for b in population[i + 1 :]
    ]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=1, max_size=min(len(pairs), 20))
    )
    for a, b in chosen:
        annotation.set(a, b, draw(known_relationships))
    return annotation


class TestLinkProperties:
    @given(a=asns, b=asns)
    def test_link_is_order_insensitive(self, a, b):
        if a == b:
            return
        assert Link(a, b) == Link(b, a)
        assert hash(Link(a, b)) == hash(Link(b, a))

    @given(link=links(), relationship=known_relationships)
    def test_orientation_round_trip(self, link, relationship):
        """Re-orienting a relationship to the other endpoint and back is identity."""
        canonical = orient_relationship(link.a, link.b, relationship)
        assert link.relationship_from(link.a, canonical) is relationship or (
            link.a != link.a
        )
        seen_from_b = link.relationship_from(link.b, canonical)
        assert seen_from_b.inverse is canonical

    @given(relationship=known_relationships)
    def test_double_inverse_is_identity(self, relationship):
        assert relationship.inverse.inverse is relationship


class TestHybridProperties:
    @given(rel_v4=known_relationships, rel_v6=known_relationships)
    def test_classification_symmetry(self, rel_v4, rel_v6):
        """A link is hybrid in one orientation iff it is in the other."""
        forward = classify_hybrid(rel_v4, rel_v6)
        backward = classify_hybrid(rel_v4.inverse, rel_v6.inverse)
        assert forward.is_hybrid == backward.is_hybrid
        if forward in (HybridType.PEER4_TRANSIT6, HybridType.PEER6_TRANSIT4):
            assert backward is forward

    @given(rel=known_relationships)
    def test_equal_relationships_never_hybrid(self, rel):
        assert classify_hybrid(rel, rel) is HybridType.NOT_HYBRID


class TestMajorityProperties:
    @given(votes=st.lists(known_relationships, max_size=30))
    def test_majority_winner_is_most_common(self, votes):
        winner = majority_relationship(votes, min_votes=1, min_agreement=0.5)
        if winner is None:
            return
        counts = {rel: votes.count(rel) for rel in set(votes)}
        assert counts[winner] == max(counts.values())


class TestPathProperties:
    @given(hops=st.lists(asns, min_size=1, max_size=15))
    def test_clean_raw_path_idempotent_and_loop_free(self, hops):
        cleaned = clean_raw_path(hops)
        if cleaned is None:
            return
        assert clean_raw_path(cleaned) == cleaned
        assert len(set(cleaned)) == len(cleaned)

    @given(hops=st.lists(asns, min_size=1, max_size=15), prepend=asns, times=st.integers(1, 4))
    def test_prepending_never_changes_collapsed_structure(self, hops, prepend, times):
        base = ASPath(hops)
        prepended = base.prepend(prepend, times=times)
        expected = clean_raw_path((prepend,) * times + tuple(hops))
        if expected is not None:
            assert clean_raw_path(prepended.hops) == expected

    @given(asn=asns, value=st.integers(0, 0xFFFF))
    def test_community_parse_round_trip(self, asn, value):
        community = Community(asn, value)
        assert Community.parse(str(community)) == community


class TestValleyProperties:
    @settings(max_examples=50)
    @given(annotation=annotations())
    def test_valley_free_distances_are_metric_like(self, annotation):
        """BFS distances are non-negative, zero only at the source, and
        bounded by the number of ASes."""
        ases = annotation.ases
        source = ases[0]
        distances = ValleyFreeIndex(annotation).distances_from(source)
        assert distances[source] == 0
        for target, distance in distances.items():
            assert 0 <= distance < len(ases) + 1
            if target != source:
                assert distance >= 1

    @settings(max_examples=50)
    @given(annotation=annotations())
    def test_reachable_targets_have_valid_paths_both_ways(self, annotation):
        """Valley-free reachability is symmetric (the reverse of a
        valley-free path is valley-free)."""
        ases = annotation.ases
        source = ases[0]
        index = ValleyFreeIndex(annotation)
        forward = set(index.distances_from(source))
        for target in list(forward)[:5]:
            backward = index.distances_from(target)
            assert source in backward

    @settings(max_examples=50)
    @given(annotation=annotations())
    def test_customer_tree_paths_are_valley_free(self, annotation):
        """Any root-to-member chain of p2c hops is a valid (valley-free) path."""
        root = annotation.ases[0]
        tree = customer_tree(annotation, root)
        # Walk the tree edges downward: provider -> customer chains.
        for link in list(tree.edges)[:10]:
            provider, customer = (
                (link.a, link.b)
                if annotation.get(link.a, link.b) is Relationship.P2C
                else (link.b, link.a)
            )
            validation = validate_path((provider, customer), annotation)
            assert validation.validity is PathValidity.VALLEY_FREE


class TestSerializationProperties:
    @settings(max_examples=40)
    @given(annotation=annotations())
    def test_dual_stack_round_trip(self, annotation):
        graph = ASGraph()
        for link, relationship in annotation.items():
            graph.add_link(link.a, link.b, rel_v6=relationship)
        buffer = io.StringIO()
        write_dual_stack(graph, buffer)
        buffer.seek(0)
        loaded = read_dual_stack(buffer)
        for link, relationship in annotation.items():
            assert loaded.relationship(link.a, link.b, AFI.IPV6) is relationship

    @given(asn=asns, style=st.integers(0, 4))
    def test_documentation_round_trip(self, asn, style):
        """Rendering a dictionary to IRR text and parsing it back preserves
        every relationship and traffic-engineering meaning."""
        dictionary = build_standard_dictionary(asn, style=style)
        rebuilt = dictionary_from_documentation(asn, render_documentation(dictionary))
        registry = IRRRegistry()
        registry.register(rebuilt)
        for meaning in dictionary.meanings():
            restored = rebuilt.meaning_of(meaning.community)
            assert restored is not None
            assert restored.kind is meaning.kind
            assert restored.relationship is meaning.relationship
            assert restored.action == meaning.action
