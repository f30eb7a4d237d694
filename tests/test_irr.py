"""Unit tests for the IRR substrate: dictionaries, parser, registry."""

import pytest

from repro.bgp.attributes import Community
from repro.core.relationships import Relationship
from repro.irr.dictionary import (
    CommunityDictionary,
    CommunityMeaning,
    MeaningKind,
    build_standard_dictionary,
)
from repro.irr.parser import (
    DocumentationParseError,
    classify_description,
    dictionary_from_documentation,
    parse_documentation,
    parse_documentation_line,
    render_documentation,
)
from repro.irr.registry import IRRRegistry, build_registry


class TestCommunityMeaning:
    def test_relationship_meaning_requires_relationship(self):
        with pytest.raises(ValueError):
            CommunityMeaning(community=Community(1, 2), kind=MeaningKind.RELATIONSHIP)

    def test_te_meaning_requires_action(self):
        with pytest.raises(ValueError):
            CommunityMeaning(
                community=Community(1, 2), kind=MeaningKind.TRAFFIC_ENGINEERING
            )


class TestCommunityDictionary:
    def test_add_rejects_foreign_community(self):
        dictionary = CommunityDictionary(100)
        with pytest.raises(ValueError):
            dictionary.add(
                CommunityMeaning(
                    community=Community(200, 1),
                    kind=MeaningKind.INFORMATIONAL,
                    description="not mine",
                )
            )

    def test_relationship_lookup(self):
        dictionary = CommunityDictionary(100)
        dictionary.add_relationship(10, Relationship.P2C)
        dictionary.add_traffic_engineering(666, "blackhole")
        registry = IRRRegistry()
        registry.register(dictionary)
        assert registry.relationship_for(Community(100, 10)) is Relationship.P2C
        assert registry.relationship_for(Community(100, 666)) is None
        assert registry.relationship_for(Community(100, 999)) is None

    def test_traffic_engineering_lookup(self):
        dictionary = CommunityDictionary(100)
        dictionary.add_traffic_engineering(666, "lower-pref")
        registry = IRRRegistry()
        registry.register(dictionary)
        assert registry.is_traffic_engineering(Community(100, 666))
        assert not registry.is_traffic_engineering(Community(100, 1))

    def test_tagger_protocol(self):
        dictionary = CommunityDictionary(100)
        dictionary.add_relationship(10, Relationship.P2C)
        dictionary.add_relationship(20, Relationship.P2P)
        dictionary.add_traffic_engineering(901, "prepend-1")
        assert dictionary.relationship_communities(Relationship.P2P) == [Community(100, 20)]
        assert dictionary.relationship_communities(Relationship.C2P) == []
        assert dictionary.traffic_engineering_communities("prepend-1") == [Community(100, 901)]

    def test_membership_and_len(self):
        dictionary = CommunityDictionary(100)
        dictionary.add_informational(500, "PoP Amsterdam")
        assert Community(100, 500) in dictionary
        assert len(dictionary) == 1

    def test_build_standard_dictionary_styles(self):
        d0 = build_standard_dictionary(64500, style=0)
        d1 = build_standard_dictionary(64500, style=1)
        assert d0.relationship_communities(Relationship.P2C) != d1.relationship_communities(
            Relationship.P2C
        )
        with pytest.raises(ValueError):
            build_standard_dictionary(64500, style=99)

    def test_build_standard_dictionary_deterministic_without_style(self):
        assert (
            build_standard_dictionary(64501).meanings()
            == build_standard_dictionary(64501).meanings()
        )


class TestParser:
    def test_parse_relationship_lines(self):
        cases = {
            "65010:100  Routes learned from customers": Relationship.P2C,
            "65010:200  routes received via peering partners": Relationship.P2P,
            "65010:300  Routes from upstream providers": Relationship.C2P,
            "remarks: 65010:400 routes of sibling ASes": Relationship.SIBLING,
        }
        for line, expected in cases.items():
            meaning = parse_documentation_line(line)
            assert meaning.kind is MeaningKind.RELATIONSHIP, line
            assert meaning.relationship is expected, line

    def test_parse_traffic_engineering_lines(self):
        cases = {
            "65010:901 Prepend 65010 once towards the tagged peer": "prepend-1",
            "65010:902 prepend twice": "prepend-2",
            "65010:903 prepending 3 times": "prepend-3",
            "65010:666 Blackhole traffic for this prefix": "blackhole",
            "65010:70  set local-preference to 70 (backup)": "lower-pref",
            "65010:80  Do not announce to peers": "no-export-peers",
        }
        for line, action in cases.items():
            meaning = parse_documentation_line(line)
            assert meaning.kind is MeaningKind.TRAFFIC_ENGINEERING, line
            assert meaning.action == action, line

    def test_te_takes_precedence_over_relationship_vocabulary(self):
        meaning = parse_documentation_line("65010:80 do not export to upstream providers")
        assert meaning.kind is MeaningKind.TRAFFIC_ENGINEERING
        assert meaning.action == "no-export-upstreams"

    def test_informational_fallback(self):
        meaning = parse_documentation_line("65010:5000 Announced at AMS-IX")
        assert meaning.kind is MeaningKind.INFORMATIONAL

    def test_empty_and_comment_lines(self):
        assert parse_documentation_line("") is None
        assert parse_documentation_line("# communities of AS65010") is None

    def test_missing_community_raises(self):
        with pytest.raises(DocumentationParseError):
            parse_documentation_line("routes learned from customers")

    def test_parse_documentation_filters_foreign_asn(self):
        lines = [
            "65010:100 routes learned from customers",
            "65999:100 routes learned from customers",
        ]
        meanings = parse_documentation(lines, expected_asn=65010)
        assert len(meanings) == 1
        assert meanings[0].community.asn == 65010

    def test_classify_description_directly(self):
        kind, relationship, action = classify_description("routes learned from a customer")
        assert kind is MeaningKind.RELATIONSHIP
        assert relationship is Relationship.P2C
        assert action is None

    def test_render_round_trip(self):
        dictionary = build_standard_dictionary(65020, style=2)
        lines = render_documentation(dictionary)
        rebuilt = dictionary_from_documentation(65020, lines)
        for meaning in dictionary.meanings():
            restored = rebuilt.meaning_of(meaning.community)
            assert restored is not None
            assert restored.kind is meaning.kind
            assert restored.relationship is meaning.relationship


class TestRegistry:
    def test_lookup_and_membership(self):
        registry = IRRRegistry()
        dictionary = CommunityDictionary(100)
        dictionary.add_relationship(10, Relationship.P2P)
        dictionary.add_traffic_engineering(666, "lower-pref")
        registry.register(dictionary)
        assert 100 in registry
        assert len(registry) == 1
        assert registry.relationship_for(Community(100, 10)) is Relationship.P2P
        assert registry.relationship_for(Community(100, 666)) is None
        assert registry.relationship_for(Community(999, 10)) is None
        assert registry.is_traffic_engineering(Community(100, 666))
        assert not registry.is_traffic_engineering(Community(999, 666))

    def test_register_documentation(self):
        registry = IRRRegistry()
        registry.register_documentation(
            65010, ["65010:100 routes learned from customers"]
        )
        assert registry.relationship_for(Community(65010, 100)) is Relationship.P2C

    def test_documentation_corpus_round_trip(self):
        registry = build_registry(range(1, 20), documented_fraction=1.0, seed=3)
        corpus = registry.documentation_corpus()
        assert set(corpus) == set(registry.documented_ases)
        rebuilt = IRRRegistry()
        for asn, lines in corpus.items():
            rebuilt.register_documentation(asn, lines)
        for dictionary in registry:
            for meaning in dictionary.meanings():
                if meaning.kind is MeaningKind.RELATIONSHIP:
                    assert (
                        rebuilt.relationship_for(meaning.community)
                        is meaning.relationship
                    )

    def test_build_registry_fraction(self):
        full = build_registry(range(100), documented_fraction=1.0, seed=1)
        none = build_registry(range(100), documented_fraction=0.0, seed=1)
        half = build_registry(range(100), documented_fraction=0.5, seed=1)
        assert len(full) == 100
        assert len(none) == 0
        assert 25 <= len(half) <= 75

    def test_build_registry_validation(self):
        with pytest.raises(ValueError):
            build_registry([1, 2], documented_fraction=1.2)

    def test_stats(self):
        registry = build_registry(range(10), documented_fraction=1.0, seed=0)
        stats = registry.stats()
        assert stats["documented_ases"] == 10
        assert stats["relationship_communities"] == 30
        assert stats["traffic_engineering_communities"] == 20
