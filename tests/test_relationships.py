"""Unit tests for the fundamental relationship types."""

import pytest

from repro.core.relationships import (
    AFI,
    DualStackRelationship,
    HybridType,
    Link,
    Relationship,
    RelationshipRecord,
    RelationshipSource,
    classify_hybrid,
    majority_relationship,
    orient_relationship,
)


class TestAFI:
    def test_other_flips(self):
        assert AFI.IPV4.other is AFI.IPV6
        assert AFI.IPV6.other is AFI.IPV4

    def test_str(self):
        assert str(AFI.IPV4) == "IPv4"
        assert str(AFI.IPV6) == "IPv6"


class TestRelationship:
    def test_inverse_of_transit(self):
        assert Relationship.P2C.inverse is Relationship.C2P
        assert Relationship.C2P.inverse is Relationship.P2C

    def test_inverse_of_symmetric(self):
        assert Relationship.P2P.inverse is Relationship.P2P
        assert Relationship.SIBLING.inverse is Relationship.SIBLING
        assert Relationship.UNKNOWN.inverse is Relationship.UNKNOWN

    def test_is_transit(self):
        assert Relationship.P2C.is_transit
        assert Relationship.C2P.is_transit
        assert not Relationship.P2P.is_transit
        assert not Relationship.UNKNOWN.is_transit

    def test_is_peering(self):
        assert Relationship.P2P.is_peering
        assert not Relationship.P2C.is_peering

    def test_is_known(self):
        assert Relationship.P2C.is_known
        assert not Relationship.UNKNOWN.is_known


class TestLink:
    def test_canonical_ordering(self):
        assert Link(5, 3) == Link(3, 5)
        assert Link(5, 3).a == 3
        assert Link(5, 3).b == 5

    def test_hashable_and_equal(self):
        assert hash(Link(1, 2)) == hash(Link(2, 1))
        assert len({Link(1, 2), Link(2, 1)}) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(7, 7)

    def test_negative_asn_rejected(self):
        with pytest.raises(ValueError):
            Link(-1, 2)

    def test_other_endpoint(self):
        link = Link(10, 20)
        assert link.other(10) == 20
        assert link.other(20) == 10
        with pytest.raises(ValueError):
            link.other(30)

    def test_contains(self):
        assert Link(1, 2).contains(1)
        assert not Link(1, 2).contains(3)

    def test_oriented(self):
        assert Link(1, 2).oriented(2) == (2, 1)
        with pytest.raises(ValueError):
            Link(1, 2).oriented(3)

    def test_relationship_from_either_side(self):
        link = Link(1, 2)
        assert link.relationship_from(1, Relationship.P2C) is Relationship.P2C
        assert link.relationship_from(2, Relationship.P2C) is Relationship.C2P

    def test_ordering_is_total(self):
        assert sorted([Link(3, 4), Link(1, 9), Link(1, 2)]) == [
            Link(1, 2),
            Link(1, 9),
            Link(3, 4),
        ]


class TestOrientRelationship:
    def test_already_canonical(self):
        assert orient_relationship(1, 2, Relationship.P2C) is Relationship.P2C

    def test_reversed_pair_inverts(self):
        assert orient_relationship(3, 1, Relationship.P2C) is Relationship.C2P

    def test_symmetric_unchanged(self):
        assert orient_relationship(3, 1, Relationship.P2P) is Relationship.P2P

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            orient_relationship(1, 1, Relationship.P2P)


class TestHybridClassification:
    def test_not_hybrid_when_equal(self):
        assert classify_hybrid(Relationship.P2P, Relationship.P2P) is HybridType.NOT_HYBRID
        assert classify_hybrid(Relationship.P2C, Relationship.P2C) is HybridType.NOT_HYBRID

    def test_peer4_transit6(self):
        assert classify_hybrid(Relationship.P2P, Relationship.P2C) is HybridType.PEER4_TRANSIT6
        assert classify_hybrid(Relationship.P2P, Relationship.C2P) is HybridType.PEER4_TRANSIT6

    def test_peer6_transit4(self):
        assert classify_hybrid(Relationship.P2C, Relationship.P2P) is HybridType.PEER6_TRANSIT4
        assert classify_hybrid(Relationship.C2P, Relationship.P2P) is HybridType.PEER6_TRANSIT4

    def test_transit_reversed(self):
        assert (
            classify_hybrid(Relationship.P2C, Relationship.C2P)
            is HybridType.TRANSIT_REVERSED
        )

    def test_sibling_mismatch_is_other(self):
        assert classify_hybrid(Relationship.SIBLING, Relationship.P2P) is HybridType.OTHER

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            classify_hybrid(Relationship.UNKNOWN, Relationship.P2P)

    def test_is_hybrid_flag(self):
        assert HybridType.PEER4_TRANSIT6.is_hybrid
        assert not HybridType.NOT_HYBRID.is_hybrid


class TestRelationshipRecord:
    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            RelationshipRecord(
                link=Link(1, 2),
                afi=AFI.IPV6,
                relationship=Relationship.P2P,
                source=RelationshipSource.COMMUNITIES,
                confidence=1.5,
            )


class TestDualStackRelationship:
    def test_defaults_unknown(self):
        record = DualStackRelationship(link=Link(1, 2))
        assert not record.both_known
        assert not record.is_hybrid

    def test_set_and_get_per_afi(self):
        record = DualStackRelationship(link=Link(1, 2))
        record.set_relationship(AFI.IPV4, Relationship.P2P)
        record.set_relationship(AFI.IPV6, Relationship.P2C)
        assert record.relationship(AFI.IPV4) is Relationship.P2P
        assert record.relationship(AFI.IPV6) is Relationship.P2C
        assert record.is_hybrid
        assert record.hybrid_type is HybridType.PEER4_TRANSIT6


class TestMajorityRelationship:
    def test_simple_majority(self):
        votes = [Relationship.P2C, Relationship.P2C, Relationship.P2P]
        assert majority_relationship(votes, min_agreement=0.6) is Relationship.P2C

    def test_tie_returns_none(self):
        votes = [Relationship.P2C, Relationship.P2P]
        assert majority_relationship(votes) is None

    def test_unknown_votes_ignored(self):
        votes = [Relationship.UNKNOWN, Relationship.P2P]
        assert majority_relationship(votes) is Relationship.P2P

    def test_min_votes_enforced(self):
        assert majority_relationship([Relationship.P2P], min_votes=2) is None

    def test_below_agreement_threshold_returns_none(self):
        votes = [Relationship.P2C] * 3 + [Relationship.P2P] * 2
        assert majority_relationship(votes, min_agreement=0.9) is None

    def test_empty_returns_none(self):
        assert majority_relationship([]) is None
