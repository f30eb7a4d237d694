"""Unit tests for prefixes and BGP path attributes."""

import pytest

from repro.bgp.attributes import ASPath, Community, Origin, PathAttributes
from repro.bgp.prefixes import Prefix, PrefixAllocator
from repro.core.relationships import AFI


class TestPrefix:
    def test_afi_detection(self):
        assert Prefix("10.0.0.0/24").afi is AFI.IPV4
        assert Prefix("2001:db8::/32").afi is AFI.IPV6

    def test_normalisation_and_equality(self):
        assert Prefix("10.0.0.0/24") == Prefix("10.0.0.0/24")
        assert Prefix("2001:db8:0::/32") == Prefix("2001:db8::/32")

    def test_invalid_prefix_rejected(self):
        with pytest.raises(ValueError):
            Prefix("10.0.0.1/24")  # host bits set
        with pytest.raises(ValueError):
            Prefix("not-a-prefix")

    def test_length(self):
        assert Prefix("10.0.0.0/20").length == 20

    def test_contains(self):
        parent = Prefix("10.0.0.0/16")
        child = Prefix("10.0.4.0/24")
        assert parent.contains(child)
        assert not child.contains(parent)
        assert not parent.contains(Prefix("2001:db8::/32"))

    def test_ordering_is_stable(self):
        prefixes = [Prefix("10.0.1.0/24"), Prefix("10.0.0.0/24")]
        assert sorted(prefixes)[0] == Prefix("10.0.0.0/24")


class TestPrefixAllocator:
    def test_deterministic(self):
        assert PrefixAllocator().ipv4_prefix(42) == PrefixAllocator().ipv4_prefix(42)
        assert PrefixAllocator().ipv6_prefix(42) == PrefixAllocator().ipv6_prefix(42)

    def test_distinct_per_asn(self):
        allocator = PrefixAllocator()
        prefixes = {allocator.ipv4_prefix(asn) for asn in range(1, 200)}
        assert len(prefixes) == 199
        prefixes6 = {allocator.ipv6_prefix(asn) for asn in range(1, 200)}
        assert len(prefixes6) == 199

    def test_afi_dispatch(self):
        allocator = PrefixAllocator()
        assert allocator.prefix(7, AFI.IPV4).afi is AFI.IPV4
        assert allocator.prefix(7, AFI.IPV6).afi is AFI.IPV6

    def test_every_index_matches_ipaddress(self):
        """The integer-built CIDR strings equal what :mod:`ipaddress`
        formats, at every index of both planes (index 0 is ``10.0.0.0``
        and ``3fff::``), and ASNs past the capacity wrap around."""
        allocator = PrefixAllocator()
        planes = (
            (allocator.ipv4_prefix, allocator.IPV4_BASE, allocator.IPV4_PLEN, AFI.IPV4),
            (allocator.ipv6_prefix, allocator.IPV6_BASE, allocator.IPV6_PLEN, AFI.IPV6),
        )
        for allocate, base, plen, afi in planes:
            subnets = list(base.subnets(new_prefix=plen))
            assert len(subnets) == 4096
            for index, subnet in enumerate(subnets):
                expected = Prefix(str(subnet))
                for asn in (index, index + len(subnets)):
                    prefix = allocate(asn)
                    assert prefix.network == expected.network
                    assert prefix == expected and hash(prefix) == hash(expected)
                    assert prefix.afi is afi
        assert allocator.ipv6_prefix(0).network == "3fff::/32"
        assert allocator.ipv6_prefix(4096).network == "3fff::/32"
        assert allocator.ipv4_prefix(4095).network == "10.255.240.0/20"


class TestCommunity:
    def test_parse_and_str_round_trip(self):
        community = Community.parse("64500:120")
        assert community == Community(64500, 120)
        assert str(community) == "64500:120"

    def test_parse_invalid(self):
        with pytest.raises(ValueError):
            Community.parse("64500")
        with pytest.raises(ValueError):
            Community.parse("a:b")

    def test_value_bounds(self):
        with pytest.raises(ValueError):
            Community(64500, 70000)
        with pytest.raises(ValueError):
            Community(-1, 1)


class TestASPath:
    def test_basic_properties(self):
        path = ASPath([10, 20, 30])
        assert path.origin_as == 30
        assert len(path) == 3
        assert list(path) == [10, 20, 30]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ASPath([])

    def test_collapse_prepending(self):
        path = ASPath([10, 20, 20, 20, 30])
        assert path.collapsed() == (10, 20, 30)

    def test_links(self):
        assert ASPath([10, 20, 20, 30]).links() == [(10, 20), (20, 30)]

    def test_prepend(self):
        path = ASPath([20, 30]).prepend(10, times=2)
        assert path.hops == (10, 10, 20, 30)
        with pytest.raises(ValueError):
            ASPath([1]).prepend(2, times=0)

    def test_parse_plain(self):
        assert ASPath.parse("10 20 30").hops == (10, 20, 30)

    def test_parse_drops_as_set(self):
        assert ASPath.parse("10 20 {30,40}").hops == (10, 20)

    def test_parse_empty_raises(self):
        with pytest.raises(ValueError):
            ASPath.parse("   ")
        with pytest.raises(ValueError):
            ASPath.parse("{1,2}")

    def test_equality_and_hash(self):
        assert ASPath([1, 2]) == ASPath([1, 2])
        assert hash(ASPath([1, 2])) == hash(ASPath([1, 2]))
        assert ASPath([1, 2]) != ASPath([2, 1])


class TestPathAttributes:
    def test_add_communities_deduplicates(self):
        attributes = PathAttributes(as_path=ASPath([1]), communities=(Community(1, 2),))
        updated = attributes.add_communities([Community(1, 2), Community(3, 4)])
        assert updated.communities == (Community(1, 2), Community(3, 4))
        # Original is unchanged (immutability by convention).
        assert attributes.communities == (Community(1, 2),)

    def test_with_communities_replaces(self):
        attributes = PathAttributes(as_path=ASPath([1]), communities=(Community(1, 2),))
        updated = attributes.with_communities([Community(9, 9)])
        assert updated.communities == (Community(9, 9),)

    def test_communities_of(self):
        attributes = PathAttributes(
            as_path=ASPath([1]),
            communities=(Community(1, 2), Community(3, 4), Community(1, 5)),
        )
        assert attributes.communities_of(1) == [Community(1, 2), Community(1, 5)]
        assert attributes.communities_of(7) == []

    def test_origin_enum(self):
        assert Origin("IGP") is Origin.IGP
        assert str(Origin.INCOMPLETE) == "INCOMPLETE"
