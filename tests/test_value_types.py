"""The tuple-backed value types and the identity-hashed enums.

``Link``, ``Community``, ``TableDumpRecord`` and ``ObservedRoute`` are
tuples, so hashing, equality, ordering and construction run in C.  These
tests pin what that must not change: every constructor validates as
before (the namedtuple ``_make``/``_replace`` helpers and unpickling
included), pickles round-trip to the same type, ``Link`` and
``Community`` hash as the plain int tuple (independent of the hash
seed, so set order is what it was), and enum members stay singletons
across a pickle round trip.
"""

import copyreg
import os
import pickle
import subprocess
import sys

import pytest

from repro.bgp.attributes import ASPath, Community, Origin, PathAttributes
from repro.bgp.messages import Route
from repro.bgp.prefixes import Prefix
from repro.collectors.mrt import MRTFormatError, TableDumpRecord
from repro.core.observations import ObservedRoute
from repro.core.relationships import (
    AFI,
    HybridType,
    Link,
    Relationship,
    RelationshipSource,
)

V4 = Prefix("10.1.0.0/20")
V6 = Prefix("3fff:100::/32")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def round_trip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def make_record(**changes):
    fields = dict(
        timestamp=1282262400,
        peer_ip="2001:db8::1",
        peer_as=64500,
        prefix=V6,
        as_path=ASPath((64500, 64501)),
        origin=Origin.IGP,
        next_hop="",
        local_pref=300,
        med=0,
        communities=(Community(64500, 100),),
        collector="route-views6",
    )
    fields.update(changes)
    return TableDumpRecord(**fields)


class TestLink:
    @pytest.mark.parametrize("a, b", [(7, 7), (0, 0), (-1, 3), (3, -1), (-2, -5)])
    def test_rejects_self_loops_and_negative_asns(self, a, b):
        with pytest.raises(ValueError):
            Link(a, b)
        with pytest.raises(ValueError):
            Link._make((a, b))

    def test_make_and_replace_validate_and_canonicalize(self):
        assert Link._make((5, 3)) == Link(3, 5)
        assert Link(3, 5)._replace(b=1) == Link(1, 3)
        assert Link(3, 5)._replace(b=1).a == 1
        with pytest.raises(ValueError):
            Link(3, 5)._replace(b=3)
        with pytest.raises(ValueError):
            Link(3, 5)._replace(a=-1)

    def test_is_the_canonical_int_tuple(self):
        link = Link(5, 3)
        assert (link.a, link.b) == (3, 5)
        assert link == (3, 5) and tuple(link) == (3, 5)
        assert hash(link) == hash((3, 5))
        assert sorted([Link(9, 2), Link(1, 4), Link(2, 3)]) == [(1, 4), (2, 3), (2, 9)]
        assert repr(link) == "Link(a=3, b=5)"
        assert str(link) == "AS3-AS5"

    def test_pickle_round_trip(self):
        link = Link(5, 3)
        restored = round_trip(link)
        assert restored == link and type(restored) is Link
        assert round_trip({link: Relationship.P2C}) == {Link(3, 5): Relationship.P2C}

    def test_unpickling_validates(self):
        # Unpickling calls ``copyreg.__newobj__(Link, a, b)``, i.e. ``__new__``.
        reducer, args = Link(5, 3).__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
        assert reducer is copyreg.__newobj__ and args == (Link, 3, 5)
        with pytest.raises(ValueError):
            copyreg.__newobj__(Link, 4, 4)

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            Link(1, 2).a = 7
        assert not hasattr(Link(1, 2), "__dict__")


class TestCommunity:
    @pytest.mark.parametrize(
        "asn, value", [(-1, 0), (2**32, 0), (0, -1), (0, 2**16), (2**40, 2**20)]
    )
    def test_rejects_out_of_range(self, asn, value):
        with pytest.raises(ValueError):
            Community(asn, value)
        with pytest.raises(ValueError):
            Community._make((asn, value))
        with pytest.raises(ValueError):
            Community(1, 1)._replace(asn=asn, value=value)

    def test_range_bounds_are_accepted(self):
        assert Community(0, 0) == (0, 0)
        assert Community(2**32 - 1, 2**16 - 1).asn == 2**32 - 1

    def test_parse_rejects_malformed_text(self):
        for text in ("64500", "a:b", "1:2:3", "64500:70000"):
            with pytest.raises(ValueError):
                Community.parse(text)
        assert Community.parse(" 64500:100 ") == Community(64500, 100)

    def test_is_the_int_tuple(self):
        community = Community(64500, 100)
        assert community == (64500, 100)
        assert hash(community) == hash((64500, 100))
        assert str(community) == "64500:100"
        assert repr(community) == "Community(asn=64500, value=100)"

    def test_pickle_round_trip(self):
        community = Community(64500, 100)
        restored = round_trip(community)
        assert restored == community and type(restored) is Community
        with pytest.raises(ValueError):
            copyreg.__newobj__(Community, 0, 2**16)


def test_link_and_community_hashes_ignore_the_hash_seed():
    """Set iteration order over links and communities is a pure function
    of their values, as it was for the dataclasses' ``hash((a, b))``."""
    script = (
        "from repro.core.relationships import Link\n"
        "from repro.bgp.attributes import Community\n"
        "links = {Link(a, b) for a in range(40) for b in range(a + 1, 60, 7)}\n"
        "communities = {Community(a, v) for a in range(0, 70000, 997) for v in (0, 65535)}\n"
        "print(hash(Link(5, 3)), list(links), list(communities))\n"
    )
    outputs = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
        outputs.add(
            subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                check=True,
                capture_output=True,
                text=True,
            ).stdout
        )
    assert len(outputs) == 1
    assert outputs.pop().split()[0] == str(hash((3, 5)))


class TestTableDumpRecord:
    def test_from_line_rejects_malformed_lines(self):
        good = make_record().to_line()
        parts = good.split("|")
        bad_lines = ["not|enough|fields", "|".join(["OTHER"] + parts[1:])]
        for index in (1, 4, 5, 6, 7, 9, 10):  # timestamp ... med
            broken = list(parts)
            broken[index] = "x y" if index != 6 else ""
            bad_lines.append("|".join(broken))
        for line in bad_lines:
            with pytest.raises(MRTFormatError):
                TableDumpRecord.from_line(line)

    def test_defaults_and_line_round_trip(self):
        record = TableDumpRecord(1, "ip", 64500, V4, ASPath((64500, 1)))
        assert (record.origin, record.next_hop, record.local_pref) == (Origin.IGP, "", None)
        assert (record.med, record.communities, record.collector) == (0, (), "")
        record = make_record()
        assert TableDumpRecord.from_line(record.to_line(), "route-views6") == record

    def test_from_route_equals_the_keyword_constructor(self):
        route = Route(
            prefix=V6,
            attributes=PathAttributes(
                as_path=ASPath((64501, 64502)),
                local_pref=300,
                med=5,
                communities=(Community(64501, 100),),
            ),
            learned_from=64501,
            holder=64500,
        )
        record = TableDumpRecord.from_route(route, "2001:db8::1", 1282262400, "rv6")
        expected = make_record(
            as_path=ASPath((64500, 64501, 64502)),
            med=5,
            communities=(Community(64501, 100),),
            collector="rv6",
        )
        assert record == expected and type(record) is TableDumpRecord
        assert record.afi is AFI.IPV6
        hidden = TableDumpRecord.from_route(
            route, "2001:db8::1", 1282262400, "rv6", include_local_pref=False
        )
        assert hidden.local_pref is None

    def test_pickle_round_trip(self):
        record = make_record()
        restored = round_trip(record)
        assert restored == record and type(restored) is TableDumpRecord


class TestObservedRoute:
    @pytest.mark.parametrize(
        "path, vantage",
        [((), 10), ((10, 20), 20), ((10, 20, 10), 10), ((10, 10), 10)],
    )
    def test_rejects_empty_mismatched_and_looped_paths(self, path, vantage):
        with pytest.raises(ValueError):
            ObservedRoute(path, V4, vantage)
        with pytest.raises(ValueError):
            ObservedRoute._make((path, V4, vantage, (), None, "", AFI.IPV4))

    def test_replace_and_make_validate(self):
        route = ObservedRoute((10, 20, 30), V4, 10, local_pref=100)
        assert route._replace(prefix=V6).afi is AFI.IPV6
        assert route._replace(local_pref=None) == ObservedRoute((10, 20, 30), V4, 10)
        with pytest.raises(ValueError):
            route._replace(path=(10, 20, 10))
        with pytest.raises(ValueError):
            route._replace(vantage=20)
        with pytest.raises(TypeError):
            route._replace(afi=AFI.IPV6)  # afi is the prefix's, never set
        with pytest.raises(ValueError):
            ObservedRoute._make(((10, 20), V4, 10, (), None, "", AFI.IPV6))

    def test_stores_the_prefix_afi(self):
        route = ObservedRoute((10, 20), V6, 10, (Community(10, 1),), 300, "rrc00")
        assert route.afi is AFI.IPV6
        assert tuple(route) == ((10, 20), V6, 10, (Community(10, 1),), 300, "rrc00", AFI.IPV6)

    def test_pickle_round_trip_validates(self):
        route = ObservedRoute((10, 20, 30), V4, 10, (Community(10, 1),), 300, "rrc00")
        restored = round_trip(route)
        assert restored == route and type(restored) is ObservedRoute
        assert restored.afi is AFI.IPV4
        reducer, args = route.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
        assert reducer is copyreg.__newobj__ and args[0] is ObservedRoute
        with pytest.raises(ValueError):
            copyreg.__newobj__(ObservedRoute, (10, 20, 10), V4, 10)


@pytest.mark.parametrize("enum_type", [AFI, Relationship, RelationshipSource, HybridType])
def test_enum_members_are_identity_hashed_singletons(enum_type):
    members = list(enum_type)
    assert round_trip(members) == members
    for member, restored in zip(members, round_trip(members)):
        assert restored is member
        assert hash(member) == object.__hash__(member)
    keyed = {member: index for index, member in enumerate(members)}
    assert round_trip(keyed) == keyed
