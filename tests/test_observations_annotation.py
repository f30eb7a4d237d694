"""Unit tests for observations and the ToR annotation container."""

import gc
import tracemalloc

import pytest

from repro.bgp.attributes import Community
from repro.bgp.prefixes import Prefix
from repro.core.annotation import ToRAnnotation, ValleyFreeIndex
from repro.core.observations import ObservedRoute, clean_raw_path
from repro.core.relationships import AFI, Link, Relationship, RelationshipSource

V6 = Prefix("3fff:abc::/32")
V4 = Prefix("10.5.0.0/20")


class TestCleanRawPath:
    def test_collapses_prepending(self):
        assert clean_raw_path([1, 2, 2, 2, 3]) == (1, 2, 3)

    def test_rejects_loops(self):
        assert clean_raw_path([1, 2, 3, 1]) is None

    def test_empty_is_none(self):
        assert clean_raw_path([]) is None

    def test_single_hop(self):
        assert clean_raw_path([5, 5, 5]) == (5,)


class TestObservedRoute:
    def make(self, path=(10, 20, 30), prefix=V6, **kwargs):
        defaults = dict(path=tuple(path), prefix=prefix, vantage=path[0])
        defaults.update(kwargs)
        return ObservedRoute(**defaults)

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservedRoute(path=(), prefix=V6, vantage=1)
        with pytest.raises(ValueError):
            ObservedRoute(path=(1, 2), prefix=V6, vantage=2)
        with pytest.raises(ValueError):
            ObservedRoute(path=(1, 2, 1), prefix=V6, vantage=1)

    def test_afi_and_origin(self):
        route = self.make()
        assert route.afi is AFI.IPV6
        assert route.origin_as == 30
        assert route.length == 3
        assert self.make(prefix=V4).afi is AFI.IPV4

    def test_links(self):
        assert self.make().links() == [Link(10, 20), Link(20, 30)]

    def test_next_hop_of(self):
        route = self.make()
        assert route.next_hop_of(10) == 20
        assert route.next_hop_of(20) == 30
        assert route.next_hop_of(30) is None  # origin
        assert route.next_hop_of(99) is None  # not on path

    def test_communities_of(self):
        route = self.make(communities=(Community(10, 1), Community(20, 2)))
        assert route.communities_of(10) == [Community(10, 1)]
        assert route.communities_of(30) == []

    def test_trusted_equals_validated(self):
        communities = (Community(10, 1),)
        trusted = ObservedRoute.trusted(
            (10, 20, 30), V6, 10, communities, 300, "rrc00"
        )
        validated = self.make(
            communities=communities, local_pref=300, collector="rrc00"
        )
        assert trusted == validated
        assert type(trusted) is type(validated)
        for name in ObservedRoute._fields:
            assert getattr(trusted, name) == getattr(validated, name), name
        assert trusted.afi is validated.afi is AFI.IPV6

    def test_trusted_is_no_larger_than_validated(self):
        """Extraction builds one trusted observation per archived record;
        each must cost no more memory than one from the validating
        constructor (a fresh ``__dict__`` per instance would, and would
        make later validated instances larger too, so those are measured
        first)."""
        count = 2000
        paths = [(i, i + 1, i + 2) for i in range(count)]

        def allocated(build):
            # A collection inside the window would subtract memory that
            # earlier tests left as garbage, so the window holds the
            # allocations of ``build`` alone: collect first, keep the
            # collector off while measuring.
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                observations = [build(path) for path in paths]
                size = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
                if gc_was_enabled:
                    gc.enable()
            assert len(observations) == count
            return size

        def validated(path):
            return ObservedRoute(path, V6, path[0])

        def trusted(path):
            return ObservedRoute.trusted(path, V6, path[0])

        allocated(validated)  # first-run allocations are not per instance
        baseline = allocated(validated)
        assert allocated(trusted) <= baseline


class TestToRAnnotation:
    def make_annotation(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2C)
        annotation.set(3, 2, Relationship.P2C)   # 2 is customer of both 1 and 3
        annotation.set(1, 3, Relationship.P2P)
        annotation.set(2, 4, Relationship.P2C)
        return annotation

    def test_set_and_get_orientation(self):
        annotation = self.make_annotation()
        assert annotation.get(1, 2) is Relationship.P2C
        assert annotation.get(2, 1) is Relationship.C2P
        assert annotation.get(1, 3) is Relationship.P2P
        assert annotation.get(1, 4) is Relationship.UNKNOWN
        assert annotation.get(5, 5) is Relationship.UNKNOWN

    def test_neighbor_queries(self):
        annotation = self.make_annotation()
        assert annotation.customers_of(1) == [2]
        assert annotation.providers_of(2) == [1, 3]
        assert annotation.peers_of(1) == [3]
        assert annotation.neighbors(2) == [1, 3, 4]
        assert annotation.ases == [1, 2, 3, 4]

    def test_remove(self):
        annotation = self.make_annotation()
        annotation.remove(1, 2)
        assert annotation.get(1, 2) is Relationship.UNKNOWN
        assert 2 not in annotation.providers_of(4) or True  # no exception

    def test_update_overwrite_and_fill(self):
        base = self.make_annotation()
        other = ToRAnnotation(AFI.IPV6)
        other.set(1, 2, Relationship.P2P)
        other.set(4, 5, Relationship.P2C)
        filled = base.copy()
        filled.update(other, overwrite=False)
        assert filled.get(1, 2) is Relationship.P2C  # kept
        assert filled.get(4, 5) is Relationship.P2C  # gap filled
        overwritten = base.copy()
        overwritten.update(other, overwrite=True)
        assert overwritten.get(1, 2) is Relationship.P2P

    def test_update_rejects_other_afi(self):
        with pytest.raises(ValueError):
            ToRAnnotation(AFI.IPV4).update(ToRAnnotation(AFI.IPV6))

    def test_copy_independent(self):
        annotation = self.make_annotation()
        clone = annotation.copy()
        clone.set(1, 2, Relationship.P2P)
        assert annotation.get(1, 2) is Relationship.P2C

    def test_agreement_and_differing_links(self):
        first = self.make_annotation()
        second = self.make_annotation()
        second.set(1, 2, Relationship.P2P)
        second.set(7, 8, Relationship.P2C)
        stats = first.agreement_with(second)
        assert stats["common"] == 4
        assert stats["disagree"] == 1
        assert stats["only_other"] == 1
        assert first.differing_links(second) == [Link(1, 2)]

    def test_records_round_trip(self):
        annotation = self.make_annotation()
        records = annotation.records()
        assert {(r.link, r.relationship) for r in records} == set(annotation.items())
        assert all(r.afi is AFI.IPV6 for r in records)

    def test_from_graph(self, hybrid_topology):
        annotation = ToRAnnotation.from_graph(hybrid_topology.graph, AFI.IPV6)
        assert annotation.source is RelationshipSource.GROUND_TRUTH
        assert annotation.get(10, 20) is Relationship.P2C
        v4 = ToRAnnotation.from_graph(hybrid_topology.graph, AFI.IPV4)
        assert v4.get(10, 20) is Relationship.P2P


class TestValleyFreeDistances:
    def test_distances_on_hierarchy(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2C)
        annotation.set(1, 3, Relationship.P2C)
        annotation.set(2, 4, Relationship.P2C)
        annotation.set(3, 5, Relationship.P2C)
        distances = ValleyFreeIndex(annotation).distances_from(4)
        # 4 -> 2 (up) -> 1 (up) -> 3 (down) -> 5 (down)
        assert distances[2] == 1
        assert distances[1] == 2
        assert distances[3] == 3
        assert distances[5] == 4
        assert distances[4] == 0

    def test_two_peer_hops_not_allowed(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2P)
        annotation.set(2, 3, Relationship.P2P)
        distances = ValleyFreeIndex(annotation).distances_from(1)
        assert 2 in distances
        assert 3 not in distances, "a path with two peering hops is not valley-free"

    def test_peer_then_down_allowed(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2P)
        annotation.set(2, 3, Relationship.P2C)
        distances = ValleyFreeIndex(annotation).distances_from(1)
        assert distances[3] == 2

    def test_down_then_up_not_allowed(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2C)   # 1 provider of 2
        annotation.set(3, 2, Relationship.P2C)   # 3 provider of 2
        distances = ValleyFreeIndex(annotation).distances_from(1)
        assert 2 in distances
        assert 3 not in distances, "going down to 2 then up to 3 is a valley"

    def test_targets_early_exit(self):
        annotation = ToRAnnotation(AFI.IPV6)
        annotation.set(1, 2, Relationship.P2C)
        annotation.set(2, 3, Relationship.P2C)
        distances = ValleyFreeIndex(annotation).distances_from(1, targets={2})
        assert distances[2] == 1
