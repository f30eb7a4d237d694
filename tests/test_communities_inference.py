"""Unit tests for the communities-based relationship inference."""

import pytest

from repro.bgp.attributes import Community
from repro.bgp.prefixes import Prefix
from repro.core.communities_inference import CommunitiesInference
from repro.core.observations import ObservedRoute
from repro.core.relationships import AFI, Link, Relationship
from repro.core.store import ObservationStore
from repro.irr.dictionary import CommunityDictionary
from repro.irr.registry import IRRRegistry

V6 = Prefix("3fff:1::/32")
V4 = Prefix("10.1.0.0/20")


@pytest.fixture()
def registry():
    """AS 100 and AS 200 document their communities; AS 300 does not."""
    registry = IRRRegistry()
    for asn in (100, 200):
        dictionary = CommunityDictionary(asn)
        dictionary.add_relationship(10, Relationship.P2C, "routes learned from customers")
        dictionary.add_relationship(20, Relationship.P2P, "routes learned from peers")
        dictionary.add_relationship(30, Relationship.C2P, "routes from upstream providers")
        dictionary.add_traffic_engineering(666, "lower-pref")
        registry.register(dictionary)
    return registry


def observe(path, communities, prefix=V6, local_pref=None):
    return ObservedRoute(
        path=tuple(path),
        prefix=prefix,
        vantage=path[0],
        communities=tuple(communities),
        local_pref=local_pref,
    )


class TestVoteExtraction:
    def test_vote_links_tagger_to_next_hop(self, registry):
        inference = CommunitiesInference(registry)
        route = observe([100, 200, 300], [Community(100, 30)])
        votes = inference.votes_for_route(route)
        assert len(votes) == 1
        vote = votes[0]
        assert vote.link == Link(100, 200)
        # AS100 learned from AS200 over a c2p (provider) relationship;
        # canonical orientation (100 < 200) keeps it as C2P.
        assert vote.relationship is Relationship.C2P
        assert vote.tagger == 100

    def test_vote_orientation_flips_for_larger_tagger(self, registry):
        inference = CommunitiesInference(registry)
        route = observe([200, 100, 50], [Community(200, 10)])
        votes = inference.votes_for_route(route)
        assert votes[0].link == Link(100, 200)
        # AS200 says "learned from customer AS100": from 200's view P2C,
        # canonically (from AS100) C2P.
        assert votes[0].relationship is Relationship.C2P

    def test_mid_path_tagger_produces_vote(self, registry):
        inference = CommunitiesInference(registry)
        route = observe([300, 200, 150], [Community(200, 20)])
        votes = inference.votes_for_route(route)
        assert votes[0].link == Link(200, 150)
        assert votes[0].relationship is Relationship.P2P

    def test_origin_tagger_ignored(self, registry):
        inference = CommunitiesInference(registry)
        route = observe([300, 200], [Community(200, 10)])
        # AS200 is the origin: there is no "next hop towards the origin".
        assert inference.votes_for_route(route) == []

    def test_off_path_and_undocumented_communities_ignored(self, registry):
        inference = CommunitiesInference(registry)
        route = observe(
            [100, 200, 300],
            [Community(999, 10), Community(300, 10), Community(100, 666)],
        )
        # 999 is not on the path, 300 is undocumented, 666 is TE.
        assert inference.votes_for_route(route) == []


class TestAggregation:
    def test_majority_aggregation(self, registry):
        inference = CommunitiesInference(registry, min_agreement=0.6)
        observations = [
            observe([100, 200, 300], [Community(100, 30)]),
            observe([100, 200, 301], [Community(100, 30)]),
            observe([100, 200, 302], [Community(100, 20)]),  # minority vote
        ]
        result = inference.infer(ObservationStore(observations))
        assert result.annotation(AFI.IPV6).get(100, 200) is Relationship.C2P

    def test_conflicting_votes_left_unannotated(self, registry):
        inference = CommunitiesInference(registry, min_agreement=0.75)
        observations = [
            observe([100, 200, 300], [Community(100, 30)]),
            observe([100, 200, 301], [Community(100, 20)]),
        ]
        result = inference.infer(ObservationStore(observations))
        assert result.annotation(AFI.IPV6).get(100, 200) is Relationship.UNKNOWN
        assert Link(100, 200) in result.conflicting_links[AFI.IPV6]

    def test_per_afi_separation(self, registry):
        """The same link may be p2p in IPv4 and transit in IPv6 — the
        inference must keep the planes separate (this is what makes hybrid
        detection possible at all)."""
        inference = CommunitiesInference(registry)
        observations = [
            observe([100, 200, 300], [Community(100, 20)], prefix=V4),
            observe([100, 200, 300], [Community(100, 30)], prefix=V6),
        ]
        result = inference.infer(ObservationStore(observations))
        assert result.annotation(AFI.IPV4).get(100, 200) is Relationship.P2P
        assert result.annotation(AFI.IPV6).get(100, 200) is Relationship.C2P

    def test_both_endpoints_tagging_agree(self, registry):
        inference = CommunitiesInference(registry)
        observations = [
            # Seen from AS100's side: learned from provider AS200.
            observe([100, 200, 300], [Community(100, 30)]),
            # Seen from AS200's side: learned from customer AS100.
            observe([200, 100, 50], [Community(200, 10)]),
        ]
        store = ObservationStore(observations)
        result = inference.infer(store)
        assert result.annotation(AFI.IPV6).get(100, 200) is Relationship.C2P
        assert len(inference.collect_votes(store)[(Link(100, 200), AFI.IPV6)]) == 2

    def test_coverage_computation(self, registry):
        inference = CommunitiesInference(registry)
        observations = [observe([100, 200, 300], [Community(100, 30)])]
        result = inference.infer(ObservationStore(observations))
        links = [Link(100, 200), Link(200, 300)]
        assert result.coverage(AFI.IPV6, links) == pytest.approx(0.5)
        assert result.coverage(AFI.IPV6, []) == 0.0

    def test_parameter_validation(self, registry):
        with pytest.raises(ValueError):
            CommunitiesInference(registry, min_votes=0)
        with pytest.raises(ValueError):
            CommunitiesInference(registry, min_agreement=0.0)

    def test_records_export(self, registry):
        inference = CommunitiesInference(registry)
        result = inference.infer(
            ObservationStore([observe([100, 200, 300], [Community(100, 30)])])
        )
        records = result.records()
        assert len(records) == 1
        assert records[0].afi is AFI.IPV6
