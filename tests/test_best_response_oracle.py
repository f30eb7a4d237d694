"""An oracle independent of both engines: the synchronous best response.

Every AS picks its best route from its neighbours' current best routes,
all at once, until nothing changes.  The iteration does not depend on
any event order.  It shares no code with either engine: it reads the
graph's relationships and each policy's LOCAL_PREF
(``RoutingPolicy.local_pref_for``), and applies the Gao-Rexford export
rule and the decision process (highest LOCAL_PREF, shortest AS path,
lowest neighbour ASN) itself, in :func:`offer`, which the exhaustive
stable-paths oracle (``tests/test_stable_paths_oracle.py``) shares.

On a plane where no policy relaxes an export and the provider graph
is acyclic, the stable state is unique, so the fixed point is the state
every engine must reach: ``array`` solved, ``array`` replayed and
``event``.  ``array`` replays a relaxation-free plane whose provider
graph has a cycle (about one drawn IPv6 plane in eight: hybrid links
can reverse transit); the engines must reach the fixed point there too.
At paper scale one plane takes about 8 s, so these tests run at small
scale.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.bgp.backends.arraycore import ArrayBackend
from repro.bgp.policy import RoutingPolicy
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.results import originate_one_prefix_per_as
from repro.core.relationships import AFI, Relationship

from test_backends import _replayed, _vanilla_policies, random_scenario
from test_propagation_golden import GOLDEN_SEEDS, _golden_topology, _rich_policies

#: Routes learned over these relationships go to customers and siblings only.
_NOT_TRANSITED = (Relationship.C2P, Relationship.P2P)


def offer(graph, policies, prefix, asn, neighbor, path):
    """What ``neighbor``, holding the full ``path`` (holder first),
    offers ``asn``: ``(decision key, asn's full path)``, or ``None``.

    The export rule is Gao-Rexford (a route learned from a peer or a
    provider goes to customers and siblings only), lifted on an
    adjacency the exporter relaxes for the prefix's plane.  A path that
    already holds ``asn`` is a loop.  The key ranks highest LOCAL_PREF,
    then shortest AS path, then lowest neighbour ASN.
    """
    if path is None or asn in path:
        return None
    afi = prefix.afi
    exporter = policies.get(neighbor) or RoutingPolicy(asn=neighbor)
    rel = graph.relationship(asn, neighbor, afi)
    learned = graph.relationship(neighbor, path[1], afi) if len(path) > 1 else None
    if (
        learned in _NOT_TRANSITED
        and rel not in (Relationship.C2P, Relationship.SIBLING)
        and asn not in exporter.relaxed_export_neighbors.get(afi, ())
    ):
        return None
    policy = policies.get(asn) or RoutingPolicy(asn=asn)
    local_pref = policy.local_pref_for(neighbor, rel, prefix)[0]
    return (local_pref, -len(path), -neighbor), (asn,) + path


def best_response(graph, policies, prefix, origin, max_rounds=100):
    """``{asn: full AS path, holder first}`` at the iteration's fixed point."""
    afi = prefix.afi
    best = {origin: (origin,)}  # full paths, holder first
    for _ in range(max_rounds):
        chosen = {origin: (origin,)}
        for asn in graph.ases:
            if asn == origin:
                continue
            offers = (
                offer(graph, policies, prefix, asn, neighbor, best.get(neighbor))
                for neighbor, _ in graph.oriented_neighbors(asn, afi)
            )
            pick = max(filter(None, offers), default=None)
            if pick is not None:
                chosen[asn] = pick[1]
        if chosen == best:
            return best
        best = chosen
    raise AssertionError(f"no fixed point for {prefix} within {max_rounds} rounds")


def _assert_every_engine_matches(graph, policies, origins):
    """``array`` (solved unless the provider graph has a cycle),
    ``array`` forced to replay, and ``event`` all reach the fixed point."""
    (afi,) = {prefix.afi for prefix in origins}
    array = ArrayBackend(graph, policies)
    replayed = ArrayBackend(graph, _replayed(policies))
    results = {
        "array": array.run(origins),
        "array replayed": replayed.run(origins),
        "event": PropagationSimulator(graph, policies).run(origins),
    }
    method, reason = array.methods[afi]
    assert method == "solve" or reason.endswith("has a cycle"), reason
    assert replayed.methods[afi][0] == "replay"
    for prefix, origin in origins.items():
        expected = best_response(graph, policies, prefix, origin)
        for name, result in results.items():
            held = {
                asn: route.full_path()
                for asn in graph.ases
                if (route := result.best_route(asn, prefix)) is not None
            }
            assert held == expected, f"{name} on {prefix}"


@settings(max_examples=50, deadline=None)
@given(scenario=random_scenario())
def test_random_relaxation_free_planes(scenario):
    _assert_every_engine_matches(*scenario)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_golden_ipv4_planes(seed):
    graph = _golden_topology(seed).graph
    origins = originate_one_prefix_per_as(graph, AFI.IPV4)
    _assert_every_engine_matches(graph, _rich_policies(graph, seed), origins)
    _assert_every_engine_matches(graph, _vanilla_policies(graph, seed), origins)


@pytest.mark.parametrize("seed", (1, 2, 7))
def test_small_scenario_ipv4_planes(seed):
    """The IPv4 plane of ``--small --seed N``: TE overrides included."""
    from repro.datasets.config import small_config
    from repro.pipeline import PipelineConfig, run_pipeline

    scenario = run_pipeline(
        PipelineConfig(dataset=small_config(seed=seed)), targets=["scenario"]
    ).value("scenario")
    assert any(policy.te_overrides for policy in scenario.policies.values())
    _assert_every_engine_matches(
        scenario.topology.graph, scenario.policies, scenario.origins[AFI.IPV4]
    )
