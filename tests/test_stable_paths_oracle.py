"""An exhaustive oracle: every stable state of a small routing plane.

The best-response iteration (``tests/test_best_response_oracle.py``)
finds *a* stable state; it cannot say whether it is the only one.  This
oracle solves the Stable Paths Problem of Griffin, Shepherd and Wilfong
by search on topologies small enough to enumerate (at most 7 ASes).
Each AS holds one permitted path to the origin, or none.  A permitted
path is a simple path along which every hop may export the route under
the repo's policies.  An assignment is *stable* when every AS holds the
best offer its neighbours' choices make it.  Offers and their ranking
come from the best-response oracle's :func:`offer`, which shares no code
with either engine.

Gao-Rexford policies on an acyclic provider graph have exactly one
stable state; on such a plane the state must equal what ``array``
solved, ``array`` replayed and ``event`` hold.  Relaxed exports (and a
provider-graph cycle) void that guarantee, so on those planes the test
only checks that each state is well formed; :func:`survey` (run this
file as a script) counts them.  No drawn plane has had none; the smallest
plane with two (three ASes, found by enumerating every three-AS plane)
is the committed fixture ``tests/fixtures/stable_paths_two_states.json``,
which a model of relaxed IPv6 exports must bring to exactly one state.
"""

from __future__ import annotations

import collections
import itertools
import json
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.backends.arraycore import ArrayBackend
from repro.bgp.policy import LocalPrefScheme, RoutingPolicy, TrafficEngineeringOverride
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.results import originate_one_prefix_per_as
from repro.core.relationships import AFI, Relationship
from repro.topology.graph import ASGraph

from test_backends import _SCHEMES, _replayed
from test_best_response_oracle import offer

FIXTURE = Path(__file__).parent / "fixtures" / "stable_paths_two_states.json"

_RELATIONSHIPS = {"p2c": Relationship.P2C, "c2p": Relationship.C2P, "p2p": Relationship.P2P}


def permitted_paths(graph, policies, prefix, origin):
    """``{asn: {full path: decision key}}``: every simple path from each
    AS of the plane to ``origin`` that each hop may export, ranked by the
    AS that would hold it."""
    afi = prefix.afi
    permitted = {asn: {} for asn in graph.ases_in(afi)}
    frontier = [(origin,)]
    while frontier:
        path = frontier.pop()
        for asn, _ in graph.oriented_neighbors(path[0], afi):
            offered = offer(graph, policies, prefix, asn, path[0], path)
            if offered is not None:
                key, extended = offered
                permitted[asn][extended] = key
                frontier.append(extended)
    return permitted


def stable_states(graph, policies, prefix, origin):
    """Every stable assignment, as ``{asn: full path}`` (ASes holding no
    path are absent).

    Backtracks over the ASes nearest the origin first, assigning each
    one permitted path or none.  A branch dies as soon as two assigned
    ASes disagree on a shared suffix, or an assigned neighbour offers an
    assigned AS something better than it holds.  A full assignment that
    survives is stable: each AS's path is its next hop's offer, and no
    neighbour offers better.
    """
    afi = prefix.afi
    permitted = permitted_paths(graph, policies, prefix, origin)
    neighbors = {asn: [nb for nb, _ in graph.oriented_neighbors(asn, afi)] for asn in permitted}
    shortest = {asn: min(map(len, paths), default=99) for asn, paths in permitted.items()}
    order = sorted((asn for asn in permitted if asn != origin), key=lambda a: (shortest[a], a))
    state = {origin: (origin,)}
    found = []

    def key_of(asn, path):
        return None if path is None else permitted[asn][path]

    def fits(asn, path):
        for held in state.values():
            if held is not None and asn in held and held[held.index(asn):] != path:
                return False
        if path is not None:
            for index, hop in enumerate(path[1:], start=1):
                if hop in state and state[hop] != path[index:]:
                    return False
        held_key = key_of(asn, path)
        for neighbor in neighbors[asn]:
            if neighbor not in state:
                continue
            incoming = offer(graph, policies, prefix, asn, neighbor, state[neighbor])
            if incoming is not None and (held_key is None or incoming[0] > held_key):
                return False
            if neighbor == origin:
                continue
            outgoing = offer(graph, policies, prefix, neighbor, asn, path)
            theirs = key_of(neighbor, state[neighbor])
            if outgoing is not None and (theirs is None or outgoing[0] > theirs):
                return False
        return True

    def search(position):
        if position == len(order):
            found.append({asn: path for asn, path in state.items() if path is not None})
            return
        asn = order[position]
        for path in [*permitted[asn], None]:
            if fits(asn, path):
                state[asn] = path
                search(position + 1)
                del state[asn]

    search(0)
    return found


def provider_graph_is_acyclic(graph, afi):
    """True when no AS is (transitively) its own provider in ``afi``."""
    pending = {asn: len(graph.providers_of(asn, afi)) for asn in graph.ases_in(afi)}
    ready = [asn for asn, count in pending.items() if not count]
    for asn in ready:
        for customer in graph.customers_of(asn, afi):
            pending[customer] -= 1
            if not pending[customer]:
                ready.append(customer)
    return len(ready) == len(pending)


def is_relaxed(policies, afi):
    return any(policy.relaxed_export_neighbors.get(afi) for policy in policies.values())


@st.composite
def small_plane(draw):
    """A routing plane of 2-7 ASes: random relationships per AS pair,
    mixed LOCAL_PREF schemes, TE overrides that de-prefer a provider
    below the peer value (for every prefix or one), and, on some draws,
    relaxed adjacencies and a peering dispute (two providers of a shared
    customer drop their peering, and the customer leaks between them)."""
    afi = draw(st.sampled_from((AFI.IPV4, AFI.IPV6)))
    size = draw(st.integers(min_value=2, max_value=7))
    graph = ASGraph()
    for asn in range(1, size + 1):
        graph.add_as(asn, ipv4=afi is AFI.IPV4, ipv6=afi is AFI.IPV6)
    plane = "rel_v4" if afi is AFI.IPV4 else "rel_v6"
    for a, b in itertools.combinations(range(1, size + 1), 2):
        relationship = draw(st.sampled_from((None, *_RELATIONSHIPS.values())))
        if relationship is not None:
            graph.add_link(a, b, **{plane: relationship})
    policies = {}
    for asn in graph.ases:
        customer, peer, provider = draw(st.sampled_from(_SCHEMES))
        policies[asn] = RoutingPolicy(
            asn=asn,
            local_pref=LocalPrefScheme(customer, peer, provider, (customer + peer) // 2),
        )
    origins = originate_one_prefix_per_as(graph, afi)
    prefixes = sorted(origins, key=str)
    customers = [asn for asn in graph.ases if graph.providers_of(asn, afi)]
    overridden = (
        draw(st.lists(st.sampled_from(customers), max_size=3, unique=True)) if customers else []
    )
    for asn in overridden:
        policies[asn].te_overrides.append(
            TrafficEngineeringOverride(
                neighbor=draw(st.sampled_from(graph.providers_of(asn, afi))),
                local_pref=draw(
                    st.integers(min_value=1, max_value=policies[asn].local_pref.peer - 1)
                ),
                prefixes=draw(st.sampled_from(((), (draw(st.sampled_from(prefixes)),)))),
            )
        )
    if draw(st.booleans()):
        bridges = [asn for asn in graph.ases if len(graph.providers_of(asn, afi)) >= 2]
        if bridges and draw(st.booleans()):
            bridge = draw(st.sampled_from(bridges))
            a, b = draw(
                st.lists(
                    st.sampled_from(graph.providers_of(bridge, afi)),
                    min_size=2, max_size=2, unique=True,
                )
            )
            if graph.relationship(a, b, afi) is Relationship.P2P:
                graph.set_relationship(a, b, afi, Relationship.UNKNOWN)
            for provider in (a, b):
                policies[bridge].add_relaxation(provider, afi)
        adjacencies = [
            (asn, neighbor)
            for asn in graph.ases
            for neighbor, _ in graph.oriented_neighbors(asn, afi)
        ]
        if adjacencies:
            for asn, neighbor in draw(
                st.lists(st.sampled_from(adjacencies), max_size=3, unique=True)
            ):
                policies[asn].add_relaxation(neighbor, afi)
    return graph, policies, origins


def _engine_states(graph, policies, origins):
    """Each engine's held paths per prefix; ``array`` must solve."""
    (afi,) = {prefix.afi for prefix in origins}
    array = ArrayBackend(graph, policies)
    replayed = ArrayBackend(graph, _replayed(policies))
    results = {
        "array solved": array.run(origins),
        "array replayed": replayed.run(origins),
        "event": PropagationSimulator(graph, policies).run(origins),
    }
    assert array.methods[afi][0] == "solve", array.methods[afi]
    assert replayed.methods[afi][0] == "replay"
    return {
        name: {
            prefix: {
                asn: route.full_path()
                for asn in graph.ases_in(afi)
                if (route := result.best_route(asn, prefix)) is not None
            }
            for prefix in origins
        }
        for name, result in results.items()
    }


@settings(max_examples=300, deadline=None)
@given(plane=small_plane())
def test_stable_states_of_small_planes(plane):
    """A relaxation-free plane over an acyclic provider graph has exactly
    one stable state per prefix, and every engine holds it.  Other planes
    may have none or several, which must still be well-formed: each
    state routes the origin to itself and uses permitted paths only."""
    graph, policies, origins = plane
    (afi,) = {prefix.afi for prefix in origins}
    guaranteed = not is_relaxed(policies, afi) and provider_graph_is_acyclic(graph, afi)
    engines = _engine_states(graph, policies, origins) if guaranteed else {}
    for prefix, origin in origins.items():
        states = stable_states(graph, policies, prefix, origin)
        permitted = permitted_paths(graph, policies, prefix, origin)
        for state in states:
            assert state[origin] == (origin,)
            assert all(path in permitted[asn] for asn, path in state.items() if asn != origin)
        if guaranteed:
            (state,) = states
            for name, held in engines.items():
                assert held[prefix] == state, f"{name} on {prefix}"


def _fixture_plane():
    data = json.loads(FIXTURE.read_text())
    afi = AFI[data["afi"]]
    plane = "rel_v4" if afi is AFI.IPV4 else "rel_v6"
    graph = ASGraph()
    for asn in data["ases"]:
        graph.add_as(asn, ipv4=afi is AFI.IPV4, ipv6=afi is AFI.IPV6)
    for a, b, relationship in data["links"]:
        graph.add_link(a, b, **{plane: _RELATIONSHIPS[relationship]})
    policies = {asn: RoutingPolicy(asn=asn) for asn in graph.ases}
    for asn, neighbor in data["relaxed"]:
        policies[asn].add_relaxation(neighbor, afi)
    origins = originate_one_prefix_per_as(graph, afi, ases=[data["origin"]])
    return graph, policies, origins, data


def test_fixture_relaxed_plane_has_two_stable_states():
    """The smallest plane with more than one stable state (three ASes;
    two cannot hold two).  Which state a run ends in depends on the
    order routes arrive, so a model of relaxed IPv6 exports that makes
    the plane independent of event order must bring this fixture to
    exactly one.  Today both engines reach the same one of the two."""
    graph, policies, origins, data = _fixture_plane()
    ((prefix, origin),) = origins.items()
    states = stable_states(graph, policies, prefix, origin)
    expected = [
        {int(asn): tuple(path) for asn, path in state.items()}
        for state in data["stable_states"]
    ]
    assert len(states) == 2
    assert sorted(map(sorted, map(dict.items, states))) == sorted(
        map(sorted, map(dict.items, expected))
    )
    held = []
    for engine in (ArrayBackend(graph, policies), PropagationSimulator(graph, policies)):
        result = engine.run(origins)
        held.append({asn: result.best_route(asn, prefix).full_path() for asn in graph.ases})
    assert held[0] == held[1] == expected[0]


def survey(examples):
    """Print how many stable states each kind of drawn plane had, per
    prefix: ``PYTHONPATH=src python tests/test_stable_paths_oracle.py
    [EXAMPLES]``."""
    tally = collections.Counter()

    @settings(max_examples=examples, deadline=None, database=None)
    @given(plane=small_plane())
    def count(plane):
        graph, policies, origins = plane
        (afi,) = {prefix.afi for prefix in origins}
        kind = (
            "relaxed" if is_relaxed(policies, afi)
            else "acyclic" if provider_graph_is_acyclic(graph, afi)
            else "cyclic"
        )
        for prefix, origin in origins.items():
            tally[kind, len(stable_states(graph, policies, prefix, origin))] += 1

    count()
    for (kind, states), prefixes in sorted(tally.items()):
        print(f"{kind:<8} {states} stable states: {prefixes} prefixes")


if __name__ == "__main__":
    survey(int(sys.argv[1]) if len(sys.argv) > 1 else 3000)
