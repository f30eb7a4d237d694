"""An oracle independent of both engines: best paths derived by hand.

``fixtures/as-rel-tree.txt`` is a 13-AS tree in CAIDA ``as-rel`` format:
AS1 is the provider of AS2-AS5, AS2-AS3 and AS4-AS5 peer, and every
tier-2 AS has two stub customers (AS6/7 under AS2, AS8/9 under AS3,
AS10/11 under AS4, AS12/13 under AS5).  Under default Gao-Rexford
policies (customer > peer > provider, then the shorter path; customer
routes go to everyone, peer and provider routes only to customers) the
best path from every AS to every other AS's prefix follows from three
observations, and the table below writes each one out:

* AS1 reaches everything through its customers.
* A tier-2 AS prefers its peer (and the peer's customers) over AS1, and
  reaches the other half of the tree only through AS1: its peer learned
  those routes from AS1 and does not export a provider route to a peer.
* A stub reaches everything through its single provider.

The same file is loaded on both planes, so IPv4 and IPv6 must agree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bgp.engine import PropagationEngine
from repro.bgp.results import originate_one_prefix_per_as
from repro.core.relationships import AFI
from repro.topology.serialization import read_caida_asrel

TREE = Path(__file__).parent / "fixtures" / "as-rel-tree.txt"

#: ``EXPECTED[holder][origin]``: the holder's best AS path towards the
#: origin's prefix, neighbour first, origin last.
EXPECTED = {
    1: {2: "2", 3: "3", 4: "4", 5: "5", 6: "2 6", 7: "2 7", 8: "3 8", 9: "3 9",
        10: "4 10", 11: "4 11", 12: "5 12", 13: "5 13"},
    2: {1: "1", 3: "3", 4: "1 4", 5: "1 5", 6: "6", 7: "7", 8: "3 8", 9: "3 9",
        10: "1 4 10", 11: "1 4 11", 12: "1 5 12", 13: "1 5 13"},
    3: {1: "1", 2: "2", 4: "1 4", 5: "1 5", 6: "2 6", 7: "2 7", 8: "8", 9: "9",
        10: "1 4 10", 11: "1 4 11", 12: "1 5 12", 13: "1 5 13"},
    4: {1: "1", 2: "1 2", 3: "1 3", 5: "5", 6: "1 2 6", 7: "1 2 7", 8: "1 3 8",
        9: "1 3 9", 10: "10", 11: "11", 12: "5 12", 13: "5 13"},
    5: {1: "1", 2: "1 2", 3: "1 3", 4: "4", 6: "1 2 6", 7: "1 2 7", 8: "1 3 8",
        9: "1 3 9", 10: "4 10", 11: "4 11", 12: "12", 13: "13"},
    6: {1: "2 1", 2: "2", 3: "2 3", 4: "2 1 4", 5: "2 1 5", 7: "2 7", 8: "2 3 8",
        9: "2 3 9", 10: "2 1 4 10", 11: "2 1 4 11", 12: "2 1 5 12",
        13: "2 1 5 13"},
    7: {1: "2 1", 2: "2", 3: "2 3", 4: "2 1 4", 5: "2 1 5", 6: "2 6", 8: "2 3 8",
        9: "2 3 9", 10: "2 1 4 10", 11: "2 1 4 11", 12: "2 1 5 12",
        13: "2 1 5 13"},
    8: {1: "3 1", 2: "3 2", 3: "3", 4: "3 1 4", 5: "3 1 5", 6: "3 2 6",
        7: "3 2 7", 9: "3 9", 10: "3 1 4 10", 11: "3 1 4 11", 12: "3 1 5 12",
        13: "3 1 5 13"},
    9: {1: "3 1", 2: "3 2", 3: "3", 4: "3 1 4", 5: "3 1 5", 6: "3 2 6",
        7: "3 2 7", 8: "3 8", 10: "3 1 4 10", 11: "3 1 4 11", 12: "3 1 5 12",
        13: "3 1 5 13"},
    10: {1: "4 1", 2: "4 1 2", 3: "4 1 3", 4: "4", 5: "4 5", 6: "4 1 2 6",
         7: "4 1 2 7", 8: "4 1 3 8", 9: "4 1 3 9", 11: "4 11", 12: "4 5 12",
         13: "4 5 13"},
    11: {1: "4 1", 2: "4 1 2", 3: "4 1 3", 4: "4", 5: "4 5", 6: "4 1 2 6",
         7: "4 1 2 7", 8: "4 1 3 8", 9: "4 1 3 9", 10: "4 10", 12: "4 5 12",
         13: "4 5 13"},
    12: {1: "5 1", 2: "5 1 2", 3: "5 1 3", 4: "5 4", 5: "5", 6: "5 1 2 6",
         7: "5 1 2 7", 8: "5 1 3 8", 9: "5 1 3 9", 10: "5 4 10", 11: "5 4 11",
         13: "5 13"},
    13: {1: "5 1", 2: "5 1 2", 3: "5 1 3", 4: "5 4", 5: "5", 6: "5 1 2 6",
         7: "5 1 2 7", 8: "5 1 3 8", 9: "5 1 3 9", 10: "5 4 10", 11: "5 4 11",
         12: "5 12"},
}


@pytest.fixture(scope="module")
def tree():
    graph = read_caida_asrel(TREE, AFI.IPV4)
    return read_caida_asrel(TREE, AFI.IPV6, graph)


def test_fixture_loads_on_both_planes(tree):
    assert tree.ases == list(range(1, 14))
    for afi in (AFI.IPV4, AFI.IPV6):
        assert len(tree.links(afi)) == 14


@pytest.mark.parametrize("afi", (AFI.IPV4, AFI.IPV6), ids=("ipv4", "ipv6"))
@pytest.mark.parametrize("engine", ("event", "array"))
def test_best_paths_match_the_hand_derived_table(tree, engine, afi):
    origins = originate_one_prefix_per_as(tree, afi)
    result = PropagationEngine(tree, engine=engine).run(origins)
    paths = {
        holder: {
            origin: " ".join(map(str, result.best_route(holder, prefix).as_path.hops))
            for prefix, origin in origins.items()
            if origin != holder
        }
        for holder in tree.ases
    }
    assert paths == EXPECTED
