#!/usr/bin/env python3
"""Figure 1: how a single relationship flip changes the customer tree.

Reproduces the paper's illustrative example: the customer tree of AS1
when the link AS1-AS2 is (a) provider-to-customer versus (b)
peer-to-peer.  In (a) AS1 reaches every AS through p2c links; in (b) its
tree shrinks to {AS1, AS3}.

The example then repeats the exercise on a larger synthetic topology:
it picks a planted hybrid link and shows how the IPv6 customer tree of
its provider-side AS differs between the (misinferred) IPv4 relationship
and the actual IPv6 relationship.

Run with::

    python examples/figure1_customer_tree.py
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.core.annotation import ToRAnnotation
from repro.core.customer_tree import customer_tree
from repro.core.relationships import AFI, HybridType, Relationship
from repro.datasets.scenarios import figure1_scenario
from repro.topology.config import TopologyConfig
from repro.topology.generator import generate_topology


def paper_example() -> None:
    scenario = figure1_scenario()
    tree_a = customer_tree(scenario.annotation_p2c, scenario.ROOT)
    tree_b = customer_tree(scenario.annotation_p2p, scenario.ROOT)
    rows = [
        ("(a) AS1-AS2 is p2c", f"tree = {sorted(tree_a.members)} (size {tree_a.size})"),
        ("(b) AS1-AS2 is p2p", f"tree = {sorted(tree_b.members)} (size {tree_b.size})"),
    ]
    print(format_table(rows, title="Figure 1 — customer tree of AS1", label_header="variant"))
    print()


def synthetic_example() -> None:
    topology = generate_topology(
        TopologyConfig(seed=5, tier1_count=6, tier2_count=40, tier3_count=160)
    )
    ipv6 = ToRAnnotation.from_graph(topology.graph, AFI.IPV6)
    ipv4 = ToRAnnotation.from_graph(topology.graph, AFI.IPV4)
    # Pick a planted peering-for-IPv4 / transit-for-IPv6 hybrid link.
    candidates = [
        link
        for link, hybrid_type in topology.hybrid_links.items()
        if hybrid_type is HybridType.PEER4_TRANSIT6
    ]
    if not candidates:
        print("(no peer4/transit6 hybrid link in this synthetic topology)")
        return
    link = candidates[0]
    provider = link.a if ipv6.get(link.a, link.b) is Relationship.P2C else link.b
    with_transit = customer_tree(ipv6, provider)
    misinferred = ipv6.copy()
    misinferred.set_canonical(link, ipv4.get_canonical(link))
    without_transit = customer_tree(misinferred, provider)
    rows = [
        (f"actual IPv6 ({ipv6.get(provider, link.other(provider))})",
         f"customer tree of AS{provider}: {with_transit.size} ASes, depth {with_transit.depth}"),
        (f"IPv4 label applied ({ipv4.get(provider, link.other(provider))})",
         f"customer tree of AS{provider}: {without_transit.size} ASes, depth {without_transit.depth}"),
    ]
    print(
        format_table(
            rows,
            title=f"Same effect on a synthetic hybrid link {link}",
            label_header="annotation used",
        )
    )


def main() -> None:
    paper_example()
    synthetic_example()


if __name__ == "__main__":
    main()
