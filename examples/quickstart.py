#!/usr/bin/env python3
"""Quickstart: build a synthetic snapshot and inspect hybrid relationships.

This example walks through the library's public API end to end:

1. build a small synthetic "August 2010"-like snapshot (topology, BGP
   propagation, collectors, IRR documentation),
2. run the Communities + LocPrf relationship inference on the archived
   observations,
3. detect the hybrid IPv4/IPv6 links, and
4. print the most visible hybrid links together with their per-plane
   relationships.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.report import format_summary, format_table
from repro.core.combined_inference import CombinedInference
from repro.core.hybrid import HybridDetector
from repro.core.relationships import AFI
from repro.core.visibility import build_visibility_index
from repro.datasets.config import small_config
from repro.datasets.synthetic import build_snapshot


def main() -> None:
    print("Building a small synthetic snapshot (topology + BGP propagation)...")
    snapshot = build_snapshot(small_config())
    print(
        f"  {len(snapshot.graph)} ASes, "
        f"{len(snapshot.observations)} observations from "
        f"{len(snapshot.collectors)} collectors\n"
    )

    print("Running the Communities + LocPrf relationship inference...")
    inference = CombinedInference(snapshot.registry).infer(snapshot.store)
    for afi in (AFI.IPV4, AFI.IPV6):
        coverage = inference.coverage[afi]
        print(
            f"  {afi}: relationship recovered for "
            f"{coverage.annotated_links}/{coverage.total_links} visible links "
            f"({coverage.fraction:.0%})"
        )
    print()

    print("Detecting hybrid IPv4/IPv6 relationships...")
    detector = HybridDetector(
        inference.annotation(AFI.IPV4), inference.annotation(AFI.IPV6)
    )
    report = detector.detect()
    print(format_summary(report.summary(), title="Hybrid link detection"))
    print()

    validation = detector.validate(report, snapshot.true_hybrid_links)
    print(
        "Validation against the planted ground truth: "
        f"precision={validation.precision:.2f} recall={validation.recall:.2f}\n"
    )

    print("Most visible hybrid links in the IPv6 AS paths:")
    visibility = build_visibility_index(snapshot.store, afi=AFI.IPV6)
    rows = []
    for link, count in visibility.rank_links(report.hybrid_link_set())[:10]:
        entry = detector.classify(link)
        rows.append(
            (
                str(link),
                f"{entry.ipv4}/{entry.ipv6} ({entry.hybrid_type}), in {count} paths",
            )
        )
    print(format_table(rows, label_header="link", value_header="IPv4/IPv6 relationship"))


if __name__ == "__main__":
    main()
