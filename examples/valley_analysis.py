#!/usr/bin/env python3
"""Valley paths in the IPv6 plane and the reachability argument.

Reproduces the Section-3 valley analysis on a synthetic snapshot:

* the fraction of IPv6 AS paths violating the valley-free rule,
* how many of those valley paths have *no* valley-free alternative (the
  paper's "relaxation of the valley-free rule in order to expand the
  reachability of IPv6 prefixes"), and
* how partitioned the IPv6 plane would be under strict valley-free
  routing (ablation A2, checked by ``TestValleyAndPartition`` in
  ``tests/test_integration_pipeline.py``), starting from the peering-dispute
  scenario described in the paper's footnote.

Run with::

    python examples/valley_analysis.py
"""

from __future__ import annotations

from repro.analysis.partition import analyze_reachability
from repro.analysis.report import format_summary
from repro.analysis.stats import compute_section3
from repro.core.relationships import AFI
from repro.core.valley import ValleyReason
from repro.datasets.config import small_config
from repro.datasets.synthetic import build_snapshot


def main() -> None:
    print("Building the synthetic snapshot...")
    snapshot = build_snapshot(small_config())
    artifacts = compute_section3(snapshot.store, snapshot.registry)

    valley = artifacts.valley
    print()
    print(format_summary(valley.summary(), title="IPv6 valley-path analysis"))
    print("\nPaper: 13% of IPv6 paths are valley paths; 16% of those are needed")
    print("for reachability (the IPv6 plane is partitioned under valley-free routing).\n")

    if snapshot.dispute_links:
        print("Peering disputes modelled in this snapshot (IPv6-only de-peering):")
        for link in snapshot.dispute_links:
            print(f"  {link} — bridged by relaxed exports at a shared customer")
        print()

    example = next(
        (vp for vp in valley.valley_paths if vp.reason is ValleyReason.REACHABILITY),
        None,
    )
    if example is not None:
        print("Example reachability-motivated valley path (observer -> origin):")
        print("  " + " -> ".join(f"AS{asn}" for asn in example.path))
        print()

    print("Valley-free reachability of the IPv6 plane under strict export rules")
    annotation = snapshot.ground_truth_annotation(AFI.IPV6)
    ases = [asn for asn in snapshot.graph.ases_in(AFI.IPV6) if annotation.neighbors(asn)]
    report = analyze_reachability(annotation, ases=ases[:80])
    print(format_summary(report.summary(), title="Strict valley-free reachability"))


if __name__ == "__main__":
    main()
