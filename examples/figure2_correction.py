#!/usr/bin/env python3
"""Figure 2: correcting the most visible hybrid links step by step.

Starting from the *plane-agnostic* IPv6 annotation (every dual-stack link
carries its IPv4 relationship — the artifact the paper attributes to the
existing ToR algorithms), this example corrects the hybrid links one at a
time in decreasing IPv6 path-visibility order and prints the average
shortest valley-free path length and the diameter of the union of the
IPv6 customer trees after every step — the two series plotted in
Figure 2.  A random-order control shows that the visibility ranking
matters.

Run with::

    python examples/figure2_correction.py            # paper-scale snapshot
    python examples/figure2_correction.py --small    # quick small snapshot
"""

from __future__ import annotations

import argparse

from repro.analysis.report import format_series, format_summary
from repro.analysis.stats import compute_section3
from repro.core.correction import CorrectionExperiment, plane_agnostic_annotation
from repro.core.relationships import AFI
from repro.datasets.config import paper_scale_config, small_config
from repro.datasets.synthetic import build_snapshot


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--small", action="store_true", help="use the small snapshot")
    parser.add_argument("--top", type=int, default=20, help="number of links to correct")
    args = parser.parse_args()

    config = small_config() if args.small else paper_scale_config()
    print(f"Building the synthetic snapshot ({config.topology.total_ases} ASes)...")
    snapshot = build_snapshot(config)
    print("Running the measurement pipeline...")
    artifacts = compute_section3(snapshot.store, snapshot.registry)

    reference = artifacts.inference.annotation(AFI.IPV6)
    misinferred = plane_agnostic_annotation(
        reference, artifacts.inference.annotation(AFI.IPV4)
    )
    experiment = CorrectionExperiment(misinferred, reference)
    hybrid_links = artifacts.hybrid.hybrid_link_set()

    print(f"Correcting up to {args.top} hybrid links by IPv6 path visibility...\n")
    series = experiment.run_with_visibility(
        hybrid_links, artifacts.visibility, top=args.top
    )
    print(
        format_series(
            "corrected links",
            {"avg path length": series.averages, "diameter": series.diameters},
            title="Figure 2 — customer-tree metrics while correcting hybrid links",
        )
    )
    print()
    print(format_summary(series.improvement(), title="Start vs end"))
    print("\nPaper (real August-2010 data): average 3.8 -> 2.23, diameter 11 -> 7.")

    control = experiment.run_random_order(hybrid_links, count=args.top, seed=1)
    print()
    print(
        format_summary(
            control.improvement(), title="Control: random correction order"
        )
    )


if __name__ == "__main__":
    main()
