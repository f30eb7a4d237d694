#!/usr/bin/env python3
"""Reproduce the Section-3 statistics of the paper on a synthetic snapshot.

Prints the same rows the paper reports inline in Section 3 (path/link
counts, inference coverage, hybrid links and their type mix, hybrid path
visibility, valley paths and the reachability-motivated subset), next to
the values the paper measured on the real August-2010 data.

Run with::

    python examples/reproduce_section3.py            # paper-scale snapshot
    python examples/reproduce_section3.py --small    # quick small snapshot
"""

from __future__ import annotations

import argparse

from repro.analysis.report import format_table
from repro.analysis.stats import compute_section3
from repro.datasets.config import paper_scale_config, small_config
from repro.datasets.synthetic import build_snapshot

#: The values reported by the paper for August 2010 (absolute counts are
#: not expected to match a synthetic snapshot; the shapes should).
PAPER_VALUES = {
    "IPv6 AS paths": "346,649",
    "IPv6 AS links": "10,535",
    "IPv4/IPv6 (dual-stack) links": "7,618",
    "IPv6 links with relationship": "7,651 (72%)",
    "dual-stack links with relationship": "6,160 (81%)",
    "hybrid links": "779 (13%)",
    "hybrid: p2p IPv4 / transit IPv6": "67%",
    "hybrid: p2p IPv6 / transit IPv4": "~33%",
    "hybrid: reversed transit": "1 link",
    "IPv6 paths crossing a hybrid link": ">28%",
    "IPv6 valley paths": "13%",
    "valley paths needed for reachability": "16%",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--small", action="store_true", help="use the small test-sized snapshot"
    )
    args = parser.parse_args()

    config = small_config() if args.small else paper_scale_config()
    print(f"Building the synthetic snapshot ({config.topology.total_ases} ASes)...")
    snapshot = build_snapshot(config)
    print(f"  archived records: {len(snapshot.archive)}")
    print(f"  observations:     {len(snapshot.observations)}\n")

    print("Running the measurement pipeline (inference, hybrid, valley analysis)...")
    artifacts = compute_section3(snapshot.store, snapshot.registry)

    rows = []
    for label, measured in artifacts.report.rows():
        rows.append((label, f"{measured:<22} | paper: {PAPER_VALUES.get(label, '-')}"))
    print()
    print(
        format_table(
            rows,
            title="Section 3 — measured (synthetic) vs paper (August 2010)",
            value_header="measured | paper",
        )
    )


if __name__ == "__main__":
    main()
