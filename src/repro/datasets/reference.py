"""Frozen monolithic snapshot builder (pre-pipeline composition).

The dataset-side counterpart of :mod:`repro.bgp.reference` and
:mod:`repro.analysis.reference`: this module preserves, verbatim, the
*composition order* ``build_snapshot`` had before it was decomposed
into the staged pipeline (:mod:`repro.pipeline.stages`) — one shared
``random.Random(seed)`` stream threaded sequentially through policy
construction, peering disputes, gratuitous leaks, vantage selection and
per-AFI origin selection, with propagation, collection and extraction
interleaved exactly as the monolith interleaved them.

The golden tests (``tests/test_pipeline_golden.py``) build the same
configuration through both paths on two seeds and assert the snapshots
are bit-identical; this is what pins the staged decomposition (in
particular the RNG-consumption order of the ``scenario`` stage) to the
historical semantics.

The *sub-step helpers* (``_build_policies`` and friends) are shared
with :mod:`repro.datasets.synthetic` on purpose: what this module
freezes is the orchestration — the thing the pipeline refactor changed
— not the per-step algorithms, which the staged path calls unchanged.
Do not "modernize" this module; it exists to stay put.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.analysis.paths import store_from_records
from repro.bgp.prefixes import PrefixAllocator
from repro.bgp.propagation import PropagationSimulator
from repro.bgp.results import PropagationResult
from repro.collectors.archive import CollectorArchive
from repro.collectors.collector import default_collectors
from repro.core.annotation import ToRAnnotation
from repro.core.relationships import AFI
from repro.datasets.config import DatasetConfig
from repro.datasets.synthetic import (
    SyntheticSnapshot,
    _apply_gratuitous_leaks,
    _apply_peering_disputes,
    _build_policies,
    _select_origins,
    _select_vantage_points,
)
from repro.irr.registry import build_registry
from repro.topology.generator import generate_topology


def reference_build_snapshot(
    config: Optional[DatasetConfig] = None,
) -> SyntheticSnapshot:
    """Build a snapshot exactly the way the monolithic builder did."""
    config = config or DatasetConfig()
    rng = random.Random(config.seed)
    allocator = PrefixAllocator()

    topology = generate_topology(config.topology)
    graph = topology.graph
    registry = build_registry(
        graph.ases, documented_fraction=config.documented_fraction, seed=config.seed
    )
    policies = _build_policies(topology, registry, config, rng, allocator)
    dispute_links, dispute_relaxed = _apply_peering_disputes(
        topology, policies, config, rng
    )
    leak_relaxed = _apply_gratuitous_leaks(topology, policies, config, rng)
    relaxed = dispute_relaxed + leak_relaxed

    vantage_asns = _select_vantage_points(topology, config, rng)
    collectors = default_collectors(
        vantage_asns,
        collectors_per_project=config.collectors_per_project,
        exports_local_pref_fraction=config.exports_local_pref_fraction,
    )

    propagation: Dict[AFI, PropagationResult] = {}
    archive = CollectorArchive()
    for afi in (AFI.IPV4, AFI.IPV6):
        simulator = PropagationSimulator(
            graph, policies, keep_ribs_for=vantage_asns
        )
        origins = _select_origins(topology, allocator, afi)
        result = simulator.run(origins)
        propagation[afi] = result
        for collector in collectors:
            records = collector.collect(result, afi=afi)
            archive.add_collection(collector, config.snapshot_date, records)

    extraction = store_from_records(archive.records())
    ground_truth = {
        AFI.IPV4: ToRAnnotation.from_graph(graph, AFI.IPV4),
        AFI.IPV6: ToRAnnotation.from_graph(graph, AFI.IPV6),
    }
    # The peering disputes removed some planted hybrid links' IPv6 side;
    # drop them from the ground-truth hybrid set if that happened.
    true_hybrid = {
        link: hybrid_type
        for link, hybrid_type in topology.hybrid_links.items()
        if ground_truth[AFI.IPV6].get_canonical(link).is_known
        and ground_truth[AFI.IPV4].get_canonical(link).is_known
    }

    return SyntheticSnapshot(
        config=config,
        topology=topology,
        registry=registry,
        policies=policies,
        collectors=collectors,
        archive=archive,
        observations=list(extraction.observations),
        store=extraction.store,
        extraction=extraction,
        ground_truth=ground_truth,
        true_hybrid_links=true_hybrid,
        relaxed_adjacencies=relaxed,
        dispute_links=dispute_links,
        propagation=propagation,
    )
