"""The concrete stage DAG of the reproduction pipeline.

This module decomposes the formerly monolithic
``repro.datasets.synthetic.build_snapshot`` +
``repro.analysis.stats.compute_section3`` chain into declared,
individually cacheable stages (see ``docs/architecture.md`` for the
full picture)::

    topology ──┬─> scenario ──┬─> propagation_v4 ──┐
    irr ───────┘              ├─> propagation_v6 ──┼─> archive ─> store
                              └─> ground_truth     │
                                                   v
    snapshot  <─── (assembly of everything above) ─┘

    store + irr ─> inference ─> views ─┬─> section3
                                       └─> correction   (Figure 2)

Every stage calls exactly the code the monolithic path called, in the
same order; in particular the *scenario* stage owns the single
``random.Random(seed)`` stream the legacy builder threaded through
policy construction, peering disputes, gratuitous leaks, vantage
selection and origin selection — so the staged pipeline is
**bit-identical** to the frozen monolith
(:func:`repro.datasets.reference.reference_build_snapshot`), which the
golden tests pin on two seeds.

Stage *code versions* are declared next to each stage; bump one when
the stage's implementation changes in a result-affecting way, and every
cached artifact of that stage and its descendants is invalidated
(fingerprints chain — see :mod:`repro.pipeline.artifacts`).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.paths import ExtractionResult, extract_from_archive
from repro.analysis.stats import (
    Section3Artifacts,
    Section3Report,
    Section3Views,
    assemble_report,
    build_views,
    run_inference,
)
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix, PrefixAllocator
from repro.bgp.propagation import PropagationResult
from repro.collectors.archive import CollectorArchive
from repro.collectors.collector import Collector, default_collectors
from repro.core.annotation import ToRAnnotation
from repro.core.combined_inference import CombinedInferenceResult
from repro.core.correction import CorrectionSeries, run_correction_sweep
from repro.core.relationships import AFI, HybridType, Link
from repro.datasets.synthetic import (
    DatasetConfig,
    SyntheticSnapshot,
    _apply_gratuitous_leaks,
    _apply_peering_disputes,
    _build_policies,
    _select_origins,
    _select_vantage_points,
)
from repro.irr.registry import IRRRegistry, build_registry
from repro.pipeline.artifacts import ArtifactCache
from repro.pipeline.runner import PipelineRun, PipelineRunner, StageSpec
from repro.topology.generator import GeneratedTopology, generate_topology


@dataclass(frozen=True)
class PropagationConfig:
    """How the propagation stages compute their results.

    Attributes:
        engine: Propagation backend (see :mod:`repro.bgp.backends`):
            ``event`` (default), ``array``, ``equilibrium`` or ``auto``.
            Every engine is pinned to produce identical routes (the
            golden parity suite), so changing it changes wall time, the
            reported event counts and — deliberately — the stage
            fingerprints: a changed engine is a cache miss, and the
            freshly computed result is still golden-identical.
    """

    engine: str = "event"

    def __post_init__(self) -> None:
        from repro.bgp.backends import ENGINE_CHOICES

        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"propagation.engine must be one of {ENGINE_CHOICES}, "
                f"got {self.engine!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run is a function of.

    Attributes:
        dataset: The synthetic snapshot configuration.
        top: Figure-2 correction budget (links corrected, ``>= 0``).
        max_sources: Valley-free BFS sampling bound for the
            customer-tree metric (``None`` = exact, otherwise ``>= 1``).
        propagation: Propagation-engine selection (sweepable as the
            ``propagation.engine`` grid axis).
    """

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    top: int = 20
    max_sources: Optional[int] = 60
    propagation: PropagationConfig = field(default_factory=PropagationConfig)

    def __post_init__(self) -> None:
        if self.top < 0:
            raise ValueError(f"top must be >= 0, got {self.top}")
        if self.max_sources is not None and self.max_sources < 1:
            raise ValueError(
                f"max_sources must be None (exact) or >= 1, got {self.max_sources}"
            )


# ----------------------------------------------------------------------
# artifact shapes
# ----------------------------------------------------------------------
@dataclass
class ScenarioArtifact:
    """The fully configured measurement scenario.

    ``topology`` is a deep copy of the generated topology *after* the
    peering disputes mutated its IPv6 plane — downstream stages (and
    the assembled snapshot) must use this copy; the ``topology`` stage
    artifact itself stays pristine.
    """

    topology: GeneratedTopology
    policies: Dict[int, RoutingPolicy]
    dispute_links: List[Link]
    relaxed_adjacencies: List[Tuple[int, int]]
    vantage_asns: List[int]
    collectors: List[Collector]
    origins: Dict[AFI, Dict[Prefix, int]]


@dataclass
class GroundTruthArtifact:
    """Per-AFI ground-truth annotations plus the surviving hybrid set."""

    annotations: Dict[AFI, ToRAnnotation]
    true_hybrid_links: Dict[Link, HybridType]


# ----------------------------------------------------------------------
# snapshot-side stage computations
# ----------------------------------------------------------------------
def _stage_topology(run: PipelineRun) -> GeneratedTopology:
    return generate_topology(run.config.dataset.topology)


def _stage_irr(run: PipelineRun) -> IRRRegistry:
    config = run.config.dataset
    topology: GeneratedTopology = run.value("topology")
    return build_registry(
        topology.graph.ases,
        documented_fraction=config.documented_fraction,
        seed=config.seed,
    )


def _stage_scenario(run: PipelineRun) -> ScenarioArtifact:
    """Policies, disputes, leaks, vantages, collectors and origins.

    This stage consumes the shared ``random.Random(config.seed)`` stream
    in exactly the order the monolithic builder did: policies →
    disputes → leaks → vantage points (origin selection draws nothing).
    Splitting any of these into separate stages would need the RNG state
    itself to become an artifact; keeping them together keeps the
    fingerprinting honest and the results bit-identical.

    The disputes mutate the topology, so this stage works on a deep
    copy: the ``topology`` artifact stays pristine (identical whether
    it was just computed or unpickled from the cache) and the mutated
    copy travels inside the scenario artifact.
    """
    config = run.config.dataset
    topology: GeneratedTopology = copy.deepcopy(run.value("topology"))
    registry: IRRRegistry = run.value("irr")
    rng = random.Random(config.seed)
    allocator = PrefixAllocator()
    policies = _build_policies(topology, registry, config, rng, allocator)
    dispute_links, dispute_relaxed = _apply_peering_disputes(
        topology, policies, config, rng
    )
    leak_relaxed = _apply_gratuitous_leaks(topology, policies, config, rng)
    vantage_asns = _select_vantage_points(topology, config, rng)
    collectors = default_collectors(
        vantage_asns,
        collectors_per_project=config.collectors_per_project,
        exports_local_pref_fraction=config.exports_local_pref_fraction,
    )
    origins = {
        afi: _select_origins(topology, allocator, afi)
        for afi in (AFI.IPV4, AFI.IPV6)
    }
    return ScenarioArtifact(
        topology=topology,
        policies=policies,
        dispute_links=dispute_links,
        relaxed_adjacencies=dispute_relaxed + leak_relaxed,
        vantage_asns=vantage_asns,
        collectors=collectors,
        origins=origins,
    )


def _propagate(run: PipelineRun, afi: AFI) -> PropagationResult:
    scenario: ScenarioArtifact = run.value("scenario")
    from repro.bgp.engine import PropagationEngine

    engine = PropagationEngine(
        scenario.topology.graph,
        scenario.policies,
        keep_ribs_for=scenario.vantage_asns,
        engine=run.config.propagation.engine,
    )
    return engine.run(scenario.origins[afi])


def _stage_propagation_v4(run: PipelineRun) -> PropagationResult:
    return _propagate(run, AFI.IPV4)


def _stage_propagation_v6(run: PipelineRun) -> PropagationResult:
    return _propagate(run, AFI.IPV6)


def _stage_archive(run: PipelineRun) -> CollectorArchive:
    config = run.config.dataset
    scenario: ScenarioArtifact = run.value("scenario")
    results = {
        AFI.IPV4: run.value("propagation_v4"),
        AFI.IPV6: run.value("propagation_v6"),
    }
    archive = CollectorArchive()
    for afi in (AFI.IPV4, AFI.IPV6):
        for collector in scenario.collectors:
            records = collector.collect(results[afi], afi=afi)
            archive.add_collection(collector, config.snapshot_date, records)
    return archive


def _stage_store(run: PipelineRun) -> ExtractionResult:
    return extract_from_archive(run.value("archive"))


def _stage_ground_truth(run: PipelineRun) -> GroundTruthArtifact:
    scenario: ScenarioArtifact = run.value("scenario")
    graph = scenario.topology.graph
    annotations = {
        AFI.IPV4: ToRAnnotation.from_graph(graph, AFI.IPV4),
        AFI.IPV6: ToRAnnotation.from_graph(graph, AFI.IPV6),
    }
    # The peering disputes removed some planted hybrid links' IPv6 side;
    # drop them from the ground-truth hybrid set if that happened.
    true_hybrid = {
        link: hybrid_type
        for link, hybrid_type in scenario.topology.hybrid_links.items()
        if annotations[AFI.IPV6].get_canonical(link).is_known
        and annotations[AFI.IPV4].get_canonical(link).is_known
    }
    return GroundTruthArtifact(annotations=annotations, true_hybrid_links=true_hybrid)


def _stage_snapshot(run: PipelineRun) -> SyntheticSnapshot:
    """Assemble the :class:`SyntheticSnapshot` facade (never cached —
    it only references the upstream artifacts)."""
    scenario: ScenarioArtifact = run.value("scenario")
    extraction: ExtractionResult = run.value("store")
    ground_truth: GroundTruthArtifact = run.value("ground_truth")
    return SyntheticSnapshot(
        config=run.config.dataset,
        topology=scenario.topology,
        registry=run.value("irr"),
        policies=scenario.policies,
        collectors=scenario.collectors,
        archive=run.value("archive"),
        observations=list(extraction.observations),
        store=extraction.store,
        extraction=extraction,
        ground_truth=ground_truth.annotations,
        true_hybrid_links=ground_truth.true_hybrid_links,
        relaxed_adjacencies=scenario.relaxed_adjacencies,
        dispute_links=scenario.dispute_links,
        propagation={
            AFI.IPV4: run.value("propagation_v4"),
            AFI.IPV6: run.value("propagation_v6"),
        },
    )


# ----------------------------------------------------------------------
# analysis-side stage computations
# ----------------------------------------------------------------------
def _stage_inference(run: PipelineRun) -> CombinedInferenceResult:
    extraction: ExtractionResult = run.value("store")
    return run_inference(extraction.store, run.value("irr"))


def _stage_views(run: PipelineRun) -> Section3Views:
    extraction: ExtractionResult = run.value("store")
    return build_views(extraction.store, run.value("inference"))


def _stage_section3(run: PipelineRun) -> Section3Report:
    return assemble_report(run.value("views"), run.value("inference"))


def _stage_correction(run: PipelineRun) -> CorrectionSeries:
    """The Figure-2 sweep over the most visible hybrid links."""
    views: Section3Views = run.value("views")
    inference: CombinedInferenceResult = run.value("inference")
    return run_correction_sweep(
        inference.annotation(AFI.IPV4),
        inference.annotation(AFI.IPV6),
        views.hybrid.hybrid_link_set(),
        views.visibility,
        top=run.config.top,
        max_sources=run.config.max_sources,
    )


# ----------------------------------------------------------------------
# stage declarations
# ----------------------------------------------------------------------
def _scenario_slice(config: PipelineConfig) -> tuple:
    """The dataset fields the scenario stage actually consumes."""
    dataset = config.dataset
    return (
        dataset.seed,
        dataset.strip_communities_fraction,
        dataset.te_override_fraction,
        dataset.ipv6_peering_disputes,
        dataset.gratuitous_leak_fraction,
        dataset.vantage_points,
        dataset.collectors_per_project,
        dataset.exports_local_pref_fraction,
    )


def snapshot_stages() -> List[StageSpec]:
    """The snapshot-building half of the DAG (topology → snapshot)."""
    return [
        StageSpec(
            name="topology",
            version="1",
            dependencies=(),
            compute=_stage_topology,
            config_slice=lambda config: config.dataset.topology,
        ),
        StageSpec(
            name="irr",
            version="1",
            dependencies=("topology",),
            compute=_stage_irr,
            config_slice=lambda config: (
                config.dataset.documented_fraction,
                config.dataset.seed,
            ),
        ),
        StageSpec(
            name="scenario",
            version="1",
            dependencies=("topology", "irr"),
            compute=_stage_scenario,
            config_slice=_scenario_slice,
        ),
        # The engine participates in the fingerprint on purpose —
        # changing it recomputes (and its descendants with it) even
        # though a correct backend produces identical routes, so a
        # cached artifact always states truthfully which engine built it.
        StageSpec(
            name="propagation_v4",
            version="3",
            dependencies=("scenario",),
            compute=_stage_propagation_v4,
            config_slice=lambda config: config.propagation.engine,
        ),
        StageSpec(
            name="propagation_v6",
            version="3",
            dependencies=("scenario",),
            compute=_stage_propagation_v6,
            config_slice=lambda config: config.propagation.engine,
        ),
        StageSpec(
            name="archive",
            version="1",
            dependencies=("scenario", "propagation_v4", "propagation_v6"),
            compute=_stage_archive,
            config_slice=lambda config: config.dataset.snapshot_date,
        ),
        StageSpec(
            name="store",
            version="1",
            dependencies=("archive",),
            compute=_stage_store,
        ),
        StageSpec(
            name="ground_truth",
            version="1",
            dependencies=("scenario",),
            compute=_stage_ground_truth,
        ),
        StageSpec(
            name="snapshot",
            version="1",
            dependencies=(
                "scenario",
                "irr",
                "archive",
                "store",
                "ground_truth",
                "propagation_v4",
                "propagation_v6",
            ),
            compute=_stage_snapshot,
            cacheable=False,
        ),
    ]


def analysis_stages() -> List[StageSpec]:
    """The measurement half of the DAG (store → section3 / correction)."""
    return [
        StageSpec(
            name="inference",
            version="1",
            dependencies=("store", "irr"),
            compute=_stage_inference,
        ),
        StageSpec(
            name="views",
            version="1",
            dependencies=("store", "inference"),
            compute=_stage_views,
        ),
        StageSpec(
            name="section3",
            version="1",
            dependencies=("views", "inference"),
            compute=_stage_section3,
        ),
        StageSpec(
            name="correction",
            version="1",
            dependencies=("views", "inference"),
            compute=_stage_correction,
            config_slice=lambda config: (config.top, config.max_sources),
        ),
    ]


def full_stages() -> List[StageSpec]:
    """The complete DAG: snapshot building plus analysis."""
    return snapshot_stages() + analysis_stages()


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def make_runner(
    cache_dir=None, stages: Optional[Sequence[StageSpec]] = None
) -> PipelineRunner:
    """A runner over the full DAG (or ``stages``), backed by the
    artifact cache in directory ``cache_dir`` when one is given (created
    on demand)."""
    cache = ArtifactCache(cache_dir) if cache_dir is not None else None
    return PipelineRunner(list(stages) if stages is not None else full_stages(), cache)


def run_pipeline(
    config: PipelineConfig,
    cache_dir=None,
    targets: Optional[Sequence[str]] = None,
) -> PipelineRun:
    """Run (part of) the pipeline for one configuration."""
    return make_runner(cache_dir).run(config, targets=targets)


def section3_artifacts(run: PipelineRun) -> Section3Artifacts:
    """Assemble the legacy :class:`Section3Artifacts` facade from a run
    that executed (at least) the ``section3`` target."""
    views: Section3Views = run.value("views")
    return Section3Artifacts(
        report=run.value("section3"),
        inventory=views.inventory,
        inference=run.value("inference"),
        hybrid=views.hybrid,
        visibility=views.visibility,
        valley=views.valley,
    )
