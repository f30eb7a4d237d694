"""The concrete stage DAG of the reproduction pipeline.

This module decomposes the formerly monolithic
``repro.datasets.synthetic.build_snapshot`` +
``repro.analysis.stats.compute_section3`` chain into declared stages
(see ``docs/architecture.md`` for the full picture; ``[c]`` marks the
stages the artifact cache persists)::

    topology[c] ──┬─> scenario ──┬─> propagation_v4 ─> collection_v4 ──┐
    irr ──────────┘              ├─> propagation_v6 ─> collection_v6 ──┴─> archive ─> store
                                 └─> ground_truth[c]
    snapshot  <──── (assembly of scenario, irr, both propagations,
                     archive, store and ground_truth)

    store + irr ─> inference[c] ─> views[c] ─┬─> section3[c]
                                             └─> correction[c]  (Figure 2)

Each collection stage also reads ``scenario`` (its collectors).  The
propagation results, the per-plane collections, the collector archive
and the extracted store are not persisted.  The runner resolves them
only when ``inference`` or ``views`` misses the cache, and on every
workload that means a new configuration, whose propagation would miss
as well; a version bump of ``inference`` or ``views`` recomputes them
once.  A warm ``repro snapshot`` recomputes them too: the snapshot
assembles them.  The entry points read the one artifact they report:
``repro section3`` reads ``section3`` and ``repro figure2`` reads
``correction``.

``irr`` and ``scenario`` are not persisted either.  ``inference``
reads ``irr`` and the propagation stages read ``scenario``; each runs
only on a configuration whose propagation misses too, so a stored copy
would not be read back.  A run that needs them on a warm cache (an
engine switch, a new ``snapshot_date``, a warm ``repro snapshot``)
loads ``topology`` and rebuilds them.

Nor do intermediates outlive their consumers.  A run with targets releases
each stage once the last of its consumers in the closure has resolved
(see :mod:`repro.pipeline.runner`).  The paper joins the planes only
at the link level, so each plane is collected as soon as it converges:
a cold ``section3`` drops the topology once ``irr`` and ``scenario``
hold what they need, ``propagation_v4`` once ``collection_v4`` holds
its records (before ``propagation_v6`` computes, so the two planes'
routes never share the peak), ``propagation_v6`` and the scenario once
``collection_v6`` does, both collections once the archive joins them,
and the archive once the store is built.  ``build_snapshot`` targets
``snapshot``, which references every artifact it assembles; a run of
every stage (``targets=None``) releases nothing.

Every stage calls exactly the code the monolithic path called, in the
same order; in particular the *scenario* stage owns the single
``random.Random(seed)`` stream the legacy builder threaded through
policy construction, peering disputes, gratuitous leaks, vantage
selection and origin selection, and each plane is propagated and then
collected, IPv4 first — so the staged pipeline is **bit-identical** to
the monolith, whose outputs ``tests/test_pipeline_golden.py`` pins on
two seeds.

Stage *code versions* are declared next to each stage; bump one when
the stage's implementation changes in a result-affecting way, or when a
type a cached stage's payload pickles changes form (an old artifact
then reads as a clean miss instead of a corrupt load).  The bump
invalidates every cached artifact of that stage and its descendants
(fingerprints chain — see :mod:`repro.pipeline.artifacts`); for a stage
that is not cached, only its cached descendants' keys change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.bgp.backends import DEFAULT_ENGINE, ENGINE_CHOICES
from repro.core.relationships import AFI, HybridType, Link
from repro.datasets.config import DatasetConfig
from repro.pipeline.artifacts import ArtifactCache
from repro.pipeline.runner import PipelineRun, PipelineRunner, StageSpec

if TYPE_CHECKING:
    from repro.analysis.paths import ExtractionResult
    from repro.analysis.stats import Section3Report, Section3Views
    from repro.bgp.policy import RoutingPolicy
    from repro.bgp.prefixes import Prefix
    from repro.bgp.results import PropagationResult
    from repro.collectors.archive import CollectorArchive
    from repro.collectors.collector import Collector
    from repro.core.annotation import ToRAnnotation
    from repro.core.combined_inference import CombinedInferenceResult
    from repro.core.correction import CorrectionSeries
    from repro.datasets.synthetic import SyntheticSnapshot
    from repro.irr.registry import IRRRegistry
    from repro.topology.generator import GeneratedTopology

@dataclass(frozen=True)
class PropagationConfig:
    """How the propagation stages compute their results.

    Attributes:
        engine: Propagation backend (see :mod:`repro.bgp.backends`):
            ``array`` (default) or ``event``; any other name raises
            :class:`ValueError`.  Both engines are pinned to produce
            identical routes (the parity suite; event counts differ only
            on the planes ``array`` solves, where it runs none), so
            changing it changes wall time and — deliberately — the
            stage fingerprints: a changed engine is a cache miss, and
            the freshly computed result is still identical.
    """

    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
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
        propagation: Propagation-engine selection (sweepable as the
            ``propagation.engine`` grid axis).
    """

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    top: int = 20
    propagation: PropagationConfig = field(default_factory=PropagationConfig)

    def __post_init__(self) -> None:
        if self.top < 0:
            raise ValueError(f"top must be >= 0, got {self.top}")


# ----------------------------------------------------------------------
# artifact shapes
# ----------------------------------------------------------------------
@dataclass
class ScenarioArtifact:
    """The fully configured measurement scenario.

    ``topology`` is a private copy of the generated topology *after*
    the peering disputes mutated its IPv6 plane — downstream stages (and
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
    from repro.topology.generator import generate_topology

    return generate_topology(run.config.dataset.topology)


def _stage_irr(run: PipelineRun) -> IRRRegistry:
    from repro.irr.registry import build_registry

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

    The disputes mutate the topology, so this stage works on a copy:
    the ``topology`` artifact stays pristine (identical whether it was
    just computed or unpickled from the cache) and the mutated copy
    travels inside the scenario artifact.  The copy is structural
    (:meth:`GeneratedTopology.copy`): it equals a pickle round trip
    table for table at a sixth of its cost.
    """
    from repro.bgp.prefixes import PrefixAllocator
    from repro.collectors.collector import default_collectors
    from repro.datasets.synthetic import (
        _apply_gratuitous_leaks,
        _apply_peering_disputes,
        _build_policies,
        _select_origins,
        _select_vantage_points,
    )

    config = run.config.dataset
    topology: GeneratedTopology = run.value("topology").copy()
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
    from repro.bgp.engine import PropagationEngine

    scenario: ScenarioArtifact = run.value("scenario")
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


def _collect(run: PipelineRun, afi: AFI, propagation: str) -> CollectorArchive:
    """One plane's snapshots: what every collector archives of it."""
    from repro.collectors.archive import CollectorArchive

    date = run.config.dataset.snapshot_date
    scenario: ScenarioArtifact = run.value("scenario")
    result: PropagationResult = run.value(propagation)
    collection = CollectorArchive()
    for collector in scenario.collectors:
        collection.add_collection(collector, date, collector.collect(result, afi=afi))
    return collection


def _stage_collection_v4(run: PipelineRun) -> CollectorArchive:
    return _collect(run, AFI.IPV4, "propagation_v4")


def _stage_collection_v6(run: PipelineRun) -> CollectorArchive:
    return _collect(run, AFI.IPV6, "propagation_v6")


def _stage_archive(run: PipelineRun) -> CollectorArchive:
    """Join the planes' collections: each snapshot holds its IPv4
    records, then its IPv6 records."""
    from repro.collectors.archive import CollectorArchive

    archive = CollectorArchive()
    archive.extend(run.value("collection_v4"))
    archive.extend(run.value("collection_v6"))
    return archive


def _stage_store(run: PipelineRun) -> ExtractionResult:
    from repro.analysis.paths import store_from_records

    return store_from_records(run.value("archive").records())


def _stage_ground_truth(run: PipelineRun) -> GroundTruthArtifact:
    from repro.core.annotation import ToRAnnotation

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
    from repro.datasets.synthetic import SyntheticSnapshot

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
    from repro.analysis.stats import run_inference

    extraction: ExtractionResult = run.value("store")
    return run_inference(extraction.store, run.value("irr"))


def _stage_views(run: PipelineRun) -> Section3Views:
    from repro.analysis.stats import build_views

    extraction: ExtractionResult = run.value("store")
    return build_views(extraction.store, run.value("inference"))


def _stage_section3(run: PipelineRun) -> Section3Report:
    from repro.analysis.stats import assemble_report

    return assemble_report(run.value("views"), run.value("inference"))


def _stage_correction(run: PipelineRun) -> CorrectionSeries:
    """The Figure-2 sweep over the most visible hybrid links."""
    from repro.core.correction import run_correction_sweep

    views: Section3Views = run.value("views")
    inference: CombinedInferenceResult = run.value("inference")
    return run_correction_sweep(
        inference.annotation(AFI.IPV4),
        inference.annotation(AFI.IPV6),
        views.hybrid.hybrid_link_set(),
        views.visibility,
        top=run.config.top,
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


def full_stages() -> List[StageSpec]:
    """The complete DAG: snapshot building (topology → snapshot), then
    analysis (store → section3 / correction)."""
    return [
        StageSpec(
            name="topology",
            version="2",
            dependencies=(),
            compute=_stage_topology,
            config_slice=lambda config: config.dataset.topology,
        ),
        StageSpec(
            name="irr",
            version="2",
            dependencies=("topology",),
            compute=_stage_irr,
            config_slice=lambda config: (
                config.dataset.documented_fraction,
                config.dataset.seed,
            ),
            cacheable=False,
        ),
        StageSpec(
            name="scenario",
            version="2",
            dependencies=("topology", "irr"),
            compute=_stage_scenario,
            config_slice=_scenario_slice,
            cacheable=False,
        ),
        # The engine participates in the fingerprint on purpose —
        # changing it recomputes the descendants even though a correct
        # backend produces identical routes, so a cached artifact always
        # states truthfully which engine built it.
        StageSpec(
            name="propagation_v4",
            version="3",
            dependencies=("scenario",),
            compute=_stage_propagation_v4,
            config_slice=lambda config: config.propagation.engine,
            cacheable=False,
        ),
        StageSpec(
            name="collection_v4",
            version="1",
            dependencies=("scenario", "propagation_v4"),
            compute=_stage_collection_v4,
            config_slice=lambda config: config.dataset.snapshot_date,
            cacheable=False,
        ),
        StageSpec(
            name="propagation_v6",
            version="3",
            dependencies=("scenario",),
            compute=_stage_propagation_v6,
            config_slice=lambda config: config.propagation.engine,
            cacheable=False,
        ),
        StageSpec(
            name="collection_v6",
            version="1",
            dependencies=("scenario", "propagation_v6"),
            compute=_stage_collection_v6,
            config_slice=lambda config: config.dataset.snapshot_date,
            cacheable=False,
        ),
        StageSpec(
            name="archive",
            version="1",
            dependencies=("collection_v4", "collection_v6"),
            compute=_stage_archive,
            cacheable=False,
        ),
        StageSpec(
            name="store",
            version="1",
            dependencies=("archive",),
            compute=_stage_store,
            cacheable=False,
        ),
        StageSpec(
            name="ground_truth",
            version="2",
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
        StageSpec(
            name="inference",
            version="3",
            dependencies=("store", "irr"),
            compute=_stage_inference,
        ),
        StageSpec(
            name="views",
            version="3",
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
            version="3",
            dependencies=("views", "inference"),
            compute=_stage_correction,
            config_slice=lambda config: (config.top,),
        ),
    ]


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

