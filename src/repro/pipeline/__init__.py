"""Staged artifact pipeline: cacheable, resumable end-to-end runs.

The package decomposes the end-to-end reproduction (synthetic snapshot
building + Section-3 measurement + Figure-2 correction) into declared
stages with fingerprinted inputs and serializable outputs:

* :mod:`repro.pipeline.artifacts` — fingerprinting and the on-disk
  artifact cache (hash-verified payloads),
* :mod:`repro.pipeline.runner` — the generic stage-DAG runner,
* :mod:`repro.pipeline.stages` — the concrete DAG of this repository.

See ``docs/architecture.md`` for the stage DAG, artifact formats,
fingerprinting rules and cache layout.
"""

from repro.pipeline.artifacts import (
    ArtifactCache,
    ArtifactRecord,
    CacheEntry,
    CacheStats,
    PruneReport,
    config_token,
    fingerprint,
)
from repro.pipeline.runner import (
    PipelineRun,
    PipelineRunner,
    StageFailure,
    StageSpec,
)
from repro.pipeline.stages import (
    GroundTruthArtifact,
    PipelineConfig,
    PropagationConfig,
    ScenarioArtifact,
    full_stages,
    make_runner,
    run_pipeline,
)

__all__ = [
    "ArtifactCache",
    "ArtifactRecord",
    "CacheEntry",
    "CacheStats",
    "PruneReport",
    "config_token",
    "fingerprint",
    "PipelineRun",
    "PipelineRunner",
    "StageFailure",
    "StageSpec",
    "GroundTruthArtifact",
    "PipelineConfig",
    "PropagationConfig",
    "ScenarioArtifact",
    "full_stages",
    "make_runner",
    "run_pipeline",
]
