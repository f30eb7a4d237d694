"""Run one ``repro`` CLI command with per-layer clocks around each layer.

Usage::

    PYTHONPATH=src python3 perfbench/traced_op.py OUT.json -- <repro args>

The benchmark's traced run spawns this script instead of
``python -m repro``.  Before the CLI runs, it wraps the public entry
points of each layer of the program from the outside -- nothing under
``src/`` changes:

* every pipeline stage's ``compute`` (wrapped as the runner is built),
  mapped onto the layer that owns it (``STAGE_LAYERS``);
* ``ArtifactCache.verify`` / ``load`` / ``store``;
* ``repro.sweep.plan_sweep``;
* ``PropagationEngine.run``, only to record which backend ran and why.

Each wrapper measures its **self time**: its wall time minus the time
of the wrapped calls nested inside it, so a stage that triggers a cache
load is not charged for the load.  Self times therefore partition the
wrapped time, and ``layer_total_s`` is their sum.  Whatever is left of
the op's wall time (interpreter start, imports, argument parsing,
report writing) is the benchmark's ``process.unattributed_s``.

Garbage-collector pauses are timed through ``gc.callbacks``.  They
overlap the layers (a pause is charged to whatever layer was running),
so they are reported beside the partition, not inside it.

On exit the script writes the clocks to ``OUT.json`` and exits with the
CLI's return code.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Pipeline stage -> the per-layer metric its compute time counts as.
STAGE_LAYERS = {
    "topology": "topology.s",
    "compress": "topology.s",
    "irr": "irr.s",
    "scenario": "scenario.s",
    "ground_truth": "scenario.s",
    "snapshot": "scenario.s",
    "propagation_v4": "bgp.v4_s",
    "propagation_v6": "bgp.v6_s",
    "archive": "collectors.s",
    "store": "store.s",
    "inference": "inference.s",
    "views": "views.s",
    "section3": "section3.s",
    "correction": "correction.s",
}

#: Stage -> (count metric, how to read the count off the stage's result).
STAGE_COUNTS = {
    "propagation_v4": ("bgp.events", lambda result: result.events),
    "propagation_v6": ("bgp.events", lambda result: result.events),
    "archive": ("collectors.records", lambda result: result.record_count()),
    "store": ("store.observations", lambda result: result.stats.observations),
    "correction": ("correction.steps", lambda result: len(result.steps)),
}


class LayerClock:
    """Self-time accounting for nested wrapped calls (one thread)."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.layer_total_s = 0.0
        self.engines: List[Dict[str, object]] = []
        self.gc_s = 0.0
        self.gc_collections = 0
        self._child_s: List[float] = []  # per open call: time of nested calls
        self._stages: List[str] = []
        self._gc_started: Optional[float] = None

    def timed(self, layer: str, fn: Callable, on_result: Optional[Callable] = None):
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                nested = self._child_s.pop()
                self.self_s[layer] += elapsed - nested
                if self._child_s:
                    self._child_s[-1] += elapsed
                else:
                    self.layer_total_s += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def stage(self, spec):
        """``spec`` with its compute wrapped in this clock."""
        layer = STAGE_LAYERS.get(spec.name, f"stage.{spec.name}")
        counted = STAGE_COUNTS.get(spec.name)
        timed = self.timed(
            layer,
            spec.compute,
            None
            if counted is None
            else lambda result: self.count(counted[0], counted[1](result)),
        )

        def compute(run):
            self._stages.append(spec.name)
            try:
                return timed(run)
            finally:
                self._stages.pop()

        return dataclasses.replace(spec, compute=compute)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def current_stage(self) -> Optional[str]:
        return self._stages[-1] if self._stages else None

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "layer_total_s": self.layer_total_s,
            "engines": self.engines,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }


def install(clock: LayerClock) -> None:
    """Wrap each layer's entry points in ``clock`` (process-wide)."""
    import repro.sweep
    from repro.bgp.engine import PropagationEngine
    from repro.pipeline.artifacts import ArtifactCache
    from repro.pipeline.runner import PipelineRunner

    runner_init = PipelineRunner.__init__

    def init(self, stages, cache=None):
        runner_init(self, [clock.stage(spec) for spec in stages], cache)

    PipelineRunner.__init__ = init

    def verified(record) -> None:
        clock.count("cache.verify_calls")
        if record is not None:
            clock.count("cache.verify_hits")
            clock.count("cache.bytes_read", record.size_bytes)

    def loaded(result) -> None:
        if result is not None:
            clock.count("cache.bytes_read", result[1].size_bytes)

    def stored(record) -> None:
        clock.count("cache.bytes_written", record.size_bytes)

    ArtifactCache.verify = clock.timed("cache.verify_s", ArtifactCache.verify, verified)
    ArtifactCache.load = clock.timed("cache.load_s", ArtifactCache.load, loaded)
    ArtifactCache.store = clock.timed("cache.store_s", ArtifactCache.store, stored)

    def planned(plan) -> None:
        clock.count("sweep.total_invocations", plan.total_stage_invocations())
        clock.count("sweep.distinct_invocations", plan.distinct_stage_invocations())

    repro.sweep.plan_sweep = clock.timed("sweep.plan_s", repro.sweep.plan_sweep, planned)

    engine_run = PropagationEngine.run

    def run(self, origins):
        result = engine_run(self, origins)
        clock.engines.append(
            dict(self.selection_report(origins), stage=clock.current_stage())
        )
        return result

    PropagationEngine.run = run
    gc.callbacks.append(clock.on_gc)


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_op.py OUT.json -- <repro args>", file=sys.stderr)
        return 2
    out, repro_args = argv[0], argv[2:]
    clock = LayerClock()
    install(clock)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(clock.as_dict(), handle, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
