"""Batched propagation: run many independent prefixes, optionally in parallel.

Every prefix propagates independently in this simulator — all speaker
state (Adj-RIB-In entries, Loc-RIB entries, locally originated routes)
is keyed by prefix and the decision process only ever compares routes
for the same prefix.  :class:`PropagationEngine` exploits that: it
splits an origin set into contiguous batches, propagates each batch on
its own backend instance (optionally on a :mod:`concurrent.futures`
executor) and merges the per-prefix state back into one combined
:class:`~repro.bgp.propagation.PropagationResult`.

The engine is also where the pluggable backends of
:mod:`repro.bgp.backends` become a configuration choice: ``engine``
selects ``event`` (the default simulator), ``array`` (interned event
loop), ``equilibrium`` (direct Gao-Rexford fixed point) or ``auto``
(equilibrium when the policies qualify, event otherwise).  Selection
happens once per :meth:`PropagationEngine.run_many` call on the full
origin set and is pinned for every batch, so parallel runs can never
mix backends.  When ``auto`` or ``equilibrium`` falls back to ``event``,
the public :meth:`PropagationEngine.run`/:meth:`~PropagationEngine.run_many`
entry points say so: one ``engine.fallback`` trace counter (attributes
``engine`` and ``reason``) and one line on stderr per call.

Because the batches are disjoint and each batch runs the same
deterministic event loop a serial run would, the merged result is
**bit-identical** to a serial :meth:`PropagationEngine.run` regardless
of the worker count — the determinism test in the golden suite pins
this.  The default (``workers=None`` or ``workers<=1``) does not touch
an executor at all and is exactly today's serial simulator.

Executor choice:

* ``"thread"`` (default) — no pickling, shares the graph; CPython's GIL
  limits the speedup for this pure-Python workload, but the API and the
  batching are in place for free-threaded builds and for workloads that
  release the GIL.
* ``"process"`` — full process parallelism.  On fork platforms (Linux,
  the default everywhere the benchmarks run) the engine — graph and
  policies included — is **shared with the workers through a
  fork-inherited module global**: the parent registers itself in
  :data:`_SHARED_ENGINES` before the pool forks, the children inherit
  the registry through copy-on-write memory, and each task ships only a
  small ``(key, batch)`` pair.  On spawn/forkserver platforms (macOS
  and Windows defaults), where nothing is inherited, the engine is
  pickled **once per worker** through the pool initializer instead of
  once per batch — still far cheaper than the original
  per-task pickling for large topologies.  Batch results cross the
  boundary by pickle in both modes.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import multiprocessing
import os
import sys
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.bgp.backends import BACKENDS, ENGINE_CHOICES, EquilibriumBackend
from repro.telemetry import Tracer, activated, get_tracer
from repro.bgp.policy import RoutingPolicy
from repro.bgp.prefixes import Prefix
from repro.bgp.propagation import PropagationResult, PropagationSimulator
from repro.topology.graph import ASGraph

_EXECUTORS = ("thread", "process")

#: Engines visible to process-pool workers.  On fork platforms the
#: parent's entry is inherited by the children (copy-on-write, no
#: pickling); on spawn platforms :func:`_register_shared_engine` fills
#: it once per worker via the pool initializer.
_SHARED_ENGINES: Dict[int, "PropagationEngine"] = {}

#: Process-unique registration keys (``id()`` could be reused after GC).
_shared_engine_keys = itertools.count()


def _register_shared_engine(key: int, engine: "PropagationEngine") -> None:
    """Pool initializer for spawn platforms: install the engine once."""
    _SHARED_ENGINES[key] = engine


def _run_shared_batch(
    key: int, batch: List[Tuple[Prefix, int]]
) -> PropagationResult:
    """Worker entry point: propagate one batch on the shared engine."""
    return _SHARED_ENGINES[key]._run_batch(batch)


def _start_method() -> str:
    """The multiprocessing start method (isolated for tests)."""
    return multiprocessing.get_start_method(allow_none=False)


class PropagationEngine:
    """Propagate origin sets over one topology, serially or batched."""

    def __init__(
        self,
        graph: ASGraph,
        policies: Optional[Mapping[int, RoutingPolicy]] = None,
        max_events_per_prefix: int = 200_000,
        keep_ribs_for: Optional[Iterable[int]] = None,
        engine: str = "event",
    ) -> None:
        """``engine`` picks the propagation backend (see
        :mod:`repro.bgp.backends`): ``event`` (default), ``array``,
        ``equilibrium`` or ``auto``.  ``equilibrium`` and ``auto`` fall
        back to the event backend when the policies are not vanilla
        Gao-Rexford (:meth:`select_backend` exposes the decision and the
        reason).
        """
        if engine not in ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
            )
        self.graph = graph
        self.policies = dict(policies) if policies is not None else None
        self.max_events_per_prefix = max_events_per_prefix
        self.keep_ribs_for = (
            sorted(keep_ribs_for) if keep_ribs_for is not None else None
        )
        self.engine = engine
        # Concrete backend pinned by run_many() so that every batch —
        # including ones executed in forked/spawned worker processes —
        # uses the backend resolved once on the *full* origin set.
        self._forced_backend: Optional[str] = None
        # Trace context pinned by run_many() so batches executed in
        # pool threads/processes join the caller's span tree (the
        # TelemetryConfig is picklable and travels with the engine).
        self._forced_trace = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_simulator(self) -> PropagationSimulator:
        return PropagationSimulator(
            self.graph,
            self.policies,
            max_events_per_prefix=self.max_events_per_prefix,
            keep_ribs_for=self.keep_ribs_for,
        )

    def select_backend(
        self, origins: Mapping[Prefix, int]
    ) -> Tuple[str, Optional[str]]:
        """Resolve the configured engine to ``(backend name, reason)``.

        ``event`` and ``array`` are unconditional.  ``equilibrium`` and
        ``auto`` resolve to the equilibrium solver only when it is
        applicable to every address family present in ``origins``;
        otherwise they resolve to ``event`` and the reason carries the
        (first) cause of the fallback (``None`` when nothing fell back).
        Pure: reporting a fallback is left to :meth:`run`/:meth:`run_many`.
        """
        if self.engine in ("event", "array"):
            return self.engine, None
        for afi in sorted({prefix.afi for prefix in origins}, key=lambda a: a.value):
            reason = EquilibriumBackend.inapplicable_reason(
                self.graph, self.policies, afi
            )
            if reason is not None:
                return "event", reason
        return "equilibrium", None

    def selection_report(self, origins: Mapping[Prefix, int]) -> Dict[str, object]:
        """Structured backend provenance for one origin set.

        The machine-readable counterpart of :meth:`select_backend`,
        surfaced by ``section3 --json`` so consumers can see which
        backend actually ran without parsing reason strings.
        """
        name, fallback = self.select_backend(origins)
        return {
            "engine": self.engine,
            "backend": name,
            "fallback_reason": fallback,
        }

    def _resolve_and_report(self, origins: Mapping[Prefix, int]) -> str:
        """:meth:`select_backend`, announcing a fallback (counter + stderr)."""
        name, reason = self.select_backend(origins)
        if reason is not None:
            get_tracer().counter("engine.fallback", engine=self.engine, reason=reason)
            print(
                f"[engine] {self.engine} fell back to event: {reason}",
                file=sys.stderr,
            )
        return name

    def _new_backend(self, name: str):
        return BACKENDS[name](
            self.graph,
            self.policies,
            max_events_per_prefix=self.max_events_per_prefix,
            keep_ribs_for=self.keep_ribs_for,
        )

    def _run_on(self, name: str, origins: Mapping[Prefix, int]) -> PropagationResult:
        """Run ``origins`` on a fresh instance of backend ``name``."""
        tracer = get_tracer()
        with tracer.span(
            "propagation",
            backend=name,
            engine=self.engine,
            prefixes=len(origins),
        ) as span:
            with tracer.span("propagation.propagate", backend=name):
                result = self._new_backend(name).run(origins)
            span.annotate(events=result.events)
            return result

    def _run_batch(self, batch: List[Tuple[Prefix, int]]) -> PropagationResult:
        """Propagate one batch of origins on a fresh backend instance.

        Inside run_many() the backend was resolved once on the full
        origin set and pinned in ``_forced_backend`` (the attribute
        travels to worker processes with the engine), so batches can
        never disagree on the backend.

        The pinned trace context (``_forced_trace``) travels the same
        way: a batch running in the caller's process parents its span
        under the ``run_many`` span directly, while a batch in a pool
        worker — fork-inherited or spawn-pickled — opens a fresh child
        tracer from the context and flushes it before returning, so a
        traced ``run_many`` yields one coherent tree either way.
        """
        context = getattr(self, "_forced_trace", None)
        if context is None:
            return self._run_batch_inner(batch)
        tracer = get_tracer()
        if tracer and tracer.pid == os.getpid():
            with tracer.span(
                "propagation.batch",
                parent_id=context.parent_span_id,
                backend=self._forced_backend or self.engine,
                prefixes=len(batch),
            ):
                return self._run_batch_inner(batch)
        # Pool worker process.  A fork-inherited ambient tracer is a
        # copy of the parent's (flushing it would duplicate the
        # parent's buffered records); always emit through a fresh
        # tracer joined to the pinned context instead.
        child = Tracer.from_config(context)
        try:
            with activated(child):
                with child.span(
                    "propagation.batch",
                    backend=self._forced_backend or self.engine,
                    prefixes=len(batch),
                ):
                    return self._run_batch_inner(batch)
        finally:
            child.flush()

    def _run_batch_inner(self, batch: List[Tuple[Prefix, int]]) -> PropagationResult:
        origins = dict(batch)
        name = self._forced_backend or self.select_backend(origins)[0]
        return self._run_on(name, origins)

    @staticmethod
    def _split(
        origins: Mapping[Prefix, int], batches: int
    ) -> List[List[Tuple[Prefix, int]]]:
        """Deterministic contiguous split of the origin items.

        Never returns an empty batch: the batch count is clamped to the
        item count, and any empty slice that would still slip through
        (``batches`` asked for more workers than origins) is dropped so
        no worker spins up a simulator just to propagate nothing.
        """
        items = list(origins.items())
        batches = max(1, min(batches, len(items)))
        size, extra = divmod(len(items), batches)
        result: List[List[Tuple[Prefix, int]]] = []
        start = 0
        for index in range(batches):
            stop = start + size + (1 if index < extra else 0)
            if stop > start:
                result.append(items[start:stop])
            start = stop
        return result

    def _merge(
        self,
        origins: Mapping[Prefix, int],
        partials: List[PropagationResult],
    ) -> PropagationResult:
        """Union the per-prefix state of disjoint batch results."""
        merged = self._new_simulator()
        events = 0
        reachable_counts: Dict[Prefix, int] = {}
        for partial in partials:
            events += partial.events
            reachable_counts.update(partial.reachable_counts)
            for asn, speaker in partial.speakers.items():
                merged.speakers[asn].absorb(speaker)
        # Report counts in the caller's origin order, like a serial run.
        # Every origin must appear in exactly one batch result; a
        # KeyError here means the split/merge invariant broke.
        ordered = {prefix: reachable_counts[prefix] for prefix in origins}
        return PropagationResult(
            speakers=merged.speakers,
            origins=dict(origins),
            events=events,
            reachable_counts=ordered,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, origins: Mapping[Prefix, int]) -> PropagationResult:
        """Serial propagation on the configured backend.

        With the default ``engine="event"`` this is identical to
        ``PropagationSimulator.run``.
        """
        name = self._forced_backend or self._resolve_and_report(origins)
        return self._run_on(name, origins)

    def run_many(
        self,
        origins: Mapping[Prefix, int],
        workers: Optional[int] = None,
        executor: str = "thread",
    ) -> PropagationResult:
        """Propagate ``origins``, batched over ``workers`` simulators.

        ``workers=None``, ``0`` or ``1`` runs serially (no executor, no
        merge — bit-identical to :meth:`run`).  Larger values split the
        origins into ``workers`` contiguous batches and propagate them
        concurrently on the chosen executor; results are merged into a
        single :class:`PropagationResult` that is identical to the
        serial one (prefix propagation is independent by construction).

        ``executor`` selects ``"thread"`` (default; no pickling) or
        ``"process"`` (true parallelism; the graph and policies are
        shared with the workers by fork inheritance — or pickled once
        per worker on spawn platforms — and only the small per-batch
        origin lists and results cross the pickle boundary per task).
        """
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        # Resolve the backend once, on the complete origin set, and pin
        # it for every batch: auto/equilibrium selection looks at the
        # address families present in the origins, and a batch that
        # happens to contain only one AFI must not pick a different
        # backend.
        resolved = self._resolve_and_report(origins)
        tracer = get_tracer()
        with tracer.span(
            "propagation.run_many",
            backend=resolved,
            executor=executor,
            workers=workers or 1,
            prefixes=len(origins),
        ):
            if not workers or workers <= 1 or len(origins) <= 1:
                self._forced_backend = resolved
                try:
                    return self.run(origins)
                finally:
                    self._forced_backend = None
            batches = self._split(origins, workers)
            self._forced_backend = resolved
            # The context's parent is the run_many span just opened, so
            # every batch span — local thread or pool process — joins
            # the tree right here.
            self._forced_trace = tracer.context() if tracer else None
            try:
                if len(batches) <= 1:
                    return self.run(origins)
                if executor == "thread":
                    with concurrent.futures.ThreadPoolExecutor(
                        max_workers=len(batches)
                    ) as pool:
                        partials = list(pool.map(self._run_batch, batches))
                    return self._merge(origins, partials)
                return self._merge(origins, self._run_batches_in_processes(batches))
            finally:
                self._forced_backend = None
                self._forced_trace = None

    def _run_batches_in_processes(
        self, batches: List[List[Tuple[Prefix, int]]]
    ) -> List[PropagationResult]:
        """Propagate batches on a process pool without per-task pickling.

        The engine is exposed to the workers through
        :data:`_SHARED_ENGINES`: registered *before* the pool exists, so
        fork-started workers inherit it for free, and handed to the
        pool initializer as a documented fallback for spawn/forkserver
        platforms (one pickle per worker instead of one per batch).
        Either way each task ships only ``(key, batch)``, and the
        results are bit-identical to a serial run — the golden
        determinism suite pins both code paths.
        """
        key = next(_shared_engine_keys)
        forked = _start_method() == "fork"
        if forked:
            _SHARED_ENGINES[key] = self
            initializer, initargs = None, ()
        else:
            initializer, initargs = _register_shared_engine, (key, self)
        try:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(batches),
                initializer=initializer,
                initargs=initargs,
            ) as pool:
                return list(pool.map(_run_shared_batch, [key] * len(batches), batches))
        finally:
            if forked:
                del _SHARED_ENGINES[key]
