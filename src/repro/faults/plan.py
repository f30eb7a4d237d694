"""Deterministic fault plans: *which* call fails, *how*, decided up front.

Chaos testing is only worth having when a failing run can be replayed:
a fault plan is a frozen list of :class:`FaultSpec` entries — "the 17th
``get`` raises a transient error", "the 40th ``put`` stalls 5 s in
worker ``local-1``" — fixed before the run starts.  Randomness enters
exactly once, in :meth:`FaultPlan.seeded`, and is spent at *plan
construction*; execution consults the finished plan and nothing else,
so the same plan against the same workload injects the same faults in
the same places, every time.

Plans serialize to JSON (``schema_version``, sorted keys) so a chaos CI
job can commit its storm, and a ``fault://PLAN.json!INNER`` cache spec
(see :func:`repro.cluster.backends.open_backend`) threads a plan
through every component that already passes cache specs around —
sweep executors, pool processes — without any of them growing a
chaos-testing parameter.

Call counts are kept **per process** in a module-level registry keyed
by the plan's ``state_key`` (the JSON file path): one worker process
executes many tasks, each of which builds its own ``ArtifactCache``
over a fresh backend instance, and a per-instance counter would reset
at every task boundary — making "the 40th call" unreachable and, worse,
re-triggering early faults on every retry of the same task.
"""

from __future__ import annotations

import dataclasses
import json
import random
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.telemetry import get_tracer

#: Bump when the plan JSON schema changes incompatibly.
FAULT_PLAN_SCHEMA_VERSION = 1

#: The injectable fault kinds.
FAULT_KINDS = ("transient", "persistent", "corrupt", "delay", "crash")

#: Environment variable carrying the executing process's identity —
#: set it so plan entries can target one process of a pool
#: (``worker_pattern``), which is what makes "exactly one worker
#: crashes" deterministic instead of a race.
WORKER_ID_ENV = "REPRO_WORKER_ID"


class FaultPlanError(ValueError):
    """A malformed fault plan (unknown kind, bad JSON, missing file)."""


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One scripted fault.

    Attributes:
        operation: The intercepted operation name (a backend method like
            ``"get"``/``"put"``/``"put_if_absent"``).
        call: 1-based count of that operation *in this process* at
            which the fault fires.
        kind: ``"transient"`` / ``"persistent"`` (raise the matching
            :class:`~repro.cluster.backends.BackendError` subclass),
            ``"corrupt"`` (bit-flip the bytes a ``get`` returns),
            ``"delay"`` (sleep ``delay_seconds`` first, then proceed —
            also the way to script a *stall* longer than a watchdog
            timeout), ``"crash"`` (``os._exit``: the process dies with
            no cleanup, exactly like SIGKILL/OOM).
        delay_seconds: Sleep for ``"delay"`` faults.
        key_prefix: Only fire when the operation's key starts with
            this (empty = any key; operations without a key only match
            an empty prefix).
        worker_pattern: Only fire in processes whose ``REPRO_WORKER_ID``
            contains this substring (empty = any process).
    """

    operation: str
    call: int
    kind: str
    delay_seconds: float = 0.0
    key_prefix: str = ""
    worker_pattern: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.call < 1:
            raise FaultPlanError(f"fault call counts are 1-based, got {self.call}")
        if self.kind == "delay" and self.delay_seconds < 0:
            raise FaultPlanError("delay_seconds must be non-negative")

    def matches(self, operation: str, call: int, key: Optional[str], worker: str) -> bool:
        if self.operation != operation or self.call != call:
            return False
        if self.key_prefix and not (key or "").startswith(self.key_prefix):
            return False
        if self.worker_pattern and self.worker_pattern not in worker:
            return False
        return True

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultSpec":
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(f"unknown FaultSpec fields: {sorted(unknown)}")
        try:
            return cls(**data)  # type: ignore[arg-type]
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault entry {data!r}: {exc}") from exc


class FaultState:
    """Per-process mutable execution state of one plan: operation call
    counters plus per-kind injection tallies (for assertions)."""

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self.calls: Dict[str, int] = {}
        self.injected: Dict[str, int] = {}

    def next_call(self, operation: str) -> int:
        with self._mutex:
            self.calls[operation] = self.calls.get(operation, 0) + 1
            return self.calls[operation]

    def count_injection(self, kind: str) -> None:
        with self._mutex:
            self.injected[kind] = self.injected.get(kind, 0) + 1
        tracer = get_tracer()
        if tracer:
            tracer.counter("fault.injected", kind=kind)

    def injections(self) -> Dict[str, int]:
        with self._mutex:
            return dict(self.injected)


#: state_key -> shared FaultState (per process).
_STATE_REGISTRY: Dict[str, FaultState] = {}
_STATE_REGISTRY_LOCK = threading.Lock()


def shared_state(state_key: str) -> FaultState:
    """The process-wide :class:`FaultState` for one plan identity."""
    with _STATE_REGISTRY_LOCK:
        state = _STATE_REGISTRY.get(state_key)
        if state is None:
            state = _STATE_REGISTRY[state_key] = FaultState()
        return state


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered collection of scripted faults.

    ``state_key`` names the per-process shared call-count state (see
    module docs); ``None`` means every injector instance counts
    privately — right for single-cache unit tests, wrong for workers
    that rebuild their cache per task.
    """

    entries: Tuple[FaultSpec, ...] = ()
    state_key: Optional[str] = None

    def matching(
        self, operation: str, call: int, key: Optional[str], worker: str
    ) -> List[FaultSpec]:
        return [
            spec for spec in self.entries if spec.matches(operation, call, key, worker)
        ]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def seeded(
        cls,
        seed: int,
        operations: Sequence[str] = ("get", "put", "put_if_absent"),
        calls: int = 200,
        transient_rate: float = 0.05,
        corrupt_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_seconds: float = 0.005,
        max_consecutive: int = 2,
    ) -> "FaultPlan":
        """A reproducible random storm: per operation, each of the first
        ``calls`` calls independently faults at the given rates.

        ``max_consecutive`` caps runs of *raising* faults on one
        operation so a storm stays below the retry policy's attempt
        budget — retried calls advance the same counter, so ``k``
        consecutive entries need ``k + 1`` attempts to clear.  Without
        the cap a dense storm would not be testing retries, it would be
        testing retry exhaustion (which gets its own scripted plans).
        The RNG is consumed in one deterministic pass: same arguments,
        same plan, forever.
        """
        rng = random.Random(seed)
        entries: List[FaultSpec] = []
        for operation in operations:
            consecutive = 0
            for call in range(1, calls + 1):
                roll = rng.random()
                if roll < transient_rate:
                    if consecutive < max_consecutive:
                        entries.append(FaultSpec(operation, call, "transient"))
                        consecutive += 1
                    else:
                        # Cap reached: the roll is swallowed whole — it
                        # must not fall through into the corrupt/delay
                        # buckets below.
                        consecutive = 0
                    continue
                consecutive = 0
                if roll < transient_rate + corrupt_rate and operation == "get":
                    entries.append(FaultSpec(operation, call, "corrupt"))
                elif roll < transient_rate + corrupt_rate + delay_rate:
                    entries.append(
                        FaultSpec(operation, call, "delay", delay_seconds=delay_seconds)
                    )
        return cls(tuple(entries))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": FAULT_PLAN_SCHEMA_VERSION,
            "entries": [spec.to_dict() for spec in self.entries],
        }

    def to_json_file(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
        )

    @classmethod
    def from_dict(
        cls, data: Dict[str, object], state_key: Optional[str] = None
    ) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault plan must be a JSON object, got {type(data)}")
        version = data.get("schema_version")
        if version != FAULT_PLAN_SCHEMA_VERSION:
            raise FaultPlanError(
                f"unsupported fault plan schema_version {version!r} "
                f"(expected {FAULT_PLAN_SCHEMA_VERSION})"
            )
        raw_entries = data.get("entries")
        if not isinstance(raw_entries, list):
            raise FaultPlanError("fault plan 'entries' must be a list")
        return cls(
            tuple(FaultSpec.from_dict(entry) for entry in raw_entries),
            state_key=state_key,
        )

    @classmethod
    def from_json_file(cls, path: Union[str, Path]) -> "FaultPlan":
        """Load a plan; its shared-state key is the resolved file path,
        so every injector opened from the same plan file in one process
        shares one call-count sequence."""
        path = Path(path)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data, state_key=str(path.resolve()))
