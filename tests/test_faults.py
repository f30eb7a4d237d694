"""The fault-injection layer and the retry policy it exercises.

Unit-level coverage: deterministic plan construction and serialization,
the backend injector's call accounting and fault kinds, the retry
policy's transient/persistent classification and jittered backoff, and
the stage-intercept hook.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cluster.backends import (
    BackendError,
    LocalDirectoryBackend,
    MemoryBackend,
    PersistentBackendError,
    TransientBackendError,
    open_backend,
    spec_path,
)
from repro.cluster.retry import (
    DEFAULT_RETRY_POLICY,
    RetryExhausted,
    RetryingBackend,
    RetryPolicy,
    with_retries,
)
from repro.faults import (
    FAULT_PLAN_SCHEMA_VERSION,
    FaultInjectingBackend,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    intercept_stage,
)
from repro.pipeline.artifacts import ArtifactCache


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec("get", 1, "gremlins")

    def test_call_counts_are_one_based(self):
        with pytest.raises(FaultPlanError, match="1-based"):
            FaultSpec("get", 0, "transient")

    def test_negative_delay_rejected(self):
        with pytest.raises(FaultPlanError, match="non-negative"):
            FaultSpec("get", 1, "delay", delay_seconds=-1.0)

    def test_matching_respects_key_prefix_and_worker_pattern(self):
        spec = FaultSpec(
            "get", 3, "transient", key_prefix="views/", worker_pattern="local-1-"
        )
        assert spec.matches("get", 3, "views/abc.pkl", "local-1-deadbeef")
        assert not spec.matches("get", 2, "views/abc.pkl", "local-1-deadbeef")
        assert not spec.matches("put", 3, "views/abc.pkl", "local-1-deadbeef")
        assert not spec.matches("get", 3, "topology/abc.pkl", "local-1-deadbeef")
        assert not spec.matches("get", 3, "views/abc.pkl", "local-0-deadbeef")
        # Keyless operations only match an empty prefix.
        assert not spec.matches("get", 3, None, "local-1-deadbeef")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultPlanError, match="unknown FaultSpec fields"):
            FaultSpec.from_dict({"operation": "get", "call": 1, "kind": "transient",
                                 "blast_radius": 9000})


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        assert FaultPlan.seeded(7) == FaultPlan.seeded(7)
        assert FaultPlan.seeded(7) != FaultPlan.seeded(8)
        assert FaultPlan.seeded(7).entries  # a 5% storm over 600 calls fires

    def test_seeded_caps_consecutive_raising_faults(self):
        plan = FaultPlan.seeded(3, calls=500, transient_rate=0.5, max_consecutive=2)
        for operation in ("get", "put", "put_if_absent"):
            calls = sorted(
                spec.call
                for spec in plan.entries
                if spec.operation == operation
                and spec.kind in ("transient", "persistent")
            )
            run = 1
            for previous, current in zip(calls, calls[1:]):
                run = run + 1 if current == previous + 1 else 1
                assert run <= 2, f"3+ consecutive {operation} faults at call {current}"

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan.seeded(11, corrupt_rate=0.02, delay_rate=0.02)
        path = tmp_path / "plan.json"
        plan.to_json_file(path)
        loaded = FaultPlan.from_json_file(path)
        assert loaded.entries == plan.entries
        assert loaded.state_key == str(path.resolve())
        raw = json.loads(path.read_text())
        assert raw["schema_version"] == FAULT_PLAN_SCHEMA_VERSION

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(FaultPlanError, match="schema_version"):
            FaultPlan.from_dict({"schema_version": 99, "entries": []})

    def test_entries_must_be_a_list(self):
        with pytest.raises(FaultPlanError, match="entries"):
            FaultPlan.from_dict(
                {"schema_version": FAULT_PLAN_SCHEMA_VERSION, "entries": "nope"}
            )

    def test_missing_plan_file_rejected(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.from_json_file(tmp_path / "absent.json")


def injecting(entries) -> FaultInjectingBackend:
    inner = MemoryBackend()
    inner.put("k", b"payload")
    return FaultInjectingBackend(inner, FaultPlan(tuple(entries)))


class TestFaultInjectingBackend:
    def test_transient_fires_at_exactly_the_scripted_call(self):
        backend = injecting([FaultSpec("get", 3, "transient")])
        assert backend.get("k") == b"payload"  # call 1
        assert backend.get("k") == b"payload"  # call 2
        with pytest.raises(TransientBackendError, match="call #3"):
            backend.get("k")
        assert backend.get("k") == b"payload"  # call 4: the storm has passed
        assert backend.state.injections() == {"transient": 1}

    def test_persistent_fault(self):
        backend = injecting([FaultSpec("put", 1, "persistent")])
        with pytest.raises(PersistentBackendError):
            backend.put("k2", b"x")
        assert backend.inner.get("k2") is None  # the write never happened

    def test_corrupt_flips_get_result(self):
        backend = injecting([FaultSpec("get", 1, "corrupt")])
        corrupted = backend.get("k")
        assert corrupted != b"payload"
        assert corrupted[1:] == b"payload"[1:]  # first byte flipped only
        assert backend.get("k") == b"payload"
        assert backend.state.injections() == {"corrupt": 1}

    def test_corrupt_miss_stays_a_miss(self):
        backend = injecting([FaultSpec("get", 1, "corrupt")])
        assert backend.get("absent") is None
        assert backend.state.injections() == {}  # nothing to corrupt

    def test_delay_stalls_then_proceeds(self):
        backend = injecting([FaultSpec("get", 1, "delay", delay_seconds=0.05)])
        start = time.monotonic()
        assert backend.get("k") == b"payload"
        assert time.monotonic() - start >= 0.04

    def test_key_prefix_targets_one_namespace(self):
        backend = injecting(
            [FaultSpec("get", n, "transient", key_prefix="views/") for n in (1, 2, 3)]
        )
        backend.inner.put("views/a", b"v")
        assert backend.get("k") == b"payload"  # call 1: prefix miss
        with pytest.raises(TransientBackendError):
            backend.get("views/a")  # call 2: prefix hit

    def test_worker_pattern_targets_one_process(self, monkeypatch):
        backend = injecting(
            [FaultSpec("get", n, "transient", worker_pattern="local-0-")
             for n in (1, 2)]
        )
        monkeypatch.setenv("REPRO_WORKER_ID", "local-1-cafe")
        assert backend.get("k") == b"payload"  # wrong worker: no fault
        monkeypatch.setenv("REPRO_WORKER_ID", "local-0-cafe")
        with pytest.raises(TransientBackendError):
            backend.get("k")

    def test_shared_state_spans_instances(self, tmp_path):
        """Two injectors opened from the same plan file advance one
        call counter — how per-task cache rebuilds in a worker see a
        single process-wide sequence."""
        path = tmp_path / "plan.json"
        FaultPlan((FaultSpec("get", 2, "transient"),)).to_json_file(path)
        inner = MemoryBackend()
        inner.put("k", b"payload")
        first = FaultInjectingBackend(inner, FaultPlan.from_json_file(path))
        second = FaultInjectingBackend(inner, FaultPlan.from_json_file(path))
        assert first.get("k") == b"payload"  # call 1 (shared)
        with pytest.raises(TransientBackendError):
            second.get("k")  # call 2, counted across instances

    def test_crash_kills_the_process(self, tmp_path):
        """``crash`` must be un-catchable (an OOM twin), so it runs in a
        scratch subprocess and is judged by the exit code."""
        script = (
            "from repro.cluster.backends import MemoryBackend\n"
            "from repro.faults import FaultInjectingBackend, FaultPlan, FaultSpec\n"
            "backend = FaultInjectingBackend(\n"
            "    MemoryBackend(), FaultPlan((FaultSpec('get', 1, 'crash'),)))\n"
            "try:\n"
            "    backend.get('k')\n"
            "finally:\n"
            "    print('cleanup ran')\n"
        )
        source_root = Path(__file__).resolve().parent.parent / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": str(source_root), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 3
        assert "cleanup ran" not in result.stdout  # no finally, like SIGKILL


class TestFaultSpecGrammar:
    def test_open_backend_builds_the_injector_stack(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        FaultPlan.seeded(5).to_json_file(plan_path)
        cache_dir = tmp_path / "cache"
        backend = open_backend(f"fault://{plan_path}!{cache_dir}")
        assert isinstance(backend, FaultInjectingBackend)
        assert isinstance(backend.inner, LocalDirectoryBackend)
        assert Path(backend.location) == cache_dir
        assert spec_path(f"fault://{plan_path}!{cache_dir}") == cache_dir

    def test_artifact_cache_from_fault_spec_retries_transparently(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        FaultPlan((FaultSpec("put_if_absent", 1, "transient"),)).to_json_file(plan_path)
        cache = ArtifactCache.from_spec(f"fault://{plan_path}!{tmp_path / 'cache'}")
        assert isinstance(cache.backend, RetryingBackend)
        assert isinstance(cache.backend.inner, FaultInjectingBackend)
        record = cache.store("alpha", "f" * 12, {"value": 41}, "1")
        assert cache.load("alpha", "f" * 12)[0] == {"value": 41}
        assert record.payload_sha256
        assert cache.backend.retries >= 1  # the injected fault was absorbed


class TestCorruptionSelfHeals:
    def test_corrupt_payload_reads_as_miss_and_store_overwrites(self, tmp_path):
        """A corrupted payload must never be *served*: hash verification
        turns it into a miss, and the recompute's store replaces it."""
        inner = MemoryBackend()
        storm = FaultPlan(
            tuple(
                FaultSpec("get", call, "corrupt", key_prefix="alpha/")
                for call in range(1, 40)
            )
        )
        cache = ArtifactCache(
            backend=FaultInjectingBackend(inner, storm), retry=False
        )
        cache.store("alpha", "f" * 12, {"value": 41}, "1")
        # Every read of the alpha payload is corrupted: verified miss.
        assert cache.load("alpha", "f" * 12) is None
        assert not cache.contains("alpha", "f" * 12)
        # The store itself was clean — an uninjected cache still verifies.
        clean = ArtifactCache(backend=inner, retry=False)
        assert clean.load("alpha", "f" * 12)[0] == {"value": 41}
        # The recompute path: store() over the "corrupt" entry succeeds.
        record = cache.store("alpha", "f" * 12, {"value": 41}, "1")
        assert record.stage == "alpha"


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientBackendError("flaky"))
        assert policy.is_retryable(BackendError("unknown storage fault"))
        assert not policy.is_retryable(PersistentBackendError("disk full"))
        assert not policy.is_retryable(ValueError("a bug"))
        assert not policy.is_retryable(KeyboardInterrupt())

    def test_backoff_ceiling_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay=0.02, multiplier=4.0, max_delay=1.0)
        assert [policy.backoff_ceiling(i) for i in range(4)] == [
            0.02, pytest.approx(0.08), pytest.approx(0.32), 1.0  # 1.28 capped
        ]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.1)


def flaky_backend(entries, policy, sleeps=None):
    """A retrying stack over a scripted flaky store, with sleeps captured."""
    inner = MemoryBackend()
    inner.put("k", b"payload")
    injector = FaultInjectingBackend(inner, FaultPlan(tuple(entries)))
    recorded = sleeps if sleeps is not None else []
    return RetryingBackend(injector, policy, sleep=recorded.append), recorded


class TestRetryingBackend:
    def test_transient_faults_absorbed_with_bounded_backoff(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.02, multiplier=4.0)
        backend, sleeps = flaky_backend(
            [FaultSpec("get", 1, "transient"), FaultSpec("get", 2, "transient")],
            policy,
        )
        assert backend.get("k") == b"payload"
        assert backend.retries == 2
        assert len(sleeps) == 2
        for index, slept in enumerate(sleeps):
            assert 0.0 <= slept <= policy.backoff_ceiling(index)

    def test_exhaustion_raises_with_full_history(self):
        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        backend, _ = flaky_backend(
            [FaultSpec("get", call, "transient") for call in (1, 2, 3)], policy
        )
        with pytest.raises(RetryExhausted) as excinfo:
            backend.get("k")
        assert excinfo.value.operation == "get"
        assert len(excinfo.value.attempts) == 3
        assert "attempt 1" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, TransientBackendError)

    def test_persistent_fault_fails_fast(self):
        backend, sleeps = flaky_backend(
            [FaultSpec("get", 1, "persistent")], RetryPolicy()
        )
        with pytest.raises(PersistentBackendError):
            backend.get("k")
        assert backend.retries == 0
        assert sleeps == []

    def test_non_backend_errors_propagate_untouched(self):
        backend = RetryingBackend(MemoryBackend(), RetryPolicy())
        with pytest.raises(ValueError):  # invalid key, a caller bug
            backend.put("../escape", b"x")
        assert backend.retries == 0

    def test_jitter_is_deterministic_per_seed(self):
        entries = [FaultSpec("get", call, "transient") for call in (1, 2, 3)]
        policy = RetryPolicy(max_attempts=4, seed=42)
        first, first_sleeps = flaky_backend(entries, policy)
        second, second_sleeps = flaky_backend(entries, policy)
        assert first.get("k") == b"payload"
        assert second.get("k") == b"payload"
        assert first_sleeps == second_sleeps
        assert len(first_sleeps) == 3

    def test_with_retries_is_idempotent(self):
        inner = MemoryBackend()
        wrapped = with_retries(inner)
        assert isinstance(wrapped, RetryingBackend)
        assert wrapped.policy is DEFAULT_RETRY_POLICY
        assert with_retries(wrapped) is wrapped  # no nested retry loops


class TestInterceptStage:
    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError, match="no stage named"):
            intercept_stage("not-a-stage", lambda: None)

    def test_only_the_named_stage_is_rewritten(self):
        from repro.pipeline import full_stages

        original = full_stages()
        calls = []
        rewritten = intercept_stage("views", calls.append)
        assert [s.name for s in rewritten] == [s.name for s in original]
        by_name = {s.name: s for s in rewritten}
        original_by_name = {s.name: s for s in original}
        for name, spec in by_name.items():
            if name == "views":
                assert spec.compute is not original_by_name[name].compute
                # Fingerprint inputs are untouched: same cache identity.
                assert spec.version == original_by_name[name].version
                assert spec.dependencies == original_by_name[name].dependencies
            else:
                assert spec.compute is original_by_name[name].compute
