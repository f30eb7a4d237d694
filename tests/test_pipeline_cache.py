"""Cache-correctness suite: fingerprints, invalidation and corruption.

Pins the contract of :mod:`repro.pipeline.artifacts` and the stage
fingerprinting rules: a changed seed / config field / stage code
version invalidates exactly the stages downstream of the change, and a
corrupted or truncated artifact is detected by its payload hash and
recomputed rather than loaded.  It also pins the demand-driven runner:
a run verifies a cached stage only when a consumer that missed needs
it, resolves the stages it skipped when something reads them, and
releases each intermediate once its last consumer has resolved.
"""

from __future__ import annotations

import dataclasses
import json
import weakref
from collections import Counter

import pytest

from repro.core.correction import correction_payload
from repro.datasets.config import DatasetConfig
from repro.pipeline import (
    ArtifactCache,
    PipelineConfig,
    PipelineRunner,
    config_token,
    fingerprint,
    full_stages,
    make_runner,
    run_pipeline,
)
from repro.pipeline.artifacts import CACHE_LAYOUT_VERSION
from repro.telemetry.analyze import root_accounting
from repro.telemetry.tracer import Tracer, activated
from repro.topology.config import TopologyConfig

ALL_ANALYSIS_TARGETS = ("section3", "correction")
#: Every stage in the closure of the analysis targets, in execution order.
ANALYSIS_CLOSURE = [
    "topology",
    "irr",
    "scenario",
    "propagation_v4",
    "collection_v4",
    "propagation_v6",
    "collection_v6",
    "archive",
    "store",
    "inference",
    "views",
    "section3",
    "correction",
]


def tiny_config(seed: int = 5, **overrides) -> PipelineConfig:
    dataset = DatasetConfig(
        topology=TopologyConfig(
            seed=seed, tier1_count=3, tier2_count=8, tier3_count=20
        ),
        seed=seed,
        vantage_points=4,
        **overrides,
    )
    return PipelineConfig(dataset=dataset, top=3)


@pytest.fixture()
def warm_cache(tmp_path):
    """A cache populated by one cold run of the tiny configuration."""
    config = tiny_config()
    run_pipeline(config, cache_dir=tmp_path, targets=ALL_ANALYSIS_TARGETS)
    return tmp_path, config


class TestWarmRuns:
    def test_second_run_is_fully_cached(self, warm_cache):
        cache_dir, config = warm_cache
        warm = run_pipeline(config, cache_dir=cache_dir, targets=ALL_ANALYSIS_TARGETS)
        assert warm.computed_stages() == []
        # Both targets hit, so nothing upstream of them is even verified.
        assert warm.cached_stages() == list(ALL_ANALYSIS_TARGETS)
        # The cached artifacts yield the same reports as a fresh computation.
        fresh = run_pipeline(config, targets=ALL_ANALYSIS_TARGETS)
        assert warm.value("section3").as_dict() == fresh.value("section3").as_dict()
        assert correction_payload(warm.value("correction"), config.top) == (
            correction_payload(fresh.value("correction"), config.top)
        )

    def test_figure2_after_section3_reuses_all_shared_stages(self, tmp_path):
        config = tiny_config()
        run_pipeline(config, cache_dir=tmp_path, targets=("section3",))
        figure2 = run_pipeline(config, cache_dir=tmp_path, targets=("correction",))
        assert figure2.computed_stages() == ["correction"]

    def test_uncached_runner_always_computes(self):
        config = tiny_config()
        run = run_pipeline(config, targets=("section3",))
        assert run.cached_stages() == []
        assert "section3" in run.computed_stages()

    def test_topology_artifact_pristine_cold_and_warm(self, warm_cache):
        """The scenario stage mutates a deep copy: the `topology`
        artifact must be identical whether computed or unpickled."""
        from repro.core.relationships import AFI

        cache_dir, config = warm_cache
        cold = run_pipeline(config, targets=("scenario",))
        warm = run_pipeline(config, cache_dir=cache_dir, targets=("scenario",))
        cold_links = {
            link: cold.value("topology").graph.relationship(link.a, link.b, AFI.IPV6)
            for link in cold.value("topology").graph.links()
        }
        warm_links = {
            link: warm.value("topology").graph.relationship(link.a, link.b, AFI.IPV6)
            for link in warm.value("topology").graph.links()
        }
        assert cold_links == warm_links
        # And the scenario's own copy differs where disputes removed links.
        scenario = cold.value("scenario")
        for link in scenario.dispute_links:
            assert not scenario.topology.graph.relationship(
                link.a, link.b, AFI.IPV6
            ).is_known
            assert cold_links[link].is_known


def changed_stages(config, changed):
    """The closure stages whose fingerprint differs between two configs."""
    runner = PipelineRunner(full_stages())
    before = runner.fingerprints(config, ALL_ANALYSIS_TARGETS)
    after = runner.fingerprints(changed, ALL_ANALYSIS_TARGETS)
    return {stage for stage in before if before[stage] != after[stage]}


class TestInvalidation:
    def _statuses(self, cache_dir, config):
        run = run_pipeline(config, cache_dir=cache_dir, targets=ALL_ANALYSIS_TARGETS)
        return run.statuses

    def test_changed_dataset_seed_keeps_topology(self, warm_cache):
        """dataset.seed feeds irr+scenario but not the topology stage
        (the topology has its own seed), so exactly topology stays warm."""
        cache_dir, config = warm_cache
        changed = PipelineConfig(
            dataset=dataclasses.replace(config.dataset, seed=config.dataset.seed + 1),
            top=config.top,
        )
        statuses = self._statuses(cache_dir, changed)
        assert statuses["topology"] == "cached"
        for stage in ANALYSIS_CLOSURE[1:]:
            assert statuses[stage] == "computed", stage

    def test_changed_topology_seed_invalidates_everything(self, warm_cache):
        cache_dir, config = warm_cache
        changed_topology = dataclasses.replace(
            config.dataset.topology, seed=config.dataset.topology.seed + 1
        )
        changed = PipelineConfig(
            dataset=dataclasses.replace(config.dataset, topology=changed_topology),
            top=config.top,
        )
        statuses = self._statuses(cache_dir, changed)
        assert all(status == "computed" for status in statuses.values())

    def test_changed_correction_budget_invalidates_only_correction(self, warm_cache):
        cache_dir, config = warm_cache
        changed = PipelineConfig(
            dataset=config.dataset, top=config.top + 1
        )
        assert changed_stages(config, changed) == {"correction"}
        # The miss demands correction's inputs, which hit and end the walk.
        assert self._statuses(cache_dir, changed) == {
            "inference": "cached",
            "views": "cached",
            "section3": "cached",
            "correction": "computed",
        }

    def test_changed_snapshot_date_invalidates_archive_and_downstream(self, warm_cache):
        import datetime

        cache_dir, config = warm_cache
        changed = PipelineConfig(
            dataset=dataclasses.replace(
                config.dataset, snapshot_date=datetime.date(2010, 8, 21)
            ),
            top=config.top,
        )
        downstream = ["collection_v4", "collection_v6"] + ANALYSIS_CLOSURE[
            ANALYSIS_CLOSURE.index("archive"):
        ]
        assert changed_stages(config, changed) == set(downstream)
        statuses = self._statuses(cache_dir, changed)
        for stage in downstream:
            assert statuses[stage] == "computed", stage
        # The collections read the propagation results and the
        # scenario, which are not persisted: they recompute from the
        # cached topology.
        assert statuses["propagation_v4"] == statuses["propagation_v6"] == "computed"
        assert statuses["scenario"] == statuses["irr"] == "computed"
        assert statuses["topology"] == "cached"

    def test_bumped_stage_version_invalidates_stage_and_descendants(self, warm_cache):
        cache_dir, config = warm_cache
        stages = [
            dataclasses.replace(spec, version=spec.version + ".bumped")
            if spec.name == "inference"
            else spec
            for spec in full_stages()
        ]
        bumped = PipelineRunner(stages).fingerprints(config, ALL_ANALYSIS_TARGETS)
        original = PipelineRunner(full_stages()).fingerprints(
            config, ALL_ANALYSIS_TARGETS
        )
        from_inference = ANALYSIS_CLOSURE[ANALYSIS_CLOSURE.index("inference"):]
        assert {s for s in bumped if bumped[s] != original[s]} == set(from_inference)

        run = PipelineRunner(stages, ArtifactCache(cache_dir)).run(
            config, targets=ALL_ANALYSIS_TARGETS
        )
        statuses = run.statuses
        # The uncached store chain recomputes from the cached topology.
        assert run.computed_stages() == [
            "irr",
            "scenario",
            "propagation_v4",
            "collection_v4",
            "propagation_v6",
            "collection_v6",
            "archive",
            "store",
            "inference",
            "views",
            "section3",
            "correction",
        ]
        assert statuses["topology"] == "cached"
        cold = run_pipeline(config, targets=ALL_ANALYSIS_TARGETS)
        assert run.value("section3").as_dict() == cold.value("section3").as_dict()
        assert correction_payload(run.value("correction"), config.top) == (
            correction_payload(cold.value("correction"), config.top)
        )


def corrupt_loads(records):
    """Per stage, the ``cache.load`` spans whose ``outcome`` is
    ``corrupt`` (present artifacts that failed verification)."""
    return Counter(
        record["attrs"]["stage"]
        for record in records
        if record["name"] == "cache.load" and record["attrs"]["outcome"] == "corrupt"
    )


def traced_section3(config, cache_dir):
    """Run the ``section3`` closure and read back its report, ``views``
    and ``inference`` under an in-memory tracer; returns the run and
    its corrupt loads per stage."""
    tracer = Tracer(None)
    with activated(tracer):
        run = run_pipeline(config, cache_dir=cache_dir, targets=("section3",))
        for name in ("section3", "views", "inference"):
            run.value(name)
    return run, corrupt_loads(tracer.records())


class TestCorruptionDetection:
    def _payload_path(self, cache_dir, config, stage):
        runner = make_runner(cache_dir)
        run = runner.run(config, targets=ALL_ANALYSIS_TARGETS)
        return runner.cache.payload_path(stage, run.fingerprints[stage])

    def test_truncated_payload_is_recomputed(self, warm_cache):
        cache_dir, config = warm_cache
        payload = self._payload_path(cache_dir, config, "section3")
        payload.write_bytes(payload.read_bytes()[: len(payload.read_bytes()) // 2])
        run, corrupt = traced_section3(config, cache_dir)
        assert run.computed_stages() == ["section3"]
        assert corrupt == {"section3": 1}
        # Its inputs still verify: their artifacts were not touched.
        assert run.status_of("views") == run.status_of("inference") == "cached"
        # The recompute repaired the cache in place.
        repaired, corrupt = traced_section3(config, cache_dir)
        assert repaired.computed_stages() == []
        assert corrupt == {}

    def test_bitflipped_payload_is_recomputed(self, warm_cache):
        cache_dir, config = warm_cache
        payload = self._payload_path(cache_dir, config, "inference")
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0xFF
        payload.write_bytes(bytes(data))
        run, corrupt = traced_section3(config, cache_dir)
        # section3 hits; the lazy read of inference finds the flip.
        assert run.status_of("section3") == "cached"
        assert run.status_of("inference") == "computed"
        assert corrupt == {"inference": 1}

    def test_unreadable_metadata_is_a_miss(self, warm_cache):
        cache_dir, config = warm_cache
        runner = make_runner(cache_dir)
        run = runner.run(config, targets=("section3",))
        meta = runner.cache.meta_path("views", run.fingerprints["views"])
        meta.write_text("{not json", encoding="utf-8")
        rerun, corrupt = traced_section3(config, cache_dir)
        assert rerun.status_of("views") == "computed"
        assert corrupt == {"views": 1}

    def test_corrupted_and_recomputed_results_match_clean_run(self, warm_cache):
        cache_dir, config = warm_cache
        clean = run_pipeline(config, targets=("section3",))
        payload = self._payload_path(cache_dir, config, "views")
        payload.write_bytes(b"garbage")
        run = run_pipeline(config, cache_dir=cache_dir, targets=("section3",))
        recovered = run.value("views")
        run.value("inference")
        assert run.status_of("views") == "computed"
        assert run.value("section3").as_dict() == clean.value("section3").as_dict()
        assert recovered.hybrid.hybrid_link_set() == (
            clean.value("views").hybrid.hybrid_link_set()
        )
        assert recovered.inventory.summary() == clean.value("views").inventory.summary()

    def test_unloadable_verified_payload_is_recomputed_under_a_span(self, warm_cache):
        """A payload whose sidecar hash matches but which fails to
        unpickle is counted corrupt, recomputed under one ``stage`` span,
        and the stage keeps one status entry."""
        import hashlib

        cache_dir, config = warm_cache
        clean = run_pipeline(config, targets=("section3",)).value("section3")
        cache = ArtifactCache(cache_dir)
        fingerprint = make_runner().fingerprints(config)["section3"]
        bogus = b"not a pickle"
        cache.payload_path("section3", fingerprint).write_bytes(bogus)
        meta_path = cache.meta_path("section3", fingerprint)
        meta = json.loads(meta_path.read_text())
        meta["payload_sha256"] = hashlib.sha256(bogus).hexdigest()
        meta_path.write_text(json.dumps(meta))
        assert cache.contains("section3", fingerprint)
        tracer = Tracer(None)
        with activated(tracer):
            run = run_pipeline(config, cache_dir=cache_dir, targets=("section3",))
        assert run.value("section3").as_dict() == clean.as_dict()
        assert run.statuses == {
            "inference": "cached",
            "views": "cached",
            "section3": "computed",
        }
        records = tracer.records()
        assert corrupt_loads(records) == {"section3": 1}
        section3_spans = [
            r["attrs"]["status"]
            for r in records
            if r["kind"] == "span" and r["name"] == "stage"
            and r["attrs"]["stage"] == "section3"
        ]
        assert section3_spans == ["computed"]


class CountingCache(ArtifactCache):
    """An artifact cache that records the stages it loads and the
    payload files it reads."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.loaded = []
        self.payload_reads = Counter()
        self.payload_bytes = 0

    def load(self, stage, fingerprint):
        self.loaded.append(stage)
        return super().load(stage, fingerprint)

    def _read(self, key):
        data = super()._read(key)
        if data is not None and key.endswith(self.PAYLOAD_SUFFIX):
            self.payload_reads[key.split("/", 1)[0]] += 1
            self.payload_bytes += len(data)
        return data


def flip_payload(cache_dir, config, stage):
    """Bit-flip the middle byte of one stage's cached payload."""
    runner = make_runner(cache_dir)
    path = runner.cache.payload_path(stage, runner.fingerprints(config)[stage])
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def traced_figure2(config, cache_dir):
    """A ``correction`` run under an in-memory tracer: its payload and
    its corrupt loads per stage."""
    tracer = Tracer(None)
    with activated(tracer):
        run = run_pipeline(config, cache_dir=cache_dir, targets=("correction",))
    payload = correction_payload(run.value("correction"), config.top)
    return run, payload, corrupt_loads(tracer.records())


@pytest.fixture()
def section3_cache(tmp_path):
    """A cache filled by one cold ``section3`` run of the tiny config."""
    config = tiny_config()
    run_pipeline(config, cache_dir=tmp_path, targets=("section3",))
    return tmp_path, config


class TestDemandDriven:
    def test_warm_figure2_verifies_only_what_it_reads(self, section3_cache):
        cache_dir, config = section3_cache
        cache = CountingCache(cache_dir)
        run = PipelineRunner(full_stages(), cache).run(config, targets=("correction",))
        assert sorted(cache.loaded) == ["correction", "inference", "views"]
        assert run.computed_stages() == ["correction"]
        assert run.cached_stages() == ["inference", "views"]
        # Everything upstream of the two hits was neither loaded nor run.
        untouched = set(run.fingerprints) - set(run.statuses)
        assert untouched == set(ANALYSIS_CLOSURE[: ANALYSIS_CLOSURE.index("inference")])

    def test_corrupt_unread_ancestor_is_not_touched(self, section3_cache):
        cache_dir, config = section3_cache
        _, cold, _ = traced_figure2(config, None)
        flip_payload(cache_dir, config, "topology")
        run, payload, corrupt = traced_figure2(config, cache_dir)
        assert corrupt == {}
        assert run.computed_stages() == ["correction"]
        assert payload == cold

    def test_corrupt_read_stage_heals(self, section3_cache):
        cache_dir, config = section3_cache
        _, cold, _ = traced_figure2(config, None)
        flip_payload(cache_dir, config, "views")
        run, payload, corrupt = traced_figure2(config, cache_dir)
        assert corrupt == {"views": 1}
        assert run.computed_stages() == [
            "irr",
            "scenario",
            "propagation_v4",
            "collection_v4",
            "propagation_v6",
            "collection_v6",
            "archive",
            "store",
            "views",
            "correction",
        ]
        assert run.status_of("topology") == run.status_of("inference") == "cached"
        assert payload == cold
        # The recompute stored a good artifact back.
        rerun, payload, corrupt = traced_figure2(config, cache_dir)
        assert rerun.computed_stages() == [] and corrupt == {}
        assert payload == cold

    def test_warm_section3_resolves_scenario_lazily(self, section3_cache):
        from repro.cli import _selection_provenance

        cache_dir, config = section3_cache
        cold = run_pipeline(config, targets=("scenario",)).value("scenario")
        cache = CountingCache(cache_dir)
        run = PipelineRunner(full_stages(), cache).run(config, targets=("section3",))
        assert cache.loaded == ["section3"]
        # Reading the report and its two inputs loads each once; the
        # provenance block needs no artifact.
        for name in ("section3", "views", "inference"):
            run.value(name)
        _selection_provenance(config)
        assert sorted(cache.loaded) == ["inference", "section3", "views"]
        # The scenario is rebuilt from the cached topology.
        scenario = run.value("scenario")
        assert cache.loaded[-1] == "topology"
        assert run.status_of("topology") == "cached"
        assert run.computed_stages() == ["irr", "scenario"]
        assert scenario.origins == cold.origins
        assert scenario.vantage_asns == cold.vantage_asns

    def test_warm_hits_read_each_payload_once(self, warm_cache):
        """A warm ``section3`` reads its report's payload once, and a warm
        ``correction`` with a new ``top`` reads ``views`` and
        ``inference`` once each: a hit is verified and unpickled from
        one read."""
        cache_dir, config = warm_cache
        section3 = CountingCache(cache_dir)
        run = PipelineRunner(full_stages(), section3).run(config, targets=("section3",))
        run.value("section3")
        assert section3.payload_reads == {"section3": 1}
        (fingerprint,) = section3.entries()["section3"]
        assert section3.payload_bytes == (
            section3.payload_path("section3", fingerprint).stat().st_size
        )

        retopped = dataclasses.replace(config, top=config.top + 1)
        correction = CountingCache(cache_dir)
        run = PipelineRunner(full_stages(), correction).run(
            retopped, targets=("correction",)
        )
        run.value("correction")
        assert run.computed_stages() == ["correction"]
        assert correction.payload_reads == {"views": 1, "inference": 1}

    def test_skipped_uncached_stage_is_computed_on_read(self, section3_cache):
        cache_dir, config = section3_cache
        run = run_pipeline(config, cache_dir=cache_dir, targets=("section3",))
        cold = run_pipeline(config, targets=("store",))
        store = run.value("store")
        assert run.status_of("store") == "computed"
        assert store.stats == cold.value("store").stats
        with pytest.raises(KeyError):
            run.value("correction")

    def test_stages_computed_on_read_are_traced(self, section3_cache):
        """Reading a skipped stage after the run opens one ``stage`` span
        per stage it computes, and leaves none of that time outside a
        stage."""
        cache_dir, config = section3_cache
        tracer = Tracer(None)
        with activated(tracer):
            run = run_pipeline(config, cache_dir=cache_dir, targets=("section3",))
            ran = len(tracer.records())
            run.value("store")
        read = tracer.records()[ran:]
        computed = [
            r["attrs"]["stage"]
            for r in read
            if r["kind"] == "span" and r["name"] == "stage"
            and r["attrs"]["status"] == "computed"
        ]
        assert computed == [
            "irr",
            "scenario",
            "propagation_v4",
            "collection_v4",
            "propagation_v6",
            "collection_v6",
            "archive",
            "store",
        ]
        assert run.computed_stages() == computed
        assert run.status_of("topology") == "cached"
        root_seconds, unattributed = root_accounting(read)
        assert root_seconds > 0
        assert unattributed == 0.0


def recording_stages(refs):
    """``full_stages()`` whose computes leave a weak reference to each
    value they return in ``refs`` (stage name -> ``weakref.ref``)."""

    def recording(spec):
        def compute(run):
            value = spec.compute(run)
            refs[spec.name] = weakref.ref(value)
            return value

        return dataclasses.replace(spec, compute=compute)

    return [recording(spec) for spec in full_stages()]


def loc_ribs(result):
    """Every speaker's Loc-RIB routes, in insertion order."""
    return {asn: speaker.loc_rib.routes() for asn, speaker in result.speakers.items()}


class TestRelease:
    """A run with targets drops each intermediate once the last of its
    consumers in the closure has resolved, and reads it back on demand."""

    def test_cold_section3_frees_propagation_and_archive(self):
        refs = {}
        run = PipelineRunner(recording_stages(refs)).run(
            tiny_config(), targets=("section3",)
        )
        for name in (
            "propagation_v4",
            "collection_v4",
            "propagation_v6",
            "collection_v6",
            "archive",
        ):
            assert refs[name]() is None, name
        assert run.released == [
            "topology",
            "propagation_v4",
            "scenario",
            "propagation_v6",
            "collection_v4",
            "collection_v6",
            "archive",
            "irr",
            "store",
        ]
        # Once the target has resolved nothing is left to compute: the
        # inputs of ``section3`` are kept, not freed just before exit.
        for name in ("views", "inference"):
            assert refs[name]() is not None, name
        # The target is held: reading it computes nothing.
        assert run.value("section3") is refs["section3"]()
        assert run.computed_stages() == ANALYSIS_CLOSURE[:-1]

    def test_cold_section3_frees_ipv4_routes_before_ipv6_propagates(self):
        """The planes meet only at the link level, so IPv4 is collected
        and its routes freed before the IPv6 plane computes: the two
        planes' routes never share the peak."""
        refs = {}
        alive = {}

        def checked(spec):
            def compute(run):
                alive["propagation_v4"] = refs["propagation_v4"]() is not None
                return spec.compute(run)

            return dataclasses.replace(spec, compute=compute)

        stages = [
            checked(spec) if spec.name == "propagation_v6" else spec
            for spec in recording_stages(refs)
        ]
        PipelineRunner(stages).run(tiny_config(), targets=("section3",))
        assert alive == {"propagation_v4": False}

    def test_released_stages_read_back(self, tmp_path):
        config = tiny_config()
        run = run_pipeline(config, cache_dir=tmp_path, targets=("section3",))
        assert {"scenario", "propagation_v4"} <= set(run.released)
        tracer = Tracer(None)
        with activated(tracer):
            propagation = run.value("propagation_v4")
        statuses = [
            (r["attrs"]["stage"], r["attrs"]["status"])
            for r in tracer.records()
            if r["kind"] == "span" and r["name"] == "stage"
        ]
        # The cached topology is one read; the scenario (and the irr
        # it reads) and the propagation recompute.
        assert statuses == [
            ("topology", "cached"),
            ("irr", "computed"),
            ("scenario", "computed"),
            ("propagation_v4", "computed"),
        ]
        assert run.status_of("scenario") == "computed"
        fresh = run_pipeline(config, targets=("propagation_v4",)).value("propagation_v4")
        assert loc_ribs(propagation) == loc_ribs(fresh)
        assert propagation.reachable_counts == fresh.reachable_counts
        # What a read resolved again stays resolved.
        assert run.value("propagation_v4") is propagation

    def test_a_run_of_every_stage_releases_nothing(self):
        refs = {}
        run = PipelineRunner(recording_stages(refs)).run(tiny_config())
        assert run.released == []
        assert all(ref() is not None for ref in refs.values())

    def test_a_consumer_that_hit_the_cache_counts_as_resolved(self, section3_cache):
        cache_dir, config = section3_cache
        cache = ArtifactCache(cache_dir)
        fingerprints = make_runner().fingerprints(config)
        for stage in ("inference", "section3"):
            cache.payload_path(stage, fingerprints[stage]).unlink()
        run = run_pipeline(config, cache_dir=cache_dir, targets=("section3",))
        assert run.status_of("inference") == "computed"
        assert run.status_of("views") == "cached"
        # ``views`` hit, so ``inference`` was the store's last consumer.
        assert "store" in run.released


class TestCachedArtifactShape:
    """Cached artifacts hold the results their consumers read, not the
    evidence they were computed from."""

    def test_inference_and_views_hold_no_evidence(self, tmp_path, capsys):
        from repro.cli import main
        from repro.core.visibility import VisibilityIndex

        assert main(["section3", "--small", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        cache = ArtifactCache(tmp_path)
        (fingerprint,) = cache.entries()["inference"]
        payload = cache.payload_path("inference", fingerprint).read_bytes()
        assert b"RelationshipVote" not in payload
        assert [field.name for field in dataclasses.fields(VisibilityIndex)] == [
            "afi",
            "path_count",
            "link_paths",
        ]


class TestWhatIsCached:
    """Only artifacts some run reads back are persisted: ``irr`` and
    ``scenario`` are rebuilt from the cached ``topology`` instead."""

    def test_cold_section3_stores_only_what_runs_read_back(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry.analyze import read_trace

        trace_dir = tmp_path / "trace"
        assert main([
            "section3", "--small", "--cache-dir", str(tmp_path / "cache"),
            "--trace-dir", str(trace_dir),
        ]) == 0
        capsys.readouterr()
        stored = sorted(
            record["attrs"]["stage"]
            for record in read_trace(trace_dir)
            if record["kind"] == "span" and record["name"] == "cache.store"
        )
        assert stored == ["inference", "section3", "topology", "views"]
        entries = ArtifactCache(tmp_path / "cache").entries()
        assert {stage: len(found) for stage, found in entries.items()} == {
            "topology": 1,
            "inference": 1,
            "views": 1,
            "section3": 1,
        }

    def test_engine_switch_rebuilds_scenario_from_cached_topology(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.telemetry.analyze import read_trace

        cache_dir = str(tmp_path / "cache")
        assert main(["section3", "--small", "--cache-dir", cache_dir]) == 0
        warm_json = tmp_path / "warm.json"
        cold_json = tmp_path / "cold.json"
        assert main([
            "section3", "--small", "--engine", "event", "--cache-dir", cache_dir,
            "--trace-dir", str(tmp_path / "trace"), "--json", str(warm_json),
        ]) == 0
        assert main([
            "section3", "--small", "--engine", "event", "--json", str(cold_json),
        ]) == 0
        capsys.readouterr()
        statuses = {
            r["attrs"]["stage"]: r["attrs"]["status"]
            for r in read_trace(tmp_path / "trace")
            if r["kind"] == "span" and r["name"] == "stage"
        }
        assert statuses["topology"] == "cached"
        assert statuses["irr"] == statuses["scenario"] == "computed"
        assert statuses["propagation_v4"] == statuses["propagation_v6"] == "computed"

        def strip(path):
            payload = json.loads(path.read_text())
            payload.pop("provenance")
            return payload

        assert strip(warm_json) == strip(cold_json)


class TestArtifactCacheUnit:
    def test_store_load_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        record = cache.store("stage", "f" * 64, {"value": [1, 2, 3]}, code_version="1")
        loaded = cache.load("stage", "f" * 64)
        assert loaded is not None
        value, meta = loaded
        assert value == {"value": [1, 2, 3]}
        assert meta.payload_sha256 == record.payload_sha256
        assert cache.entries() == {"stage": ["f" * 64]}

    def test_digests_are_hashlib_sha256(self, tmp_path):
        """The cache hashes with the interpreter's built-in SHA-256, not
        ``hashlib``'s OpenSSL one; the digests must be the same bytes, or
        every cache an older build filled would read as misses."""
        import hashlib

        parts = (f"layout:{CACHE_LAYOUT_VERSION}", "views", "3", "token", "a" * 64, "b" * 64)
        expected = hashlib.sha256(b"".join(part.encode() + b"\x00" for part in parts))
        assert fingerprint("views", "3", "token", ["a" * 64, "b" * 64]) == expected.hexdigest()
        cache = ArtifactCache(tmp_path)
        record = cache.store("stage", "c" * 64, {"value": list(range(1000))}, code_version="1")
        payload = cache.payload_path("stage", "c" * 64).read_bytes()
        assert record.payload_sha256 == hashlib.sha256(payload).hexdigest()
        assert cache.verify("stage", "c" * 64) == record

    def test_missing_artifact_is_none(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.load("stage", "0" * 64) is None
        assert not cache.contains("stage", "0" * 64)

    def test_unpicklable_but_hash_valid_payload_is_a_miss(self, tmp_path):
        import hashlib

        cache = ArtifactCache(tmp_path)
        cache.store("stage", "a" * 64, 123, code_version="1")
        # Replace the payload with bytes whose hash matches the sidecar
        # but which do not unpickle.
        bogus = b"not a pickle"
        payload_path = cache.payload_path("stage", "a" * 64)
        meta_path = cache.meta_path("stage", "a" * 64)
        meta = json.loads(meta_path.read_text())
        meta["payload_sha256"] = hashlib.sha256(bogus).hexdigest()
        payload_path.write_bytes(bogus)
        meta_path.write_text(json.dumps(meta))
        assert cache.contains("stage", "a" * 64)  # hash verifies ...
        tracer = Tracer(None)
        with activated(tracer):
            assert cache.load("stage", "a" * 64) is None  # ... but the load refuses
        assert corrupt_loads(tracer.records()) == {"stage": 1}


class TestConfigToken:
    def test_token_is_stable_and_discriminating(self):
        a = tiny_config(seed=5)
        b = tiny_config(seed=5)
        assert config_token(a) == config_token(b)
        assert config_token(a) != config_token(tiny_config(seed=6))

    def test_token_covers_nested_fields(self):
        base = tiny_config()
        changed = PipelineConfig(
            dataset=dataclasses.replace(base.dataset, documented_fraction=0.5),
            top=base.top,
        )
        assert config_token(base) != config_token(changed)

    def test_unsupported_type_is_loud(self):
        with pytest.raises(TypeError):
            config_token(object())
