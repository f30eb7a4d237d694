"""The science claims over drawn ``--small`` worlds, not three seeds.

Each example draws a ``--small`` snapshot configuration: a seed and the
five knobs that shape the evidence (IRR documentation, community
stripping, traffic-engineering overrides, gratuitous leaks, LOCAL_PREF
export).  Over every drawn world:

* every label the inference gives equals the ground truth, in both
  planes.  The generator has no source of wrong evidence (IRR
  dictionaries and community tags are truthful), so precision 1.0 is a
  property of the data model, and a wrong mapping anywhere in the
  chain from community value to relationship breaks it;
* every Section-3 count lies within its definitional bounds;
* the ``array`` and ``event`` engines give the same ``section3`` JSON.
  A ``--small`` world costs ``event`` about four times what the whole
  ``array`` pipeline costs, so this property draws fewer worlds.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relationships import AFI
from repro.datasets.config import small_config
from repro.pipeline import PipelineConfig, PropagationConfig, run_pipeline

fractions = st.floats(0.0, 1.0)


@st.composite
def worlds(draw) -> PipelineConfig:
    dataset = dataclasses.replace(
        small_config(seed=draw(st.integers(0, 2**20))),
        documented_fraction=draw(fractions),
        strip_communities_fraction=draw(fractions),
        te_override_fraction=draw(fractions),
        gratuitous_leak_fraction=draw(st.floats(0.0, 0.3)),
        exports_local_pref_fraction=draw(fractions),
    )
    return PipelineConfig(dataset=dataset)


def section3_json(config: PipelineConfig) -> str:
    report = run_pipeline(config, targets=("section3",)).value("section3")
    return json.dumps(report.as_dict(), sort_keys=True)


def assert_within_bounds(report: dict) -> None:
    """The definitional bounds of the Section-3 counts."""
    assert 0 <= report["ipv6_links_with_relationship"] <= report["ipv6_links"]
    assert 0 <= report["hybrid_links"] <= report["dual_stack_links_with_relationship"]
    assert report["dual_stack_links_with_relationship"] <= report["dual_stack_links"]
    assert report["dual_stack_links"] <= min(report["ipv4_links"], report["ipv6_links"])
    assert 0 <= report["paths_crossing_hybrid"] <= report["ipv6_paths"]
    assert 0 <= report["reachability_valley_paths"] <= report["valley_paths"]
    assert report["valley_paths"] <= report["ipv6_paths"]
    if not report["hybrid_links"]:
        assert report["paths_crossing_hybrid"] == 0
    for ratio, part, whole in (
        ("ipv6_coverage", "ipv6_links_with_relationship", "ipv6_links"),
        ("dual_stack_coverage", "dual_stack_links_with_relationship", "dual_stack_links"),
        ("hybrid_fraction", "hybrid_links", "dual_stack_links_with_relationship"),
        ("fraction_paths_crossing_hybrid", "paths_crossing_hybrid", "ipv6_paths"),
        ("valley_fraction", "valley_paths", "ipv6_paths"),
        ("reachability_valley_fraction", "reachability_valley_paths", "valley_paths"),
    ):
        expected = report[part] / report[whole] if report[whole] else 0.0
        assert report[ratio] == expected, ratio
    shares = [
        report[name]
        for name in (
            "hybrid_share_peer4_transit6",
            "hybrid_share_peer6_transit4",
            "hybrid_share_transit_reversed",
        )
    ]
    assert all(0.0 <= share <= 1.0 for share in shares)
    assert sum(shares) <= 1.0 + 1e-9
    if not report["hybrid_links"]:
        assert sum(shares) == 0.0


@settings(max_examples=100, deadline=None)
@given(config=worlds())
def test_labels_are_ground_truth_and_counts_within_bounds(config):
    run = run_pipeline(config, targets=("section3", "inference", "ground_truth"))
    inference = run.value("inference")
    truth = run.value("ground_truth").annotations
    for afi in (AFI.IPV4, AFI.IPV6):
        inferred = inference.annotation(afi)
        for link in inferred.links():
            assert inferred.get_canonical(link) == truth[afi].get_canonical(link), (
                afi,
                link,
            )
    assert_within_bounds(run.value("section3").as_dict())


@settings(max_examples=20, deadline=None)
@given(config=worlds())
def test_array_and_event_give_the_same_section3(config):
    event = dataclasses.replace(config, propagation=PropagationConfig(engine="event"))
    assert section3_json(config) == section3_json(event)
