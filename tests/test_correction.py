"""Unit tests for the Figure-2 correction experiment."""

import pytest

from repro.bgp.prefixes import Prefix
from repro.core.annotation import ToRAnnotation
from repro.core.correction import CorrectionExperiment
from repro.core.observations import ObservedRoute
from repro.core.relationships import AFI, Link, Relationship
from repro.core.visibility import build_visibility_index
from repro.core.store import ObservationStore


def build_annotations():
    """A misinferred and a reference annotation differing on two links.

    Reference: 1 is provider of 2 and 3; 2-3 peer; 2-4, 3-5 p2c;
    2-6 peer; misinference turns 2-3 and 2-6 into p2c (the typical
    "peering inferred as transit" artifact).
    """
    reference = ToRAnnotation(AFI.IPV6)
    reference.set(1, 2, Relationship.P2C)
    reference.set(1, 3, Relationship.P2C)
    reference.set(2, 3, Relationship.P2P)
    reference.set(2, 4, Relationship.P2C)
    reference.set(3, 5, Relationship.P2C)
    reference.set(2, 6, Relationship.P2P)
    misinferred = reference.copy()
    misinferred.set(2, 3, Relationship.P2C)
    misinferred.set(2, 6, Relationship.P2C)
    return misinferred, reference


def observations():
    routes = []
    paths = [
        (4, 2, 3, 5),
        (4, 2, 3),
        (5, 3, 2, 4),
        (6, 2, 1),
        (4, 2, 6),
    ]
    for index, path in enumerate(paths):
        routes.append(
            ObservedRoute(
                path=path, prefix=Prefix(f"3fff:{index + 1:x}::/32"), vantage=path[0]
            )
        )
    return routes


class TestCorrectionExperiment:
    def test_correctable_links_filters_agreeing_and_unknown(self):
        misinferred, reference = build_annotations()
        experiment = CorrectionExperiment(misinferred, reference)
        candidates = [Link(2, 3), Link(2, 6), Link(2, 4), Link(7, 8)]
        assert experiment.correctable_links(candidates) == [Link(2, 3), Link(2, 6)]

    def test_afi_mismatch_rejected(self):
        misinferred, reference = build_annotations()
        other = ToRAnnotation(AFI.IPV4)
        with pytest.raises(ValueError):
            CorrectionExperiment(misinferred, other)

    def test_run_produces_monotone_series_on_this_example(self):
        misinferred, reference = build_annotations()
        experiment = CorrectionExperiment(misinferred, reference)
        series = experiment.run([Link(2, 3), Link(2, 6)])
        assert len(series.steps) == 3
        assert series.steps[0].corrected_links == 0
        assert series.steps[0].link is None
        assert series.steps[-1].link == Link(2, 6)
        # Correcting transit-to-peering misinference shrinks the metric.
        assert series.averages[0] >= series.averages[-1]
        assert series.diameters[0] >= series.diameters[-1]

    def test_run_does_not_mutate_inputs(self):
        misinferred, reference = build_annotations()
        experiment = CorrectionExperiment(misinferred, reference)
        experiment.run([Link(2, 3)])
        assert misinferred.get(2, 3) is Relationship.P2C

    def test_run_rejects_unknown_reference_link(self):
        misinferred, reference = build_annotations()
        experiment = CorrectionExperiment(misinferred, reference)
        with pytest.raises(ValueError):
            experiment.run([Link(7, 8)])

    def test_visibility_ranking_orders_links(self):
        misinferred, reference = build_annotations()
        experiment = CorrectionExperiment(misinferred, reference)
        index = build_visibility_index(ObservationStore(observations()), afi=AFI.IPV6)
        ranked = experiment.rank_by_visibility([Link(2, 6), Link(2, 3)], index, top=2)
        # Link 2-3 appears in three paths, link 2-6 in one.
        assert ranked == [Link(2, 3), Link(2, 6)]

    def test_run_with_visibility(self):
        misinferred, reference = build_annotations()
        experiment = CorrectionExperiment(misinferred, reference)
        index = build_visibility_index(ObservationStore(observations()), afi=AFI.IPV6)
        series = experiment.run_with_visibility([Link(2, 3), Link(2, 6)], index, top=1)
        assert len(series.steps) == 2
        assert series.steps[1].link == Link(2, 3)

    def test_random_order_control(self):
        misinferred, reference = build_annotations()
        experiment = CorrectionExperiment(misinferred, reference)
        series = experiment.run_random_order([Link(2, 3), Link(2, 6)], count=2, seed=3)
        assert len(series.steps) == 3
        assert {step.link for step in series.steps[1:]} == {Link(2, 3), Link(2, 6)}

    def test_improvement_summary(self):
        misinferred, reference = build_annotations()
        experiment = CorrectionExperiment(misinferred, reference)
        series = experiment.run([Link(2, 3), Link(2, 6)])
        improvement = series.improvement()
        assert improvement["average_start"] == series.averages[0]
        assert improvement["average_end"] == series.averages[-1]
        assert 0.0 <= improvement["average_reduction"] <= 1.0
        assert improvement["diameter_start"] >= improvement["diameter_end"]
