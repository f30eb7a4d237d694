"""The Figure-2 correction experiment.

Figure 2 of the paper shows how the average shortest valley-free path
length and the diameter of the union of the IPv6 customer trees change
"as we gradually correct the misinferred relationship of the 20 hybrid AS
relationships with the highest visibility in the IPv6 AS paths".

The experiment therefore needs four ingredients:

1. a **misinferred** IPv6 annotation (in the paper, the Oliveira et al.
   inference; here, :func:`plane_agnostic_annotation` — the IPv4 label
   on every dual-stack link — or any annotation the caller provides),
2. a **reference** annotation with the correct relationships (the
   Communities/LocPrf inference, or the ground truth),
3. the list of **hybrid links** to correct, and
4. a **visibility ranking** of those links in the observed IPv6 paths.

:class:`CorrectionExperiment` applies the corrections one link at a time
(in decreasing visibility order, or any other order) and records the
customer-tree metrics after every step, producing the two series plotted
in Figure 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.annotation import ToRAnnotation, ValleyFreeIndex
from repro.core.customer_tree import PathLengthMetrics, valley_free_path_metrics
from repro.core.relationships import AFI, Link
from repro.core.visibility import VisibilityIndex


@dataclass(frozen=True)
class CorrectionStep:
    """The state of the metric after a number of corrections.

    Attributes:
        corrected_links: How many links have been corrected so far.
        link: The link corrected at this step (``None`` for step 0).
        metrics: Customer-tree metrics measured after the correction.
    """

    corrected_links: int
    link: Optional[Link]
    metrics: PathLengthMetrics

    @property
    def average_path_length(self) -> float:
        """Average shortest valley-free path length after this step."""
        return self.metrics.average

    @property
    def diameter(self) -> int:
        """Diameter after this step."""
        return self.metrics.diameter


@dataclass
class CorrectionSeries:
    """The full Figure-2 series.

    Attributes:
        steps: One entry per number of corrected links (0 .. N).
    """

    steps: List[CorrectionStep] = field(default_factory=list)

    @property
    def averages(self) -> List[float]:
        """Average path length series (x = number of corrected links)."""
        return [step.average_path_length for step in self.steps]

    @property
    def diameters(self) -> List[int]:
        """Diameter series (x = number of corrected links)."""
        return [step.diameter for step in self.steps]

    @property
    def initial(self) -> CorrectionStep:
        """The uncorrected starting point."""
        return self.steps[0]

    @property
    def final(self) -> CorrectionStep:
        """The fully corrected end point."""
        return self.steps[-1]

    def improvement(self) -> Dict[str, float]:
        """Relative reduction of both metrics from start to end.

        The reductions are signed: ``(start - end) / start``, so a
        negative value means the metric grew over the sweep.  On the
        paper-scale seed-7 snapshot with ``top=20``, for example, the
        diameter goes from 5 to 8 and ``diameter_reduction`` is -0.6.
        """
        start, end = self.initial, self.final
        average_reduction = (
            (start.average_path_length - end.average_path_length)
            / start.average_path_length
            if start.average_path_length
            else 0.0
        )
        diameter_reduction = (
            (start.diameter - end.diameter) / start.diameter if start.diameter else 0.0
        )
        return {
            "average_start": start.average_path_length,
            "average_end": end.average_path_length,
            "average_reduction": average_reduction,
            "diameter_start": float(start.diameter),
            "diameter_end": float(end.diameter),
            "diameter_reduction": diameter_reduction,
        }


def correction_payload(series: "CorrectionSeries", top: int) -> Dict[str, object]:
    """The one JSON-shaped rendering of a Figure-2 series.

    Shared by ``repro figure2 --json`` and every sweep cell, so the two
    reports stay comparable field-for-field (the sweep tests assert
    cells bit-identical to standalone runs).
    """
    return {
        "top": top,
        "corrected_links": [step.corrected_links for step in series.steps],
        "links": [
            None if step.link is None else [step.link.a, step.link.b]
            for step in series.steps
        ],
        "averages": [step.average_path_length for step in series.steps],
        "diameters": [step.diameter for step in series.steps],
        "improvement": series.improvement(),
    }


def plane_agnostic_annotation(
    ipv6_reference: ToRAnnotation,
    ipv4_annotation: ToRAnnotation,
    links: Optional[Iterable[Link]] = None,
) -> ToRAnnotation:
    """Build the "misinferred" IPv6 annotation the paper starts from.

    The existing ToR algorithms "analyze the IPv4 and IPv6 AS links using
    exactly the same principles" (paper, Section 1): a dual-stack link
    gets a single relationship, which in practice is the IPv4-dominated
    one.  This helper models that artifact: it copies ``ipv6_reference``
    and overwrites every link that also has an IPv4 relationship with the
    IPv4 label.  Hybrid links therefore end up *misinferred* — exactly
    the starting point of Figure 2.

    ``links`` restricts the overwrite (e.g. to the links visible in the
    measured IPv6 topology).
    """
    if ipv6_reference.afi is not AFI.IPV6:
        raise ValueError("ipv6_reference must be an IPv6 annotation")
    if ipv4_annotation.afi is not AFI.IPV4:
        raise ValueError("ipv4_annotation must be an IPv4 annotation")
    result = ipv6_reference.copy()
    candidates = set(links) if links is not None else set(ipv6_reference.links())
    for link in candidates:
        ipv4_relationship = ipv4_annotation.get_canonical(link)
        if ipv4_relationship.is_known and ipv6_reference.get_canonical(link).is_known:
            result.set_canonical(link, ipv4_relationship)
    return result


def run_correction_sweep(
    ipv4_annotation: ToRAnnotation,
    ipv6_annotation: ToRAnnotation,
    hybrid_links: Iterable[Link],
    visibility: VisibilityIndex,
    top: int = 20,
) -> CorrectionSeries:
    """The canonical Figure-2 sweep from a pair of inferred annotations.

    Builds the paper's starting point — the plane-agnostic (misinferred)
    IPv6 annotation — corrects the ``top`` most visible hybrid links
    towards ``ipv6_annotation`` and measures after each step.  The one
    shared implementation behind the pipeline's ``correction`` stage
    and the CLI's ``figure2`` command (both in-memory and
    ``--from-snapshot``), so the sweep cannot drift between entry
    points.
    """
    misinferred = plane_agnostic_annotation(ipv6_annotation, ipv4_annotation)
    experiment = CorrectionExperiment(misinferred, ipv6_annotation)
    return experiment.run_with_visibility(hybrid_links, visibility, top=top)


class CorrectionExperiment:
    """Gradually correct misinferred relationships and track the metrics.

    Args:
        misinferred: The starting (misinferred) IPv6 annotation.  It is
            never mutated; every step works on a copy.
        reference: The annotation holding the correct relationships for
            the links to be corrected.
    """

    def __init__(self, misinferred: ToRAnnotation, reference: ToRAnnotation) -> None:
        if misinferred.afi is not reference.afi:
            raise ValueError("both annotations must describe the same address family")
        self.misinferred = misinferred
        self.reference = reference

    # ------------------------------------------------------------------
    # link selection
    # ------------------------------------------------------------------
    def correctable_links(self, candidate_links: Iterable[Link]) -> List[Link]:
        """Candidates whose relationship actually differs between the annotations.

        Links absent from either annotation, or already agreeing, would
        be no-op corrections and are dropped.
        """
        result = []
        for link in candidate_links:
            mis = self.misinferred.get_canonical(link)
            ref = self.reference.get_canonical(link)
            if not ref.is_known:
                continue
            if mis is ref:
                continue
            result.append(link)
        return sorted(result)

    def rank_by_visibility(
        self, links: Iterable[Link], visibility: VisibilityIndex, top: int = 20
    ) -> List[Link]:
        """The paper's ordering: top-``top`` links by IPv6 path visibility."""
        return visibility.top_links(top, links=self.correctable_links(links))

    # ------------------------------------------------------------------
    # the experiment itself
    # ------------------------------------------------------------------
    def run(self, ordered_links: Sequence[Link]) -> CorrectionSeries:
        """Apply corrections one link at a time and measure after each.

        Step 0 measures the uncorrected annotation; step ``k`` measures
        the annotation with the first ``k`` links of ``ordered_links``
        replaced by their reference relationship.

        The metric is measured over the union of the customer trees of
        every AS, which is every AS of the annotation (each AS is the
        root of its own tree), so no union is built: one
        :class:`ValleyFreeIndex` is relabelled in place per corrected
        link.
        """
        series = CorrectionSeries()
        working = self.misinferred.copy()
        plane = ValleyFreeIndex(working)
        metrics = valley_free_path_metrics(plane, plane.ases)
        series.steps.append(CorrectionStep(corrected_links=0, link=None, metrics=metrics))
        for step, link in enumerate(ordered_links, start=1):
            reference_relationship = self.reference.get_canonical(link)
            if not reference_relationship.is_known:
                raise ValueError(f"reference annotation has no relationship for {link}")
            working.set_canonical(link, reference_relationship)
            if link.a in plane.ids and link.b in plane.ids:
                plane.relabel(link, reference_relationship)
            else:
                # A new AS joins the plane: re-intern in sorted order.
                plane = ValleyFreeIndex(working)
            metrics = valley_free_path_metrics(plane, plane.ases)
            series.steps.append(
                CorrectionStep(corrected_links=step, link=link, metrics=metrics)
            )
        return series

    def run_with_visibility(
        self,
        candidate_links: Iterable[Link],
        visibility: VisibilityIndex,
        top: int = 20,
    ) -> CorrectionSeries:
        """Run the experiment on the top-``top`` most visible candidates."""
        ordered = self.rank_by_visibility(candidate_links, visibility, top=top)
        return self.run(ordered)

    def run_random_order(
        self,
        candidate_links: Iterable[Link],
        count: int = 20,
        seed: int = 0,
    ) -> CorrectionSeries:
        """Control experiment: correct ``count`` random candidates instead.

        The ablation showing that the visibility ranking matters:
        correcting low-visibility links first barely moves the metric
        (checked by ``test_visibility_order_moves_metric_more_than_random_order``
        in ``tests/test_integration_pipeline.py``).
        """
        candidates = self.correctable_links(candidate_links)
        rng = random.Random(seed)
        rng.shuffle(candidates)
        return self.run(candidates[:count])
