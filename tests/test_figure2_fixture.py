"""Figure-2 series pinned against a committed canonical-JSON fixture.

``tests/fixtures/figure2_small.json`` holds the full correction series
(corrected link, ``repr`` of the average, diameter and reachable pairs
of every step) of the ``--small`` preset for seeds 1, 2 and 7,
``top=20``.  Any change to the sweep, the valley-free BFS or the metric
that moves a single number fails here.

Regenerate (only on purpose, and say why in CHANGES.md)::

    PYTHONPATH=src python tests/test_figure2_fixture.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

import pytest

from repro.core.correction import run_correction_sweep
from repro.core.relationships import AFI
from repro.datasets.config import small_config
from repro.pipeline import PipelineConfig, run_pipeline

FIXTURE = Path(__file__).parent / "fixtures" / "figure2_small.json"
SEEDS = (1, 2, 7)
TOP = 20


def seed_series(seed: int) -> List[dict]:
    """The pinned series of one ``--small`` seed."""
    run = run_pipeline(
        PipelineConfig(dataset=small_config(seed=seed)), targets=("views", "inference")
    )
    views, inference = run.value("views"), run.value("inference")
    series = run_correction_sweep(
        inference.annotation(AFI.IPV4),
        inference.annotation(AFI.IPV6),
        views.hybrid.hybrid_link_set(),
        views.visibility,
        top=TOP,
    )
    return [
        {
            "link": None if step.link is None else [step.link.a, step.link.b],
            "average": repr(step.metrics.average),
            "diameter": step.metrics.diameter,
            "reachable_pairs": step.metrics.reachable_pairs,
        }
        for step in series.steps
    ]


def canonical(payload: object) -> str:
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("seed", SEEDS)
def test_figure2_series_matches_fixture(seed: int) -> None:
    expected = json.loads(FIXTURE.read_text())[str(seed)]
    assert seed_series(seed) == expected


def test_fixture_is_canonical() -> None:
    text = FIXTURE.read_text()
    assert canonical(json.loads(text)) == text


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(canonical({str(seed): seed_series(seed) for seed in SEEDS}))
    print(f"wrote {FIXTURE}")
