"""Fault hook for the pipeline: stalls, crashes, flaky stages.

The backend injector covers storage; :func:`intercept_stage` covers the
*scenario itself* (a stage that hangs or dies mid-flight).  It rewrites
one stage of a stage list so a callable runs *before* its compute — the
single primitive behind simulated stalls (sleep/wait in the callable),
crashes (``os._exit``), and flaky stages (raise).  It builds on the
public ``StageSpec`` replace idiom, so intercepted DAGs stay real DAGs:
fingerprints, caching and resume behave exactly as in production.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence


def intercept_stage(
    name: str,
    before: Callable[[], None],
    stages: Optional[Sequence] = None,
) -> List:
    """A stage list in which ``before()`` runs ahead of ``name``'s
    compute, every time it computes.

    ``stages`` defaults to the full production DAG.  The wrapped spec
    keeps its declared version and config slice, so fingerprints — and
    therefore cache keys and sweep plans — are identical to the
    unintercepted pipeline: a stalled or crashed run resumes against
    the same cache entries a healthy one would have written.
    """
    from repro.pipeline import full_stages

    specs = list(stages) if stages is not None else list(full_stages())
    rewritten: List = []
    found = False
    for spec in specs:
        if spec.name == name:
            found = True
            original = spec.compute

            def compute(run, _original=original):
                before()
                return _original(run)

            spec = dataclasses.replace(spec, compute=compute)
        rewritten.append(spec)
    if not found:
        raise KeyError(f"no stage named {name!r} to intercept")
    return rewritten
