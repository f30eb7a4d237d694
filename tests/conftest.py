"""Shared fixtures for the test suite.

The expensive fixture — a small but complete synthetic snapshot — is
session-scoped so the integration tests across modules reuse one build.
"""

from __future__ import annotations

import pytest

from repro.datasets.config import small_config
from repro.datasets.synthetic import build_snapshot
from repro.datasets.scenarios import (
    figure1_scenario,
    hybrid_scenario,
    rosetta_scenario,
    valley_scenario,
)


@pytest.fixture(scope="session")
def snapshot():
    """A small end-to-end synthetic snapshot (built once per session)."""
    return build_snapshot(small_config())


@pytest.fixture()
def figure1():
    """The Figure-1 customer-tree scenario."""
    return figure1_scenario()


@pytest.fixture()
def hybrid_topology():
    """The seven-AS topology with one hybrid link."""
    return hybrid_scenario()


@pytest.fixture()
def rosetta():
    """The hand-built Rosetta-Stone calibration scenario."""
    return rosetta_scenario()


@pytest.fixture()
def valley():
    """The peering-dispute valley scenario."""
    return valley_scenario()
