"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ApproximatorConfig
from repro.experiments import diskcache
from repro.sim.tracesim import Mode, TraceSimulator


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    """Keep tests hermetic: never touch the user's persistent result cache.

    Tests that exercise the disk layer re-enable it by deleting
    ``REPRO_NO_CACHE`` and pointing ``REPRO_CACHE_DIR`` at a tmp_path.
    """
    monkeypatch.setenv(diskcache.NO_CACHE_ENV, "1")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for tests needing randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def baseline_config() -> ApproximatorConfig:
    """The Table II baseline approximator configuration."""
    return ApproximatorConfig()


@pytest.fixture
def lva_sim() -> TraceSimulator:
    """A phase-1 simulator in LVA mode with baseline settings."""
    return TraceSimulator(Mode.LVA)


@pytest.fixture
def precise_sim() -> TraceSimulator:
    """A phase-1 simulator with no technique (precise execution)."""
    return TraceSimulator(Mode.PRECISE)
