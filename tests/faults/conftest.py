"""Shared fixtures for the fault-injection tests."""

from __future__ import annotations

import pytest

from repro import faults
from repro.experiments import common, diskcache


@pytest.fixture(autouse=True)
def _no_stray_injection():
    """No spec leaks into or out of any test in this package."""
    faults.deactivate()
    yield
    faults.deactivate()


@pytest.fixture
def clean_caches(monkeypatch, tmp_path):
    """Disk cache in tmp_path, empty in-memory caches, fresh counters."""
    monkeypatch.delenv(diskcache.NO_CACHE_ENV, raising=False)
    monkeypatch.setenv(diskcache.CACHE_DIR_ENV, str(tmp_path / "cache"))
    monkeypatch.setattr(diskcache, "_DISABLED_OVERRIDE", False)
    monkeypatch.setattr(diskcache, "_ACTIVE", None)
    monkeypatch.setattr(diskcache, "_ACTIVE_DIR", None)
    common.clear_memory_caches()
    yield
    common.clear_memory_caches()


@pytest.fixture
def fresh_memory_caches():
    """Empty in-memory caches only (disk stays disabled by the root conftest)."""
    common.clear_memory_caches()
    yield
    common.clear_memory_caches()
