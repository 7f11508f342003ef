"""Bit-identity pin: fault-injected live phase-1 runs.

The deterministic ``flip``/``drop`` fault stream must perturb a live run
exactly as it did when ``tests/sim/expected/live_configs_small.json`` was
recorded, and storage-only fault clauses must not perturb it at all.
"""

from __future__ import annotations

import pytest

from repro import Mode
from repro.faults.memory import INJECT_ENV
from tests.sim.test_replay_pin import (
    FAULT_MODES,
    FAULT_SPECS,
    FAULT_WORKLOADS,
    MODES,
    live,
    live_pin,  # noqa: F401  (fixture)
)


@pytest.fixture(autouse=True)
def _no_faults(monkeypatch):
    monkeypatch.delenv(INJECT_ENV, raising=False)


class TestFaultedPackedPin:
    """flip/drop live runs match the pin, bit for bit."""

    @pytest.mark.parametrize("spec", FAULT_SPECS)
    @pytest.mark.parametrize("workload", FAULT_WORKLOADS)
    @pytest.mark.parametrize("mode", [MODES[label] for label in FAULT_MODES])
    def test_packed_matches_object_under_faults(
        self, workload, mode, spec, live_pin, monkeypatch
    ):
        monkeypatch.setenv(INJECT_ENV, spec)
        expected = live_pin["faults"][spec][workload][mode.value]
        assert live(workload, mode) == expected

    def test_faults_actually_perturb_the_replay(self, monkeypatch):
        """Guard against vacuous pins: the spec must change the outcome."""
        clean = live("fluidanimate", Mode.LVA)
        monkeypatch.setenv(INJECT_ENV, "flip:prob=0.5,seed=7")
        assert live("fluidanimate", Mode.LVA) != clean

    def test_storage_faults_leave_the_replay_clean(self, monkeypatch):
        """Storage clauses fold into nothing for the simulator: a pure
        storage spec runs exactly like no spec at all."""
        clean = live("fluidanimate", Mode.LVA)
        monkeypatch.setenv(INJECT_ENV, "torn:target=cache;kill:site=journal")
        assert live("fluidanimate", Mode.LVA) == clean
