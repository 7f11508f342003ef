"""Bit-equality pin: fault-injected replays against the object reference.

The deterministic ``flip``/``drop`` fault stream must perturb the packed
replay exactly as it perturbed the object reference interpreter, which
is no longer in the tree: each result is compared against
``tests/sim/expected/replay_small.json``, recorded where the object,
packed and vector paths all produced it, for a ``Trace`` input and for
its packed form alike.
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
    capture,
    replay,
)


@pytest.fixture(scope="module")
def traces():
    """Clean captures (fault injection never applies to capture)."""
    return {name: capture(name) for name in FAULT_WORKLOADS}


class TestFaultedPackedPin:
    """flip/drop replays: packed replay == object reference, bit for bit."""

    @pytest.mark.parametrize("spec", FAULT_SPECS)
    @pytest.mark.parametrize("workload", FAULT_WORKLOADS)
    @pytest.mark.parametrize("mode", [MODES[label] for label in FAULT_MODES])
    def test_packed_matches_object_under_faults(
        self, workload, mode, spec, traces, replay_pin, monkeypatch
    ):
        monkeypatch.setenv(INJECT_ENV, spec)
        expected = replay_pin["faults"][spec][workload][mode.value]
        assert replay(traces[workload], mode) == expected
        assert replay(traces[workload], mode, packed=False) == expected

    def test_faults_actually_perturb_the_replay(self, traces, monkeypatch):
        """Guard against vacuous pins: the spec must change the outcome."""
        trace = traces["fluidanimate"]
        clean = replay(trace, Mode.LVA)
        monkeypatch.setenv(INJECT_ENV, "flip:prob=0.5,seed=7")
        assert replay(trace, Mode.LVA) != clean

    def test_storage_faults_leave_the_replay_clean(self, traces, monkeypatch):
        """Storage clauses fold into nothing for replay: a pure storage
        spec replays exactly like no spec at all."""
        trace = traces["fluidanimate"]
        clean = replay(trace, Mode.LVA)
        monkeypatch.setenv(INJECT_ENV, "torn:target=cache;kill:site=journal")
        assert replay(trace, Mode.LVA) == clean
