"""Traces persist through the trace store without loss.

The trace store (:mod:`repro.experiments.tracestore`) is the one on-disk
trace format: it holds the packed columns that phase-2 replays read.
"""

import pytest

from repro.experiments import tracestore
from repro.sim.trace import LoadEvent, Trace


def sample_trace():
    return Trace([
        LoadEvent(tid=0, pc=0x400, addr=0x1000, value=3.25, is_float=True,
                  approximable=True, gap=12),
        LoadEvent(tid=1, pc=0x404, addr=0x2000, value=-7, is_float=False,
                  approximable=False, gap=0),
        LoadEvent(tid=3, pc=0x408, addr=0x3000, value=2**40, is_float=False,
                  approximable=True, gap=999),
    ])


@pytest.fixture
def round_trip(tmp_path):
    """Put a trace into a fresh store and read it back as a Trace."""
    store = tracestore.TraceStore(directory=tmp_path / "traces")
    counter = iter(range(10**6))

    def put_get(trace: Trace) -> Trace:
        key = f"{next(counter):064d}"
        store.put(key, trace.pack())
        return store.get(key).to_trace()

    return put_get


class TestRoundTrip:
    def test_events_identical_after_roundtrip(self, round_trip):
        original = sample_trace()
        assert round_trip(original).events == original.events

    def test_value_types_preserved(self, round_trip):
        restored = round_trip(sample_trace())
        assert isinstance(restored.events[0].value, float)
        assert isinstance(restored.events[1].value, int)

    def test_large_int_values_exact(self, round_trip):
        assert round_trip(sample_trace()).events[2].value == 2**40

    def test_total_instructions_preserved(self, round_trip):
        original = sample_trace()
        assert round_trip(original).total_instructions == original.total_instructions

    def test_workload_trace_roundtrip(self, round_trip):
        """A real captured trace replays identically after persistence."""
        from repro import FullSystemConfig, FullSystemSimulator, Mode, TraceRecorder, TraceSimulator, get_workload

        recorder = TraceRecorder()
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        get_workload("swaptions", small=True).execute(sim, 3)
        sim.finish()

        restored = round_trip(recorder.trace)

        a = FullSystemSimulator(FullSystemConfig()).run(recorder.trace)
        b = FullSystemSimulator(FullSystemConfig()).run(restored)
        assert a.cycles == b.cycles
        assert a.raw_misses == b.raw_misses
