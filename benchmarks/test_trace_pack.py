"""Microbenchmarks of the columnar trace engine.

The workload trace is captured ONCE at module scope (capture is the
expensive step the trace store exists to amortise); the benchmarks then
time the packed-path primitives in isolation: pack/unpack conversion,
trace-store round-trips, and replay throughput through both the phase-1
and phase-2 simulators.
"""

import numpy as np
import pytest

from repro.core.config import ApproximatorConfig
from repro.experiments import tracestore
from repro.fullsystem import FullSystemConfig, FullSystemSimulator
from repro.sim.trace import LoadEvent, Trace
from repro.sim.tracesim import Mode, TraceSimulator


def _synthetic_trace(n: int = 8192) -> Trace:
    rng = np.random.default_rng(7)
    return Trace(
        [
            LoadEvent(
                tid=i % 4,
                pc=0x400 + 4 * (i % 64),
                addr=int(rng.integers(0, 1 << 20)) & ~63,
                value=float(rng.normal(50, 5)) if i % 2 else int(rng.integers(0, 1 << 30)),
                is_float=bool(i % 2),
                approximable=bool(i % 3),
                gap=int(rng.integers(0, 12)),
                is_store=(i % 17 == 0),
            )
            for i in range(n)
        ]
    )


@pytest.fixture(scope="module")
def captured():
    """One real workload capture, shared by every benchmark here."""
    from repro import Mode, TraceRecorder, TraceSimulator, get_workload

    recorder = TraceRecorder()
    sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
    get_workload("canneal", small=False).execute(sim, 0)
    sim.finish()
    return recorder.trace


def test_pack_throughput(benchmark, captured):
    benchmark(captured.pack)


def test_unpack_throughput(benchmark, captured):
    packed = captured.pack()
    benchmark(packed.to_trace)


def test_event_tuples_throughput(benchmark, captured):
    packed = captured.pack()
    benchmark(packed.event_tuples)


def test_store_put_get_round_trip(benchmark, tmp_path):
    packed = _synthetic_trace().pack()
    store = tracestore.TraceStore(directory=tmp_path / "traces")
    counter = iter(range(10**9))

    def round_trip():
        key = f"{next(counter):064d}"
        store.put(key, packed)
        return store.get(key)

    loaded = benchmark(round_trip)
    assert loaded is not None and len(loaded) == len(packed)


def test_store_warm_get(benchmark, tmp_path):
    """Mapping an existing entry — the per-worker cost in a warm sweep."""
    packed = _synthetic_trace().pack()
    store = tracestore.TraceStore(directory=tmp_path / "traces")
    key = "ab" + "0" * 62
    store.put(key, packed)
    loaded = benchmark(lambda: store.get(key))
    assert loaded is not None


def test_tracesim_packed_replay_throughput(benchmark, captured):
    packed = captured.pack()

    def replay():
        return TraceSimulator(Mode.LVA).replay(packed)

    stats = benchmark(replay)
    assert stats.loads == sum(1 for e in captured.events if not e.is_store)


def test_fullsystem_packed_replay_throughput(benchmark, captured):
    packed = captured.pack()
    config = FullSystemConfig(
        approximate=True, approximator=ApproximatorConfig(approximation_degree=4)
    )

    def replay():
        return FullSystemSimulator(config).run(packed)

    result = benchmark(replay)
    assert result.loads > 0


def test_write_bench_replay_json(captured):
    """Record the replay-throughput curve (events/sec per input form, per
    workload) to ``BENCH_replay.json`` so future re-anchors can see the
    perf trajectory.

    ``object`` replays a :class:`Trace` (packed inside ``replay``),
    ``packed`` and ``default`` replay its :class:`PackedTrace`: the
    single interpreter is what an unpinned caller gets, timed again so
    the ``default`` column's history continues.

    Uses ``time.perf_counter`` directly (not the ``benchmark`` fixture)
    so the file is written even under ``--benchmark-disable``. Output
    path overridable via ``REPRO_BENCH_OUT``.
    """
    import json
    import os
    import time
    from pathlib import Path

    from repro import TraceRecorder, get_workload
    from repro.envspec import BENCH_OUT_ENV
    from repro.experiments.common import BASELINE_WORKLOADS

    def events_per_sec(source):
        # One warm-up, then the timed run.
        TraceSimulator(Mode.LVA).replay(source)
        sim = TraceSimulator(Mode.LVA)
        start = time.perf_counter()
        sim.replay(source)
        elapsed = time.perf_counter() - start
        return round(len(source) / elapsed) if elapsed > 0 else float("inf")

    def curve(trace):
        packed = trace.pack()
        return {
            "object": events_per_sec(trace),
            "packed": events_per_sec(packed),
            "default": events_per_sec(packed),
            "events": len(packed),
        }

    results = {}
    for name in BASELINE_WORKLOADS:
        recorder = TraceRecorder(record_stores=True)
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        get_workload(name, small=True).execute(sim, 0)
        sim.finish()
        results[name] = curve(recorder.trace)
    results["canneal-large"] = curve(captured)

    out = Path(os.environ.get(BENCH_OUT_ENV, "BENCH_replay.json"))
    payload = {"mode": "lva", "unit": "events/sec", "workloads": results}
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
