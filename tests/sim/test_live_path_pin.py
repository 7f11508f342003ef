"""Bit-identity pin for the live phase-1 access path.

Every figure of phase 1 runs its workloads live against a
:class:`~repro.sim.tracesim.TraceSimulator`; phase 2 replays traces
captured the same way. This suite pins what that path produces on all
seven baseline workloads at test scale, under every technique, with a
small L1 that evicts, with an injected memory-fault spec and with
telemetry on: the final
``SimulationStats``, the L1 counters, the workload output, and the
SHA-256 of the packed columns of a precise capture (phase-2 traces must
keep their store keys).

``expected/live_path_small.json`` was recorded from the tree *before*
the access path was fused into one call per load, and must never be
regenerated to make this suite pass. To inspect a divergence, run this
file as a script: it prints the current snapshot as JSON.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.config import ApproximatorConfig
from repro.envspec import INJECT_ENV, PREDICTOR_ENV
from repro.experiments.common import BASELINE_WORKLOADS, PHASE2_PARAMS
from repro.mem.cache import CacheConfig
from repro.sim.trace import TRACE_COLUMNS, TraceRecorder
from repro.sim.tracesim import PHASE1_L1, Mode, TraceSimulator
from repro.workloads import get_workload

EXPECTED = Path(__file__).parent / "expected" / "live_path_small.json"

SEED = 3

#: label -> (mode, approximator config) for the technique sweep.
TECHNIQUES = {
    "precise": (Mode.PRECISE, None),
    "lva": (Mode.LVA, ApproximatorConfig()),
    "lva-degree2": (Mode.LVA, ApproximatorConfig(approximation_degree=2)),
    "lvp": (Mode.LVP, ApproximatorConfig()),
    "prefetch": (Mode.PREFETCH, None),
    "clp": (Mode.PREDICTOR, ApproximatorConfig(predictor="clp")),
    "hybrid": (Mode.PREDICTOR, ApproximatorConfig(predictor="hybrid")),
}

#: A 4 KB L1, so test-scale workloads evict (and write back) constantly.
SMALL_L1 = CacheConfig(size_bytes=4096, associativity=4, block_bytes=64)

#: Bit flips on served values plus dropped fetches, both frequent enough
#: to fire many times at test scale.
FAULT_SPEC = "flip:prob=0.02,seed=5;drop:prob=0.02"


def _jsonable(value: object) -> object:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value.tolist()  # numpy scalars and arrays


def _digest_output(output: object) -> str:
    text = json.dumps(output, sort_keys=True, default=_jsonable)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest_columns(packed) -> str:
    digest = hashlib.sha256()
    for name, _ in TRACE_COLUMNS:
        column = getattr(packed, name)
        digest.update(name.encode("utf-8"))
        digest.update(str(column.dtype).encode("utf-8"))
        digest.update(column.tobytes())
    return digest.hexdigest()


def run_point(name: str, mode: Mode, config, l1_config: CacheConfig = PHASE1_L1) -> dict:
    """One live run: final stats, L1 counters and output digest."""
    sim = TraceSimulator(mode, approximator_config=config, l1_config=l1_config)
    output = get_workload(name, small=True).execute(sim, SEED)
    stats = sim.finish()
    return {
        "stats": stats.as_dict(),
        "static_approx_pcs": len(stats.static_approx_pcs),
        "l1": sim.l1.stats.as_dict(),
        "output_sha256": _digest_output(output),
    }


def capture_digest(name: str, record_stores: bool) -> dict:
    """Column digest of a precise capture with the phase-2 inputs."""
    recorder = TraceRecorder(record_stores=record_stores)
    sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
    get_workload(name, params=PHASE2_PARAMS.get(name), small=True).execute(sim, SEED)
    sim.finish()
    packed = recorder.trace.pack()
    return {"events": len(packed), "columns_sha256": _digest_columns(packed)}


def snapshot_techniques() -> dict:
    return {
        name: {label: run_point(name, mode, config) for label, (mode, config) in TECHNIQUES.items()}
        for name in BASELINE_WORKLOADS
    }


def snapshot_small_l1() -> dict:
    return {
        name: {
            label: run_point(name, mode, config, SMALL_L1)
            for label, (mode, config) in TECHNIQUES.items()
            if label in ("precise", "lva-degree2", "prefetch", "hybrid")
        }
        for name in BASELINE_WORKLOADS
    }


def snapshot_captures() -> dict:
    return {
        name: {
            "phase2": capture_digest(name, record_stores=False),
            "with_stores": capture_digest(name, record_stores=True),
        }
        for name in BASELINE_WORKLOADS
    }


def snapshot_faults() -> dict:
    return {
        name: run_point(name, Mode.LVA, ApproximatorConfig())
        for name in ("bodytrack", "fluidanimate")
    }


def snapshot_telemetry() -> dict:
    return {"x264": run_point("x264", Mode.PREDICTOR, ApproximatorConfig(predictor="hybrid"))}


@pytest.fixture(scope="module")
def pinned() -> dict:
    with EXPECTED.open() as fh:
        return json.load(fh)


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for var in (INJECT_ENV, PREDICTOR_ENV, telemetry.TELEMETRY_ENV, telemetry.TRACE_ENV):
        monkeypatch.delenv(var, raising=False)


class TestLivePathPin:
    def test_techniques(self, pinned):
        assert snapshot_techniques() == pinned["techniques"]

    def test_small_l1(self, pinned):
        current = snapshot_small_l1()
        assert sum(point["l1"]["writebacks"] for runs in current.values() for point in runs.values())
        assert current == pinned["small_l1"]

    def test_captures(self, pinned):
        assert snapshot_captures() == pinned["captures"]

    def test_memory_faults(self, pinned, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, FAULT_SPEC)
        current = snapshot_faults()
        assert all(point["stats"]["value_bit_flips"] > 0 for point in current.values())
        assert all(point["stats"]["fetches_dropped"] > 0 for point in current.values())
        assert current == pinned["faults"]

    def test_telemetry_on(self, pinned, monkeypatch):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, "1")
        assert snapshot_telemetry() == pinned["telemetry"]


def _snapshot_all() -> dict:
    import os

    result = {
        "techniques": snapshot_techniques(),
        "small_l1": snapshot_small_l1(),
        "captures": snapshot_captures(),
    }
    os.environ[INJECT_ENV] = FAULT_SPEC
    try:
        result["faults"] = snapshot_faults()
    finally:
        del os.environ[INJECT_ENV]
    os.environ[telemetry.TELEMETRY_ENV] = "1"
    try:
        result["telemetry"] = snapshot_telemetry()
    finally:
        del os.environ[telemetry.TELEMETRY_ENV]
    return result


if __name__ == "__main__":
    json.dump(_snapshot_all(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
