"""Bit-identity pin for open-loop phase-1 replay (:meth:`TraceSimulator.replay`).

Replay has one interpreter: it packs its input and walks the event
tuples through the same ``_serve_load``/``_serve_store`` path a live run
uses. This suite pins what it produces on small seed-3 captures:

* every technique mode on every baseline workload;
* the approximator design space on swaptions, under LVA and LVP;
* approximation degree, the predictor zoo and prefetcher variants;
* ``flip``/``drop`` memory-fault specs;
* degenerate traces (empty, store-only, single event);
* a second replay continuing on the same simulator.

Each entry holds ``dataclasses.asdict`` of the final
``SimulationStats`` (the static-PC set as a sorted list) and the L1
counters. ``expected/replay_small.json`` was recorded with the packed
interpreter from the tree that still carried the object and vector
replay paths, and must never be regenerated to make this suite pass. To
inspect a divergence, run this file as a script: it prints the current
snapshot as JSON.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

from repro import telemetry
from repro.core.config import INFINITE_WINDOW, ApproximatorConfig
from repro.envspec import INJECT_ENV, PREDICTOR_ENV
from repro.experiments.common import BASELINE_WORKLOADS
from repro.prefetch.nextline import NextLinePrefetcher
from repro.sim.trace import LoadEvent, Trace, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads import get_workload

SEED = 3

MODES = {
    "precise": Mode.PRECISE,
    "lva": Mode.LVA,
    "lvp": Mode.LVP,
    "prefetch": Mode.PREFETCH,
}

#: label -> approximator config, replayed on swaptions under LVA and LVP.
SWEEP_CONFIGS = {
    "default": ApproximatorConfig(),
    "ghb2": ApproximatorConfig(ghb_size=2),
    "ghb2-drop8": ApproximatorConfig(ghb_size=2, mantissa_drop_bits=8),
    "window-inf": ApproximatorConfig(confidence_window=INFINITE_WINDOW),
    "window-0": ApproximatorConfig(confidence_window=0.0),
    "step-max3": ApproximatorConfig(confidence_step_max=3),
    "conf-ints": ApproximatorConfig(apply_confidence_to_ints=True),
    "no-conf-floats": ApproximatorConfig(apply_confidence_to_floats=False),
    "lhb1": ApproximatorConfig(lhb_size=1),
    "fn-last": ApproximatorConfig(compute_fn="last"),
    "fn-stride": ApproximatorConfig(compute_fn="stride"),
    "fn-delta": ApproximatorConfig(compute_fn="delta"),
    "table64-tag8": ApproximatorConfig(table_entries=64, tag_bits=8),
    "delay0": ApproximatorConfig(value_delay=0),
    "delay9": ApproximatorConfig(value_delay=9),
}

#: label -> config replayed on fluidanimate (LVA unless a predictor is named).
FLUIDANIMATE_CONFIGS = {
    "deg2": ApproximatorConfig(approximation_degree=2),
    "deg4-ghb2": ApproximatorConfig(approximation_degree=4, ghb_size=2),
    "clp": ApproximatorConfig(predictor="clp"),
    "hybrid": ApproximatorConfig(predictor="hybrid"),
    "hybrid-deg2": ApproximatorConfig(predictor="hybrid", approximation_degree=2),
    "deg2-ghb2": ApproximatorConfig(approximation_degree=2, ghb_size=2),
    "deg2-delay0": ApproximatorConfig(approximation_degree=2, value_delay=0),
    "deg2-delay9": ApproximatorConfig(approximation_degree=2, value_delay=9),
    "deg2-conf-ints": ApproximatorConfig(approximation_degree=2, apply_confidence_to_ints=True),
    "deg2-stride": ApproximatorConfig(approximation_degree=2, compute_fn="stride"),
    "deg2-lhb1": ApproximatorConfig(approximation_degree=2, lhb_size=1),
}

PREDICTORS = ["lva", "lvp", "clp", "hybrid"]

FAULT_WORKLOADS = ["fluidanimate", "swaptions"]
FAULT_SPECS = [
    "flip:prob=0.05,seed=7",
    "drop:prob=0.1,seed=3",
    "flip:prob=0.02,seed=1;drop:prob=0.05,seed=2",
]
FAULT_MODES = ["lva", "lvp", "precise"]


def edge_traces() -> dict:
    return {
        "empty": Trace(),
        "store_only": Trace([
            LoadEvent(tid=0, pc=0, addr=0x40 * i, value=0, is_float=False,
                      approximable=False, gap=i, is_store=True)
            for i in range(3)
        ]),
        "single_load": Trace([
            LoadEvent(tid=0, pc=0x400, addr=0x1000, value=1.5, is_float=True,
                      approximable=True, gap=7)
        ]),
        "single_store": Trace([
            LoadEvent(tid=0, pc=0, addr=0x1000, value=0, is_float=False,
                      approximable=False, gap=0, is_store=True)
        ]),
    }


def capture(name: str) -> Trace:
    recorder = TraceRecorder(record_stores=True)
    sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
    get_workload(name, small=True).execute(sim, SEED)
    sim.finish()
    return recorder.trace


def _state(sim: TraceSimulator, stats) -> dict:
    fields = dataclasses.asdict(stats)
    fields["static_approx_pcs"] = sorted(fields["static_approx_pcs"])
    return {"stats": fields, "l1": sim.l1.stats.as_dict()}


def replay(trace: Trace, mode: Mode, config=None, packed: bool = True, **kwargs) -> dict:
    """Replay ``trace`` (packed first unless ``packed`` is False)."""
    sim = TraceSimulator(mode, approximator_config=config, **kwargs)
    return _state(sim, sim.replay(trace.pack() if packed else trace))


def _predictor_mode(config: ApproximatorConfig) -> Mode:
    return Mode.PREDICTOR if config.predictor else Mode.LVA


def snapshot_modes(traces: dict) -> dict:
    return {
        name: {label: replay(traces[name], mode) for label, mode in MODES.items()}
        for name in BASELINE_WORKLOADS
    }


def snapshot_sweep(traces: dict) -> dict:
    return {
        label: {
            technique: replay(traces["swaptions"], MODES[technique], config)
            for technique in ("lva", "lvp")
        }
        for label, config in SWEEP_CONFIGS.items()
    }


def snapshot_fluidanimate(traces: dict) -> dict:
    return {
        label: replay(traces["fluidanimate"], _predictor_mode(config), config)
        for label, config in FLUIDANIMATE_CONFIGS.items()
    }


def snapshot_degree(traces: dict) -> dict:
    return {
        name: {
            str(degree): replay(
                traces[name], Mode.LVA, ApproximatorConfig(approximation_degree=degree)
            )
            for degree in (1, 2, 3)
        }
        for name in BASELINE_WORKLOADS
    }


def snapshot_predictors(traces: dict) -> dict:
    zoo = {
        name: {
            predictor: replay(
                traces[name], Mode.PREDICTOR, ApproximatorConfig(predictor=predictor)
            )
            for predictor in PREDICTORS
        }
        for name in BASELINE_WORKLOADS
    }
    zoo["bodytrack-delays"] = {
        f"{predictor}-delay{delay}": replay(
            traces["bodytrack"],
            Mode.PREDICTOR,
            ApproximatorConfig(predictor=predictor, value_delay=delay),
        )
        for predictor in ("clp", "hybrid")
        for delay in (0, 9)
    }
    zoo["x264-hybrid-deg2"] = replay(
        traces["x264"],
        Mode.PREDICTOR,
        ApproximatorConfig(predictor="hybrid", approximation_degree=2),
    )
    return zoo


def snapshot_prefetch(traces: dict) -> dict:
    return {
        "canneal-degree1": replay(traces["canneal"], Mode.PREFETCH, prefetch_degree=1),
        "canneal-degree8": replay(traces["canneal"], Mode.PREFETCH, prefetch_degree=8),
        "fluidanimate-nextline4": replay(
            traces["fluidanimate"], Mode.PREFETCH, prefetcher=NextLinePrefetcher(degree=4)
        ),
    }


def snapshot_faults(traces: dict) -> dict:
    result = {}
    for spec in FAULT_SPECS:
        os.environ[INJECT_ENV] = spec
        try:
            result[spec] = {
                name: {label: replay(traces[name], MODES[label]) for label in FAULT_MODES}
                for name in FAULT_WORKLOADS
            }
        finally:
            del os.environ[INJECT_ENV]
    return result


def snapshot_edges() -> dict:
    return {
        label: replay(trace, Mode.LVA) for label, trace in edge_traces().items()
    }


def snapshot_continuation(traces: dict) -> dict:
    """A second replay on the same simulator continues from its state."""
    result = {}
    for label in ("lva", "lvp"):
        sim = TraceSimulator(MODES[label])
        sim.replay(traces["swaptions"].pack())
        result[label] = _state(sim, sim.replay(traces["blackscholes"].pack()))
    return result


@pytest.fixture(scope="module")
def traces() -> dict:
    """Clean captures (fault injection never applies to capture)."""
    saved = {var: os.environ.pop(var, None) for var in (INJECT_ENV, PREDICTOR_ENV)}
    try:
        return {name: capture(name) for name in BASELINE_WORKLOADS}
    finally:
        os.environ.update({var: value for var, value in saved.items() if value is not None})


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for var in (INJECT_ENV, PREDICTOR_ENV, telemetry.TELEMETRY_ENV, telemetry.TRACE_ENV):
        monkeypatch.delenv(var, raising=False)


class TestReplayPin:
    def test_modes(self, replay_pin, traces):
        assert snapshot_modes(traces) == replay_pin["modes"]

    def test_config_sweep(self, replay_pin, traces):
        assert snapshot_sweep(traces) == replay_pin["sweep"]

    def test_fluidanimate_configs(self, replay_pin, traces):
        current = snapshot_fluidanimate(traces)
        # Guard against a vacuous pin: degree must skip fetches, and the
        # cache-level predictor must cover misses.
        assert current["deg2"]["stats"]["fetches_avoided"] > 0
        assert current["clp"]["stats"]["covered_misses"] > 0
        assert current == replay_pin["fluidanimate"]

    def test_degree(self, replay_pin, traces):
        assert snapshot_degree(traces) == replay_pin["degree"]

    def test_predictor_zoo(self, replay_pin, traces):
        current = snapshot_predictors(traces)
        assert current["x264-hybrid-deg2"]["stats"]["fetches_avoided"] > 0
        assert current == replay_pin["predictors"]

    def test_prefetch(self, replay_pin, traces):
        current = snapshot_prefetch(traces)
        assert all(point["stats"]["prefetch_fetches"] > 0 for point in current.values())
        assert current == replay_pin["prefetch"]

    def test_memory_faults(self, replay_pin, traces):
        current = snapshot_faults(traces)
        # Guard against a vacuous pin: every spec perturbs fluidanimate
        # (swaptions barely misses at test scale, so one flip may not land).
        clean = snapshot_modes(traces)["fluidanimate"]
        for spec, runs in current.items():
            points = runs["fluidanimate"]
            assert any(
                points[label]["stats"] != clean[label]["stats"] for label in points
            ), f"{spec} left fluidanimate unperturbed"
        assert current == replay_pin["faults"]

    def test_degenerate_traces(self, replay_pin):
        current = snapshot_edges()
        assert current["empty"]["stats"]["instructions"] == 0
        assert current == replay_pin["edges"]

    def test_second_replay_continues(self, replay_pin, traces):
        assert snapshot_continuation(traces) == replay_pin["continuation"]


def _snapshot_all() -> dict:
    traces = {name: capture(name) for name in BASELINE_WORKLOADS}
    return {
        "modes": snapshot_modes(traces),
        "sweep": snapshot_sweep(traces),
        "fluidanimate": snapshot_fluidanimate(traces),
        "degree": snapshot_degree(traces),
        "predictors": snapshot_predictors(traces),
        "prefetch": snapshot_prefetch(traces),
        "faults": snapshot_faults(traces),
        "edges": snapshot_edges(),
        "continuation": snapshot_continuation(traces),
    }


if __name__ == "__main__":
    json.dump(_snapshot_all(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
