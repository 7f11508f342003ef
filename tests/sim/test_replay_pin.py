"""Bit-identity pin for phase-1 configurations beyond the default ones.

``test_live_path_pin.py`` pins every technique at its default
configuration. This suite pins, live and at test scale (seed 3), the rest
of the phase-1 design space the drivers and ablations reach:

* the approximator design space on swaptions (the configurations the
  paper sweeps) and on fluidanimate, which misses far more at test scale,
  under LVA and LVP;
* approximation degree, the predictor zoo and prefetcher variants;
* ``flip``/``drop`` memory-fault specs;
* degenerate access streams (none, store-only, single access);
* a second workload continuing on the same simulator.

Each entry has the shape of ``test_live_path_pin.run_point``: the final
``SimulationStats``, the L1 counters and the SHA-256 of the workload
output. ``expected/live_configs_small.json`` was recorded from the tree
that still carried the open-loop replay this suite replaced, and must
never be regenerated to make this suite pass. To inspect a divergence,
run this module (``python -m tests.sim.test_replay_pin``): it prints the
current snapshot as JSON.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.config import INFINITE_WINDOW, ApproximatorConfig
from repro.envspec import INJECT_ENV, PREDICTOR_ENV
from repro.experiments.common import BASELINE_WORKLOADS
from repro.prefetch.nextline import NextLinePrefetcher
from repro.sim.trace import LoadEvent, Trace
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads import get_workload
from tests.sim.test_live_path_pin import SEED, _digest_output

EXPECTED = Path(__file__).parent / "expected" / "live_configs_small.json"

MODES = {
    "precise": Mode.PRECISE,
    "lva": Mode.LVA,
    "lvp": Mode.LVP,
    "prefetch": Mode.PREFETCH,
}

#: label -> approximator config, run under LVA and LVP.
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

#: Workloads the design space runs on (swaptions barely misses at test
#: scale, so fluidanimate carries most of the signal).
SWEEP_WORKLOADS = ["swaptions", "fluidanimate"]

#: label -> config run on fluidanimate (LVA unless a predictor is named).
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
    """Degenerate access streams, as traces (see :func:`issue`)."""
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


def record(sim: TraceSimulator, output: object = None) -> dict:
    """Finish ``sim`` and return its pinned state."""
    stats = sim.finish()
    return {
        "stats": stats.as_dict(),
        "static_approx_pcs": len(stats.static_approx_pcs),
        "l1": sim.l1.stats.as_dict(),
        "output_sha256": _digest_output(output),
    }


def live_run(name: str, mode: Mode, config=None, **kwargs):
    """One live run of ``name``; returns the simulator and its record."""
    sim = TraceSimulator(mode, approximator_config=config, **kwargs)
    output = get_workload(name, small=True).execute(sim, SEED)
    return sim, record(sim, output)


def live(name: str, mode: Mode, config=None, **kwargs) -> dict:
    return live_run(name, mode, config, **kwargs)[1]


def issue(sim: TraceSimulator, trace: Trace) -> dict:
    """Issue ``trace``'s events live through the frontend API: the gap
    as non-memory instructions, then the store or load itself."""
    for event in trace:
        sim.set_thread(event.tid)
        sim.advance(event.gap)
        if event.is_store:
            sim.store(event.addr, event.value)
            continue
        sim.values.setdefault(event.addr, event.value)
        if event.approximable:
            sim.load_approx(event.pc, event.addr, event.is_float)
        else:
            sim.load(event.pc, event.addr)
    return record(sim)


def predictor_mode(config: ApproximatorConfig) -> Mode:
    return Mode.PREDICTOR if config.predictor else Mode.LVA


def snapshot_sweep() -> dict:
    return {
        name: {
            label: {
                technique: live(name, MODES[technique], config)
                for technique in ("lva", "lvp")
            }
            for label, config in SWEEP_CONFIGS.items()
        }
        for name in SWEEP_WORKLOADS
    }


def snapshot_fluidanimate() -> dict:
    return {
        label: live("fluidanimate", predictor_mode(config), config)
        for label, config in FLUIDANIMATE_CONFIGS.items()
    }


def snapshot_degree() -> dict:
    return {
        name: {
            str(degree): live(name, Mode.LVA, ApproximatorConfig(approximation_degree=degree))
            for degree in (1, 2, 3)
        }
        for name in BASELINE_WORKLOADS
    }


def snapshot_predictors() -> dict:
    zoo = {
        name: {
            predictor: live(name, Mode.PREDICTOR, ApproximatorConfig(predictor=predictor))
            for predictor in PREDICTORS
        }
        for name in BASELINE_WORKLOADS
    }
    zoo["bodytrack-delays"] = {
        f"{predictor}-delay{delay}": live(
            "bodytrack",
            Mode.PREDICTOR,
            ApproximatorConfig(predictor=predictor, value_delay=delay),
        )
        for predictor in ("clp", "hybrid")
        for delay in (0, 9)
    }
    zoo["x264-hybrid-deg2"] = live(
        "x264",
        Mode.PREDICTOR,
        ApproximatorConfig(predictor="hybrid", approximation_degree=2),
    )
    return zoo


def snapshot_prefetch() -> dict:
    return {
        "canneal-degree1": live("canneal", Mode.PREFETCH, prefetch_degree=1),
        "canneal-degree8": live("canneal", Mode.PREFETCH, prefetch_degree=8),
        "fluidanimate-nextline4": live(
            "fluidanimate", Mode.PREFETCH, prefetcher=NextLinePrefetcher(degree=4)
        ),
    }


def snapshot_faults() -> dict:
    result = {}
    for spec in FAULT_SPECS:
        os.environ[INJECT_ENV] = spec
        try:
            result[spec] = {
                name: {label: live(name, MODES[label]) for label in FAULT_MODES}
                for name in FAULT_WORKLOADS
            }
        finally:
            del os.environ[INJECT_ENV]
    return result


def snapshot_edges() -> dict:
    return {
        label: issue(TraceSimulator(Mode.LVA), trace)
        for label, trace in edge_traces().items()
    }


def snapshot_continuation() -> dict:
    """A second workload on the same simulator continues from its state."""
    result = {}
    for label in ("lva", "lvp"):
        sim = TraceSimulator(MODES[label])
        get_workload("swaptions", small=True).execute(sim, SEED)
        output = get_workload("blackscholes", small=True).execute(sim, SEED)
        result[label] = record(sim, output)
    return result


@pytest.fixture(scope="module")
def live_pin() -> dict:
    with EXPECTED.open() as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def default_pin() -> dict:
    """The default-configuration entries of ``live_path_small.json``."""
    with (EXPECTED.parent / "live_path_small.json").open() as fh:
        return json.load(fh)["techniques"]


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    for var in (INJECT_ENV, PREDICTOR_ENV, telemetry.TELEMETRY_ENV, telemetry.TRACE_ENV):
        monkeypatch.delenv(var, raising=False)


class TestReplayPin:
    def test_modes(self, default_pin):
        current = {
            name: {label: live(name, mode) for label, mode in MODES.items()}
            for name in BASELINE_WORKLOADS
        }
        assert current == {
            name: {label: default_pin[name][label] for label in MODES}
            for name in BASELINE_WORKLOADS
        }

    def test_config_sweep(self, live_pin):
        current = snapshot_sweep()
        # Guard against a vacuous pin: the design space must move the
        # fluidanimate results.
        runs = current["fluidanimate"]
        assert len({json.dumps(point["lva"]) for point in runs.values()}) > 1
        assert current == live_pin["sweep"]

    def test_fluidanimate_configs(self, live_pin):
        current = snapshot_fluidanimate()
        # Guard against a vacuous pin: degree must skip fetches, and the
        # cache-level predictor must cover misses.
        assert current["deg2"]["stats"]["fetches_avoided"] > 0
        assert current["clp"]["stats"]["covered_misses"] > 0
        assert current == live_pin["fluidanimate"]

    def test_degree(self, live_pin):
        assert snapshot_degree() == live_pin["degree"]

    def test_predictor_zoo(self, live_pin):
        current = snapshot_predictors()
        assert current["x264-hybrid-deg2"]["stats"]["fetches_avoided"] > 0
        assert current == live_pin["predictors"]

    def test_prefetch(self, live_pin):
        current = snapshot_prefetch()
        assert all(point["stats"]["prefetch_fetches"] > 0 for point in current.values())
        assert current == live_pin["prefetch"]

    def test_memory_faults(self, live_pin):
        current = snapshot_faults()
        # Guard against a vacuous pin: every spec perturbs fluidanimate
        # (swaptions barely misses at test scale, so one flip may not land).
        clean = {label: live("fluidanimate", MODES[label]) for label in FAULT_MODES}
        for spec, runs in current.items():
            points = runs["fluidanimate"]
            assert any(
                points[label]["stats"] != clean[label]["stats"] for label in points
            ), f"{spec} left fluidanimate unperturbed"
        assert current == live_pin["faults"]

    def test_degenerate_traces(self, live_pin):
        current = snapshot_edges()
        assert current["empty"]["stats"]["instructions"] == 0
        assert current == live_pin["edges"]

    def test_second_replay_continues(self, live_pin):
        assert snapshot_continuation() == live_pin["continuation"]


def _snapshot_all() -> dict:
    for var in (INJECT_ENV, PREDICTOR_ENV, telemetry.TELEMETRY_ENV, telemetry.TRACE_ENV):
        os.environ.pop(var, None)
    return {
        "sweep": snapshot_sweep(),
        "fluidanimate": snapshot_fluidanimate(),
        "degree": snapshot_degree(),
        "predictors": snapshot_predictors(),
        "prefetch": snapshot_prefetch(),
        "faults": snapshot_faults(),
        "edges": snapshot_edges(),
        "continuation": snapshot_continuation(),
    }


if __name__ == "__main__":
    json.dump(_snapshot_all(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
