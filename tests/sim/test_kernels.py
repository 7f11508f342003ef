"""Per-configuration checks of open-loop phase-1 replay.

Replay once had a vectorised kernel beside the object and packed
interpreters, and these tests held it bit-identical to them; the test
names date from then. Replay now has one interpreter, so each test
replays a captured trace both as a ``Trace`` (object) input and in its
packed form, and requires:

* the same ``SimulationStats`` and the same cache, technique and
  prefetcher state from both inputs;
* the result recorded from the object interpreter in
  ``expected/replay_small.json`` (the pin that ``test_replay_pin.py``
  checks as a whole), for the configuration under test.
"""

from __future__ import annotations

import pytest

from repro import ApproximatorConfig, Mode, TraceSimulator
from repro.core.approximator import LoadValueApproximator
from repro.experiments.common import BASELINE_WORKLOADS
from repro.predictors.lvp import IdealizedLoadValuePredictor
from repro.prefetch.nextline import NextLinePrefetcher
from repro.sim.trace import Trace
from tests.sim.test_replay_pin import (
    FLUIDANIMATE_CONFIGS,
    SWEEP_CONFIGS,
    _clean_environment,  # noqa: F401  (autouse fixture)
    _state,
    traces,  # noqa: F401  (fixture)
)

MODES = [Mode.PRECISE, Mode.LVA, Mode.LVP, Mode.PREFETCH]

#: The degree-2 fluidanimate configurations, in pinned order.
DEGREE_SWEEP = [
    label for label in FLUIDANIMATE_CONFIGS if label.startswith("deg2-")
]


def _assert_same_lva_tables(a_tech, b_tech):
    assert a_tech.stats == b_tech.stats
    assert a_tech.allocated_entries == b_tech.allocated_entries
    assert list(a_tech.ghb) == list(b_tech.ghb)
    for index, entry in a_tech._table.items():
        other = b_tech._table[index]
        assert entry.tag == other.tag
        assert entry.confidence.value == other.confidence.value
        assert entry.degree_counter == other.degree_counter
        assert list(entry.lhb) == list(other.lhb)


def assert_same_state(a_sim, b_sim):
    """Equality beyond SimulationStats: cache + technique counters."""
    assert a_sim.l1.stats == b_sim.l1.stats
    assert a_sim.instructions == b_sim.instructions
    a_tech, b_tech = a_sim.technique, b_sim.technique
    assert type(a_tech) is type(b_tech)
    if isinstance(a_tech, (LoadValueApproximator, IdealizedLoadValuePredictor)):
        _assert_same_lva_tables(a_tech, b_tech)
    elif a_tech is not None:
        assert a_tech.stats == b_tech.stats
        assert a_tech.allocated_entries == b_tech.allocated_entries
        if hasattr(a_tech, "_l2"):  # clp: modelled-L2 contents in LRU order
            assert list(a_tech._l2) == list(b_tech._l2)
            assert {i: (e.tag, list(e.levels)) for i, e in a_tech._table.items()} == {
                i: (e.tag, list(e.levels)) for i, e in b_tech._table.items()
            }
        if hasattr(a_tech, "_chooser"):  # hybrid: chooser + both components
            assert a_tech._chooser == b_tech._chooser
            _assert_same_lva_tables(a_tech.lva, b_tech.lva)
            assert a_tech.lvp.stats == b_tech.lvp.stats
    pf_a, pf_b = a_sim.prefetcher, b_sim.prefetcher
    assert (pf_a is None) == (pf_b is None)
    if pf_a is not None:
        assert pf_a.stats == pf_b.stats


def replay_both(trace, mode, expected, config=None, **kwargs):
    """Replay ``trace`` as an object and as a packed input; both must
    agree in full and match the pinned ``expected`` entry."""
    obj_sim = TraceSimulator(mode, approximator_config=config, **kwargs)
    obj_stats = obj_sim.replay(trace)
    sim = TraceSimulator(mode, approximator_config=config, **kwargs)
    stats = sim.replay(trace.pack())
    assert stats == obj_stats
    assert_same_state(sim, obj_sim)
    assert _state(sim, stats) == expected
    return stats, sim


class TestBitEquality:
    """All workloads × modes against the pinned object reference."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("mode", MODES)
    def test_vector_matches_object_reference(self, name, mode, traces, replay_pin):
        replay_both(traces[name], mode, replay_pin["modes"][name][mode.value])


class TestConfigSweepEquality:
    """The phase-1 design space on swaptions, both techniques."""

    @pytest.mark.parametrize("config", list(SWEEP_CONFIGS.values()))
    @pytest.mark.parametrize("mode", [Mode.LVA, Mode.LVP])
    def test_vector_matches_packed(self, config, mode, traces, replay_pin):
        label = next(k for k, v in SWEEP_CONFIGS.items() if v is config)
        expected = replay_pin["sweep"][label][mode.value]
        replay_both(traces["swaptions"], mode, expected, config)


class TestDegreeBitEquality:
    """Degree-triggered fetch skips: all workloads × degrees 1-3."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_vector_matches_object(self, name, degree, traces, replay_pin):
        config = ApproximatorConfig(approximation_degree=degree)
        expected = replay_pin["degree"][name][str(degree)]
        replay_both(traces[name], Mode.LVA, expected, config)

    def test_degree_actually_skips_fetches_under_vector(self, traces, replay_pin):
        """Canary: the pin above is vacuous if no fetch was ever skipped."""
        config = ApproximatorConfig(approximation_degree=2)
        stats, sim = replay_both(
            traces["x264"], Mode.LVA, replay_pin["degree"]["x264"]["2"], config
        )
        assert stats.fetches_avoided > 0
        assert sim.technique.stats.fetches_skipped == stats.fetches_avoided
        assert stats.fetches < stats.raw_misses

    @pytest.mark.parametrize(
        "config", [FLUIDANIMATE_CONFIGS[label] for label in DEGREE_SWEEP]
    )
    def test_degree_config_sweep(self, config, traces, replay_pin):
        label = next(k for k in DEGREE_SWEEP if FLUIDANIMATE_CONFIGS[k] is config)
        expected = replay_pin["fluidanimate"][label]
        replay_both(traces["fluidanimate"], Mode.LVA, expected, config)


class TestPredictorZooBitEquality:
    """Every registry predictor, on all workloads."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("predictor", ["lva", "lvp", "clp", "hybrid"])
    def test_vector_matches_object(self, name, predictor, traces, replay_pin):
        config = ApproximatorConfig(predictor=predictor)
        expected = replay_pin["predictors"][name][predictor]
        replay_both(traces[name], Mode.PREDICTOR, expected, config)

    @pytest.mark.parametrize("value_delay", [0, 9])
    @pytest.mark.parametrize("predictor", ["clp", "hybrid"])
    def test_batch_driver_run_slicing_across_delays(
        self, predictor, value_delay, traces, replay_pin
    ):
        """Value-delayed training interleaves with misses differently at
        the extremes (immediately due vs. long in flight)."""
        config = ApproximatorConfig(predictor=predictor, value_delay=value_delay)
        expected = replay_pin["predictors"]["bodytrack-delays"][
            f"{predictor}-delay{value_delay}"
        ]
        replay_both(traces["bodytrack"], Mode.PREDICTOR, expected, config)

    def test_hybrid_honors_degree_under_vector(self, traces, replay_pin):
        """Hybrid inherits LVA's fetch skips when degree > 0."""
        config = ApproximatorConfig(predictor="hybrid", approximation_degree=2)
        expected = replay_pin["predictors"]["x264-hybrid-deg2"]
        stats, _ = replay_both(traces["x264"], Mode.PREDICTOR, expected, config)
        assert stats.fetches_avoided > 0

    def test_clp_covers_misses_under_vector(self, traces, replay_pin):
        """Canary: correct level predictions count as covered misses."""
        config = ApproximatorConfig(predictor="clp")
        expected = replay_pin["predictors"]["fluidanimate"]["clp"]
        stats, sim = replay_both(traces["fluidanimate"], Mode.PREDICTOR, expected, config)
        assert stats.covered_misses > 0
        assert sim.technique.stats.correct == stats.covered_misses


class TestPrefetchBitEquality:
    """Prefetch fill injection and usefulness flags."""

    def test_prefetch_actually_fires_under_vector(self, traces, replay_pin):
        expected = replay_pin["modes"]["bodytrack"]["prefetch"]
        stats, sim = replay_both(traces["bodytrack"], Mode.PREFETCH, expected)
        assert stats.prefetch_fetches > 0
        assert sim.l1.stats.useful_prefetches > 0

    @pytest.mark.parametrize("degree", [1, 8])
    def test_prefetch_degree_sweep(self, degree, traces, replay_pin):
        expected = replay_pin["prefetch"][f"canneal-degree{degree}"]
        replay_both(traces["canneal"], Mode.PREFETCH, expected, prefetch_degree=degree)

    def test_nextline_prefetcher_matches(self, traces, replay_pin):
        obj_sim = TraceSimulator(Mode.PREFETCH, prefetcher=NextLinePrefetcher(degree=4))
        obj_stats = obj_sim.replay(traces["fluidanimate"])
        sim = TraceSimulator(Mode.PREFETCH, prefetcher=NextLinePrefetcher(degree=4))
        stats = sim.replay(traces["fluidanimate"].pack())
        assert stats == obj_stats
        assert_same_state(sim, obj_sim)
        assert _state(sim, stats) == replay_pin["prefetch"]["fluidanimate-nextline4"]


class TestContinuationEquality:
    """A second replay on the same simulator continues from its state."""

    @pytest.mark.parametrize("mode", [Mode.LVA, Mode.LVP])
    def test_second_replay_continues_identically(self, mode, traces, replay_pin):
        first, second = traces["swaptions"], traces["blackscholes"]
        obj_sim = TraceSimulator(mode)
        obj_sim.replay(first)
        obj_stats = obj_sim.replay(second)
        sim = TraceSimulator(mode)
        sim.replay(first.pack())
        stats = sim.replay(second.pack())
        assert stats == obj_stats
        assert_same_state(sim, obj_sim)
        assert _state(sim, stats) == replay_pin["continuation"][mode.value]


class TestObjectTraceInput:
    """A ``Trace`` input replays through ``pack()``."""

    def test_vector_replay_accepts_object_trace(self, traces, replay_pin):
        trace = traces["swaptions"]
        sim = TraceSimulator(Mode.LVA)
        stats = sim.replay(Trace(list(trace.events)))
        assert _state(sim, stats) == replay_pin["modes"]["swaptions"]["lva"]
