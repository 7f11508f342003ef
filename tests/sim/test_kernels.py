"""Per-configuration checks of the live phase-1 path.

These tests once held a vectorised replay kernel, and later the open-loop
replay interpreter, bit-identical to a reference; the test names date
from then. Phase 1 now runs live only, so each test runs its workload
live for one configuration and requires the result pinned for it in
``expected/live_configs_small.json`` (the pin ``test_replay_pin.py``
checks group by group) or, for default configurations, in
``expected/live_path_small.json``. A failure here names the one
configuration that moved; the canaries also check technique-internal
counters against the simulator's.
"""

from __future__ import annotations

import pytest

from repro import ApproximatorConfig, Mode, TraceSimulator
from repro.experiments.common import BASELINE_WORKLOADS
from repro.prefetch.nextline import NextLinePrefetcher
from repro.workloads import get_workload
from tests.sim.test_live_path_pin import SEED
from tests.sim.test_replay_pin import (
    FLUIDANIMATE_CONFIGS,
    SWEEP_CONFIGS,
    _clean_environment,  # noqa: F401  (autouse fixture)
    default_pin,  # noqa: F401  (fixture)
    live_pin,  # noqa: F401  (fixture)
    live_run,
    record,
)

MODES = [Mode.PRECISE, Mode.LVA, Mode.LVP, Mode.PREFETCH]

#: The degree-2 fluidanimate configurations, in pinned order.
DEGREE_SWEEP = [
    label for label in FLUIDANIMATE_CONFIGS if label.startswith("deg2-")
]


def run_pinned(name, mode, expected, config=None, **kwargs):
    """Run ``name`` live; the result must match the pinned ``expected``."""
    sim, current = live_run(name, mode, config, **kwargs)
    assert current == expected
    return sim.stats, sim


class TestBitEquality:
    """All workloads × modes against the default-configuration pin."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("mode", MODES)
    def test_vector_matches_object_reference(self, name, mode, default_pin):
        run_pinned(name, mode, default_pin[name][mode.value])


class TestConfigSweepEquality:
    """The phase-1 design space on swaptions, both techniques."""

    @pytest.mark.parametrize("config", list(SWEEP_CONFIGS.values()))
    @pytest.mark.parametrize("mode", [Mode.LVA, Mode.LVP])
    def test_vector_matches_packed(self, config, mode, live_pin):
        label = next(k for k, v in SWEEP_CONFIGS.items() if v is config)
        expected = live_pin["sweep"]["swaptions"][label][mode.value]
        run_pinned("swaptions", mode, expected, config)


class TestDegreeBitEquality:
    """Degree-triggered fetch skips: all workloads × degrees 1-3."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_vector_matches_object(self, name, degree, live_pin):
        config = ApproximatorConfig(approximation_degree=degree)
        expected = live_pin["degree"][name][str(degree)]
        run_pinned(name, Mode.LVA, expected, config)

    def test_degree_actually_skips_fetches_under_vector(self, live_pin):
        """Canary: the pin above is vacuous if no fetch was ever skipped."""
        config = ApproximatorConfig(approximation_degree=2)
        stats, sim = run_pinned(
            "x264", Mode.LVA, live_pin["degree"]["x264"]["2"], config
        )
        assert stats.fetches_avoided > 0
        assert sim.technique.stats.fetches_skipped == stats.fetches_avoided
        assert stats.fetches < stats.raw_misses

    @pytest.mark.parametrize(
        "config", [FLUIDANIMATE_CONFIGS[label] for label in DEGREE_SWEEP]
    )
    def test_degree_config_sweep(self, config, live_pin):
        label = next(k for k in DEGREE_SWEEP if FLUIDANIMATE_CONFIGS[k] is config)
        expected = live_pin["fluidanimate"][label]
        run_pinned("fluidanimate", Mode.LVA, expected, config)


class TestPredictorZooBitEquality:
    """Every registry predictor, on all workloads."""

    @pytest.mark.parametrize("name", BASELINE_WORKLOADS)
    @pytest.mark.parametrize("predictor", ["lva", "lvp", "clp", "hybrid"])
    def test_vector_matches_object(self, name, predictor, live_pin):
        config = ApproximatorConfig(predictor=predictor)
        expected = live_pin["predictors"][name][predictor]
        run_pinned(name, Mode.PREDICTOR, expected, config)

    @pytest.mark.parametrize("value_delay", [0, 9])
    @pytest.mark.parametrize("predictor", ["clp", "hybrid"])
    def test_batch_driver_run_slicing_across_delays(
        self, predictor, value_delay, live_pin
    ):
        """Value-delayed training interleaves with misses differently at
        the extremes (immediately due vs. long in flight)."""
        config = ApproximatorConfig(predictor=predictor, value_delay=value_delay)
        expected = live_pin["predictors"]["bodytrack-delays"][
            f"{predictor}-delay{value_delay}"
        ]
        run_pinned("bodytrack", Mode.PREDICTOR, expected, config)

    def test_hybrid_honors_degree_under_vector(self, live_pin):
        """Hybrid inherits LVA's fetch skips when degree > 0."""
        config = ApproximatorConfig(predictor="hybrid", approximation_degree=2)
        expected = live_pin["predictors"]["x264-hybrid-deg2"]
        stats, _ = run_pinned("x264", Mode.PREDICTOR, expected, config)
        assert stats.fetches_avoided > 0

    def test_clp_covers_misses_under_vector(self, live_pin):
        """Canary: correct level predictions count as covered misses."""
        config = ApproximatorConfig(predictor="clp")
        expected = live_pin["predictors"]["fluidanimate"]["clp"]
        stats, sim = run_pinned("fluidanimate", Mode.PREDICTOR, expected, config)
        assert stats.covered_misses > 0
        assert sim.technique.stats.correct == stats.covered_misses


class TestPrefetchBitEquality:
    """Prefetch fill injection and usefulness flags."""

    def test_prefetch_actually_fires_under_vector(self, default_pin):
        expected = default_pin["bodytrack"]["prefetch"]
        stats, sim = run_pinned("bodytrack", Mode.PREFETCH, expected)
        assert stats.prefetch_fetches > 0
        assert sim.l1.stats.useful_prefetches > 0

    @pytest.mark.parametrize("degree", [1, 8])
    def test_prefetch_degree_sweep(self, degree, live_pin):
        expected = live_pin["prefetch"][f"canneal-degree{degree}"]
        run_pinned("canneal", Mode.PREFETCH, expected, prefetch_degree=degree)

    def test_nextline_prefetcher_matches(self, live_pin):
        stats, sim = run_pinned(
            "fluidanimate",
            Mode.PREFETCH,
            live_pin["prefetch"]["fluidanimate-nextline4"],
            prefetcher=NextLinePrefetcher(degree=4),
        )
        assert 0 < stats.prefetch_fetches <= sim.prefetcher.stats.issued


class TestContinuationEquality:
    """A second workload on the same simulator continues from its state."""

    @pytest.mark.parametrize("mode", [Mode.LVA, Mode.LVP])
    def test_second_replay_continues_identically(self, mode, live_pin):
        sim = TraceSimulator(mode)
        get_workload("swaptions", small=True).execute(sim, SEED)
        output = get_workload("blackscholes", small=True).execute(sim, SEED)
        assert record(sim, output) == live_pin["continuation"][mode.value]


class TestObjectTraceInput:
    """The default LVA configuration, spelled out, runs like the default."""

    def test_vector_replay_accepts_object_trace(self, default_pin):
        run_pinned("swaptions", Mode.LVA, default_pin["swaptions"]["lva"], ApproximatorConfig())
