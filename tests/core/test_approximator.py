"""Behavioural tests for the load value approximator (Section III)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.approximator import DelayQueue, LoadValueApproximator
from repro.core.config import INFINITE_WINDOW, ApproximatorConfig

PC = 0x4000


def warm(approx: LoadValueApproximator, values, pc=PC, is_float=True):
    """Feed a sequence of (miss, train) rounds with the given actual values."""
    for value in values:
        decision = approx.on_miss(pc, is_float)
        if decision.token is not None:
            approx.train(decision.token, value)


class TestColdBehaviour:
    def test_first_miss_cannot_approximate(self):
        approx = LoadValueApproximator()
        decision = approx.on_miss(PC, True)
        assert not decision.approximated
        assert decision.fetch
        assert decision.token is not None

    def test_cold_miss_counted(self):
        approx = LoadValueApproximator()
        approx.on_miss(PC, True)
        assert approx.stats.tag_misses + approx.stats.cold_misses == 1


class TestGeneration:
    def test_warm_entry_returns_lhb_average(self):
        # Values within the 10% window of each other keep confidence up.
        approx = LoadValueApproximator()
        warm(approx, [2.4, 2.5, 2.5, 2.6])
        decision = approx.on_miss(PC, True)
        assert decision.approximated
        assert decision.value == pytest.approx(2.5)

    def test_integer_loads_get_integer_values(self):
        approx = LoadValueApproximator()
        warm(approx, [10, 11], is_float=False)
        decision = approx.on_miss(PC, False)
        assert decision.approximated
        assert isinstance(decision.value, int)

    def test_lhb_keeps_only_last_four(self):
        # Confidence disabled so the outlier cannot gate generation.
        config = ApproximatorConfig(apply_confidence_to_floats=False)
        approx = LoadValueApproximator(config)
        warm(approx, [100.0, 1.0, 2.0, 3.0, 4.0])
        decision = approx.on_miss(PC, True)
        assert decision.value == pytest.approx(2.5)  # the 100.0 fell out

    def test_distinct_pcs_have_distinct_histories(self):
        approx = LoadValueApproximator()
        warm(approx, [1.0, 1.0], pc=0x100)
        warm(approx, [9.0, 9.0], pc=0x200)
        assert approx.on_miss(0x100, True).value == pytest.approx(1.0)
        assert approx.on_miss(0x200, True).value == pytest.approx(9.0)


class TestConfidence:
    def test_bad_approximations_lower_confidence_and_gate(self):
        approx = LoadValueApproximator()
        # Train with wildly different values: every shadow approximation
        # falls outside the 10% window, driving confidence negative.
        warm(approx, [1.0, 100.0, 1.0, 100.0, 1.0, 100.0])
        decision = approx.on_miss(PC, True)
        assert not decision.approximated
        assert decision.fetch  # still fetches (and will retrain)

    def test_stable_values_stay_confident(self):
        approx = LoadValueApproximator()
        warm(approx, [5.0] * 8)
        assert approx.on_miss(PC, True).approximated

    def test_integers_bypass_confidence_by_default(self):
        approx = LoadValueApproximator()
        warm(approx, [1, 1000, 1, 1000, 1, 1000], is_float=False)
        assert approx.on_miss(PC, False).approximated

    def test_integers_gated_when_enabled(self):
        config = ApproximatorConfig(apply_confidence_to_ints=True)
        approx = LoadValueApproximator(config)
        warm(approx, [1, 1000, 1, 1000, 1, 1000], is_float=False)
        assert not approx.on_miss(PC, False).approximated

    def test_infinite_window_never_loses_confidence(self):
        config = ApproximatorConfig(confidence_window=INFINITE_WINDOW)
        approx = LoadValueApproximator(config)
        warm(approx, [1.0, 1e9, -1e9, 3.0, 0.0])
        assert approx.on_miss(PC, True).approximated
        assert approx.stats.confidence_decrements == 0

    def test_confidence_recovers_after_stability(self):
        approx = LoadValueApproximator()
        warm(approx, [1.0, 100.0] * 4)          # destroy confidence
        warm(approx, [50.0] * 20)               # long stable phase
        assert approx.on_miss(PC, True).approximated


class TestApproximationDegree:
    def test_degree_zero_always_fetches(self):
        approx = LoadValueApproximator()
        warm(approx, [2.0, 2.0])
        decision = approx.on_miss(PC, True)
        assert decision.approximated and decision.fetch

    def test_degree_skips_fetches_then_trains(self):
        config = ApproximatorConfig(approximation_degree=2)
        approx = LoadValueApproximator(config)
        warm(approx, [2.0])
        # Training reset the degree counter to 2: the next two
        # approximations skip their fetch, the third fetches and retrains.
        outcomes = []
        for _ in range(3):
            decision = approx.on_miss(PC, True)
            assert decision.approximated
            outcomes.append(decision.fetch)
            if decision.fetch:
                approx.train(decision.token, 2.0)
        assert outcomes == [False, False, True]

    def test_skipped_fetch_reuses_same_value(self):
        config = ApproximatorConfig(approximation_degree=3)
        approx = LoadValueApproximator(config)
        warm(approx, [4.0, 6.0])
        first = approx.on_miss(PC, True)
        second = approx.on_miss(PC, True)
        assert not first.fetch and not second.fetch
        assert first.value == second.value  # LHB untouched between them

    def test_fetch_ratio_is_one_over_degree_plus_one(self):
        degree = 4
        config = ApproximatorConfig(approximation_degree=degree)
        approx = LoadValueApproximator(config)
        warm(approx, [1.0])  # allocate + one training
        fetches = 0
        rounds = 50
        for _ in range(rounds):
            decision = approx.on_miss(PC, True)
            if decision.fetch:
                fetches += 1
                approx.train(decision.token, 1.0)
        # Section III-C: degree 4 -> 1 fetch per 5 misses.
        assert fetches == pytest.approx(rounds / (degree + 1), abs=1)


class TestTraining:
    def test_training_pushes_to_ghb(self):
        config = ApproximatorConfig(ghb_size=2)
        approx = LoadValueApproximator(config)
        warm(approx, [1.0, 2.0, 3.0])
        assert approx.ghb.values() == (2.0, 3.0)

    def test_stale_training_dropped_after_reallocation(self):
        config = ApproximatorConfig(table_entries=1, tag_bits=21)
        approx = LoadValueApproximator(config)
        d1 = approx.on_miss(0x100, True)
        # A second PC maps to the same (only) entry and re-tags it.
        approx.on_miss(0x104, True)
        approx.train(d1.token, 1.0)
        assert approx.stats.stale_trainings == 1

    def test_reset_clears_everything(self):
        approx = LoadValueApproximator()
        warm(approx, [1.0, 2.0])
        approx.reset()
        assert approx.allocated_entries == 0
        assert approx.stats.lookups == 0
        assert not approx.on_miss(PC, True).approximated


class TestStats:
    def test_static_pcs_tracked(self):
        approx = LoadValueApproximator()
        for pc in (0x100, 0x104, 0x100):
            approx.on_miss(pc, True)
        assert approx.stats.static_pcs == {0x100, 0x104}

    def test_coverage_fraction(self):
        approx = LoadValueApproximator()
        # Round 1 is a cold tag miss; rounds 2 and 3 approximate.
        warm(approx, [1.0, 1.0])
        approx.on_miss(PC, True)
        assert approx.stats.coverage == pytest.approx(2 / 3)

    @given(st.lists(st.floats(0.1, 100, allow_nan=False), min_size=1, max_size=40))
    def test_lookup_count_matches_misses(self, values):
        approx = LoadValueApproximator()
        warm(approx, values)
        assert approx.stats.lookups == len(values)


def advance(queue: DelayQueue) -> list:
    """One load instruction, driven as ``TraceSimulator._serve_load``
    drives the queue: bump the clock, pop while something is due."""
    queue.clock += 1
    due = []
    while queue.clock >= queue.next_due:
        due.append(queue.pop())
    return due


class TestDelayQueue:
    def test_items_due_after_delay_ticks(self):
        queue = DelayQueue(2)
        queue.push("token", 1.0)
        assert advance(queue) == []
        assert queue.clock < queue.next_due  # nothing due: one comparison, no pop
        assert advance(queue) == [("token", 1.0)]

    def test_zero_delay_due_next_tick(self):
        queue = DelayQueue(0)
        queue.push("t", 5)
        assert advance(queue) == [("t", 5)]

    def test_fifo_order_preserved(self):
        queue = DelayQueue(1)
        queue.push("a", 1)
        queue.push("b", 2)
        assert [t for t, _ in advance(queue)] == ["a", "b"]

    def test_drain_returns_everything(self):
        queue = DelayQueue(10)
        for i in range(5):
            queue.push(f"t{i}", i)
        assert len(queue.drain()) == 5
        assert len(queue) == 0

    @given(st.integers(0, 16), st.integers(1, 30))
    def test_every_item_eventually_due(self, delay, items):
        queue = DelayQueue(delay)
        for i in range(items):
            queue.push(i, i)
        received = []
        for _ in range(delay + items + 1):
            received.extend(advance(queue))
        assert len(received) == items
