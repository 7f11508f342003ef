"""The phase-1 load path: the L1 in front of the next memory level.

:class:`~repro.sim.tracesim.TraceSimulator` owns the phase-1 L1; every
miss it fetches goes to the next level (phase 1 models no L2, so the
L1's fills and writebacks are the traffic to it).
"""

from repro.mem.cache import CacheConfig
from repro.predictors.base import PredictorDecision
from repro.sim.tracesim import Mode, TraceSimulator

#: Two direct-mapped sets: 0x0 and 0x80 conflict.
TINY_L1 = CacheConfig(size_bytes=2 * 64, associativity=1, block_bytes=64)


def tiny_sim(mode: Mode = Mode.PRECISE) -> TraceSimulator:
    sim = TraceSimulator(mode, l1_config=TINY_L1)
    for addr in (0x0, 0x80, 0x1000):
        sim.values[addr] = 1.0
    return sim


class NeverFetch:
    """A technique that serves every miss with a value and skips the fetch."""

    def on_miss(self, pc, is_float, addr=0):
        return PredictorDecision(predicted=True, value=0.5, fetch=False, token=None)


class TestLoadPath:
    def test_cold_load_goes_to_memory(self):
        sim = tiny_sim()
        sim.load(0x400, 0x1000)
        assert sim.stats.raw_misses == sim.stats.fetches == 1
        assert sim.l1.contains(0x1000)

    def test_second_load_hits_l1(self):
        sim = tiny_sim()
        sim.load(0x400, 0x1000)
        sim.load(0x400, 0x1000)
        assert sim.stats.raw_misses == sim.stats.fetches == 1
        assert sim.l1.stats.hits == 1

    def test_l1_eviction_falls_back_to_l2(self):
        """An evicted block misses again and is fetched from the next level."""
        sim = tiny_sim()
        sim.load(0x400, 0x0)
        sim.load(0x400, 0x80)  # same direct-mapped set: evicts 0x0
        sim.load(0x400, 0x0)
        assert sim.stats.raw_misses == sim.stats.fetches == 3
        assert sim.l1.stats.evictions == 2

    def test_fetch_on_miss_false_skips_everything(self):
        sim = tiny_sim(Mode.LVA)
        sim.technique = NeverFetch()
        assert sim.load_approx(0x400, 0x1000) == 0.5
        assert sim.stats.fetches == 0
        assert sim.stats.fetches_avoided == sim.stats.covered_misses == 1
        # Next load still misses: nothing was fetched.
        assert not sim.l1.contains(0x1000)
        sim.load_approx(0x400, 0x1000)
        assert sim.stats.raw_misses == 2

    def test_dirty_l1_victim_written_back_to_l2(self):
        sim = tiny_sim()
        sim.load(0x400, 0x0)
        sim.store(0x0, 2.0)  # a store hit dirties the block
        sim.load(0x400, 0x80)  # evicts dirty 0x0 to the next level
        assert sim.l1.stats.writebacks == 1
        assert not sim.l1.contains(0x0)
