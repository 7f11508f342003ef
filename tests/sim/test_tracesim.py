"""Behavioural tests for the phase-1 trace simulator."""


from repro.core.config import ApproximatorConfig
from repro.mem.cache import CacheConfig
from repro.sim.tracesim import Mode, TraceSimulator

TINY_L1 = CacheConfig(size_bytes=4 * 64, associativity=1, block_bytes=64)


def make_sim(mode=Mode.LVA, config=None, l1=TINY_L1, **kwargs):
    sim = TraceSimulator(mode, approximator_config=config, l1_config=l1, **kwargs)
    return sim


def fill_values(sim, region, values):
    for i, value in enumerate(values):
        sim.store(region.addr(i), value)


class TestPreciseMode:
    def test_every_miss_fetches(self):
        sim = make_sim(Mode.PRECISE)
        region = sim.space.alloc("x", 64)
        fill_values(sim, region, [float(i) for i in range(64)])
        for i in range(64):
            sim.load(0x400, region.addr(i))
        stats = sim.finish()
        assert stats.fetches == stats.raw_misses
        assert stats.covered_misses == 0

    def test_values_always_precise(self):
        sim = make_sim(Mode.PRECISE)
        region = sim.space.alloc("x", 8)
        fill_values(sim, region, [float(i) for i in range(8)])
        for i in range(8):
            assert sim.load_approx(0x400, region.addr(i)) == float(i)

    def test_spatial_locality_hits(self):
        sim = make_sim(Mode.PRECISE)
        region = sim.space.alloc("x", 8)  # one 64B block
        fill_values(sim, region, [1.0] * 8)
        for i in range(8):
            sim.load(0x400, region.addr(i))
        stats = sim.finish()
        assert stats.raw_misses == 1
        assert stats.loads == 8


class TestLVAMode:
    def test_covered_miss_returns_approximation(self):
        sim = make_sim(config=ApproximatorConfig(apply_confidence_to_floats=False))
        region = sim.space.alloc("x", 64, itemsize=64)  # one block each
        fill_values(sim, region, [10.0] * 64)
        returned = [sim.load_approx(0x400, region.addr(i)) for i in range(64)]
        stats = sim.finish()
        assert stats.covered_misses > 0
        # After the first (cold) miss, approximations serve 10.0 anyway.
        assert all(v == 10.0 for v in returned)

    def test_clobbered_value_visible_to_application(self):
        sim = make_sim(config=ApproximatorConfig(apply_confidence_to_floats=False))
        region = sim.space.alloc("x", 64, itemsize=64)
        values = [1.0, 2.0, 3.0, 4.0] + [100.0] * 60
        fill_values(sim, region, values)
        returned = [sim.load_approx(0x400, region.addr(i)) for i in range(64)]
        # The load of 100.0 at index 4 must have been approximated from the
        # LHB average of earlier values — visibly different from memory.
        assert returned[4] != 100.0

    def test_effective_mpki_counts_covered_as_hits(self):
        sim = make_sim(config=ApproximatorConfig(apply_confidence_to_ints=False))
        region = sim.space.alloc("x", 32, itemsize=64)
        fill_values(sim, region, [7] * 32)
        for i in range(32):
            sim.load_approx(0x400, region.addr(i), is_float=False)
        stats = sim.finish()
        assert stats.effective_misses == stats.raw_misses - stats.covered_misses
        assert stats.mpki < stats.raw_mpki

    def test_degree_zero_fetches_every_miss(self):
        sim = make_sim(config=ApproximatorConfig(apply_confidence_to_floats=False))
        region = sim.space.alloc("x", 32, itemsize=64)
        fill_values(sim, region, [5.0] * 32)
        for i in range(32):
            sim.load_approx(0x400, region.addr(i))
        stats = sim.finish()
        assert stats.fetches == stats.raw_misses
        assert stats.fetches_avoided == 0

    def test_degree_skips_fetches(self):
        config = ApproximatorConfig(
            approximation_degree=4, apply_confidence_to_floats=False
        )
        sim = make_sim(config=config)
        region = sim.space.alloc("x", 64, itemsize=64)
        fill_values(sim, region, [5.0] * 64)
        for i in range(64):
            sim.load_approx(0x400, region.addr(i))
        stats = sim.finish()
        assert stats.fetches_avoided > 0
        assert stats.fetches + stats.fetches_avoided == stats.raw_misses
        assert stats.fetches < stats.raw_misses / 2

    def test_skipped_fetch_leaves_block_uncached(self):
        config = ApproximatorConfig(
            approximation_degree=100,
            apply_confidence_to_floats=False,
            value_delay=0,  # train immediately so load 2 finds a warm entry
        )
        sim = make_sim(config=config)
        region = sim.space.alloc("x", 2, itemsize=64)
        fill_values(sim, region, [1.0, 1.0])
        sim.load_approx(0x400, region.addr(0))   # cold: fetch + train
        sim.load_approx(0x400, region.addr(1))   # approximated, no fetch
        assert not sim.l1.contains(region.addr(1))

    def test_non_approximable_loads_behave_precisely(self):
        sim = make_sim()
        region = sim.space.alloc("x", 32, itemsize=64)
        fill_values(sim, region, [float(i) for i in range(32)])
        returned = [sim.load(0x400, region.addr(i)) for i in range(32)]
        stats = sim.finish()
        assert returned == [float(i) for i in range(32)]
        assert stats.covered_misses == 0

    def test_static_pcs_only_count_approx_loads(self):
        sim = make_sim()
        region = sim.space.alloc("x", 2, itemsize=64)
        fill_values(sim, region, [1.0, 2.0])
        sim.load_approx(0x100, region.addr(0))
        sim.load(0x200, region.addr(1))
        stats = sim.finish()
        assert stats.static_approx_pcs == {0x100}


class TestValueDelaySemantics:
    def test_training_deferred_by_delay(self):
        config = ApproximatorConfig(value_delay=4, apply_confidence_to_floats=False)
        sim = make_sim(config=config)
        region = sim.space.alloc("x", 16, itemsize=64)
        fill_values(sim, region, [3.0] * 16)
        sim.load_approx(0x400, region.addr(0))   # miss, trains after 4 loads
        # Immediately after, the approximator is still cold for this PC.
        assert sim.approximator.stats.trainings == 0
        for i in range(1, 5):
            sim.load_approx(0x400, region.addr(i))
        assert sim.approximator.stats.trainings >= 1

    def test_finish_flushes_pending_trainings(self):
        config = ApproximatorConfig(value_delay=100)
        sim = make_sim(config=config)
        region = sim.space.alloc("x", 4, itemsize=64)
        fill_values(sim, region, [1.0] * 4)
        for i in range(4):
            sim.load_approx(0x400, region.addr(i))
        sim.finish()
        assert sim.approximator.stats.trainings == 4


class TestLVPMode:
    def test_always_fetches_one_to_one(self):
        sim = make_sim(Mode.LVP)
        region = sim.space.alloc("x", 32, itemsize=64)
        fill_values(sim, region, [9.0] * 32)
        for i in range(32):
            sim.load_approx(0x400, region.addr(i))
        stats = sim.finish()
        assert stats.fetches == stats.raw_misses

    def test_app_always_sees_precise_values(self):
        sim = make_sim(Mode.LVP)
        region = sim.space.alloc("x", 16, itemsize=64)
        fill_values(sim, region, [float(i) for i in range(16)])
        returned = [sim.load_approx(0x400, region.addr(i)) for i in range(16)]
        assert returned == [float(i) for i in range(16)]

    def test_exact_repeats_are_covered(self):
        sim = make_sim(Mode.LVP, config=ApproximatorConfig(value_delay=0))
        region = sim.space.alloc("x", 32, itemsize=64)
        fill_values(sim, region, [4.0] * 32)
        for i in range(32):
            sim.load_approx(0x400, region.addr(i))
        stats = sim.finish()
        assert stats.covered_misses > 0

    def test_unique_values_never_covered(self):
        sim = make_sim(Mode.LVP)
        region = sim.space.alloc("x", 32, itemsize=64)
        fill_values(sim, region, [float(i) * 1.1 for i in range(32)])
        for i in range(32):
            sim.load_approx(0x400, region.addr(i))
        stats = sim.finish()
        assert stats.covered_misses == 0


class TestPrefetchMode:
    def test_prefetches_increase_fetches(self):
        sim = make_sim(Mode.PREFETCH, prefetch_degree=4)
        region = sim.space.alloc("x", 64, itemsize=64)
        fill_values(sim, region, [1.0] * 64)
        for i in range(0, 64, 4):  # strided misses
            sim.load_approx(0x400, region.addr(i))
        stats = sim.finish()
        assert stats.prefetch_fetches > 0
        assert stats.fetches > stats.raw_misses

    def test_sequential_stream_gets_covered_by_prefetch(self):
        sim = make_sim(Mode.PREFETCH, prefetch_degree=4,
                       l1=CacheConfig(size_bytes=64 * 64, associativity=8))
        region = sim.space.alloc("x", 64, itemsize=64)
        fill_values(sim, region, [1.0] * 64)
        for i in range(64):
            sim.load(0x400, region.addr(i))
        stats = sim.finish()
        # Next-line/stride prefetching turns most of the stream into hits.
        assert stats.raw_misses < 20


class TestStores:
    def test_store_hit_dirties_without_fetch(self):
        sim = make_sim(Mode.PRECISE)
        region = sim.space.alloc("x", 8)
        fill_values(sim, region, [1.0] * 8)
        sim.load(0x400, region.addr(0))       # fetch the block
        fetches_before = sim.stats.fetches
        sim.store(region.addr(1), 9.0)
        assert sim.stats.fetches == fetches_before

    def test_streaming_store_invalidates(self):
        sim = make_sim(Mode.PRECISE)
        region = sim.space.alloc("x", 8)
        fill_values(sim, region, [1.0] * 8)
        sim.load(0x400, region.addr(0))
        assert sim.l1.contains(region.addr(0))
        sim.store(region.addr(0), 2.0, streaming=True)
        assert not sim.l1.contains(region.addr(0))


class TestLifetime:
    def test_finished_simulator_is_freed_without_the_cycle_collector(self):
        # Sweeps build one simulator per point; a reference cycle would
        # keep each one (value store, L1, tables) alive until a full
        # collection, inflating peak memory.
        import gc
        import weakref

        gc.disable()
        try:
            for mode in Mode:
                sim = make_sim(mode)
                region = sim.space.alloc("x", 64)
                fill_values(sim, region, [float(i) for i in range(64)])
                for i in range(64):
                    sim.load_approx(0x400, region.addr(i))
                sim.finish()
                ref = weakref.ref(sim)
                del sim
                assert ref() is None, mode
        finally:
            gc.enable()
