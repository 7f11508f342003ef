"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.mem.replacement import FIFOPolicy, LRUPolicy


def small_cache(assoc=2, sets=4, block=64):
    return SetAssociativeCache(
        CacheConfig(size_bytes=assoc * sets * block, associativity=assoc, block_bytes=block)
    )


class TestConfig:
    def test_paper_phase1_l1(self):
        cfg = CacheConfig(size_bytes=64 * 1024, associativity=8, block_bytes=64)
        assert cfg.num_sets == 128

    def test_paper_phase2_l1(self):
        cfg = CacheConfig(size_bytes=16 * 1024, associativity=8, block_bytes=64)
        assert cfg.num_sets == 32

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(block_bytes=48)

    def test_cache_smaller_than_set_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=64, associativity=4, block_bytes=64)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(size_bytes=3 * 64 * 2, associativity=2, block_bytes=64)


class TestAccess:
    def test_cold_miss_then_hit_after_fill(self):
        cache = small_cache()
        assert not cache.access(0x1000).hit
        cache.fill(0x1000)
        assert cache.access(0x1000).hit

    def test_miss_does_not_implicitly_fill(self):
        # The fetch decoupling at the heart of approximation degree.
        cache = small_cache()
        cache.access(0x1000)
        assert not cache.access(0x1000).hit

    def test_same_block_different_offset_hits(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.access(0x1008).hit
        assert cache.access(0x103F).hit

    def test_adjacent_block_misses(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert not cache.access(0x1040).hit

    def test_write_sets_dirty_and_eviction_reports_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.fill(0x0)
        cache.access(0x0, is_write=True)
        result = cache.fill(0x40)  # evicts the dirty block
        assert result.writeback == 0x0

    def test_clean_eviction_has_no_writeback(self):
        cache = small_cache(assoc=1, sets=1)
        cache.fill(0x0)
        assert cache.fill(0x40).writeback is None

    def test_fill_existing_block_is_noop(self):
        cache = small_cache()
        cache.fill(0x1000)
        cache.fill(0x1000)
        assert cache.resident_blocks == 1

    def test_invalidate(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.access(0x1000).hit
        assert not cache.invalidate(0x1000)

    def test_contains_does_not_touch_stats(self):
        cache = small_cache()
        cache.fill(0x1000)
        before = cache.stats.accesses
        cache.contains(0x1000)
        assert cache.stats.accesses == before


class TestLRU:
    def test_lru_evicts_least_recent(self):
        cache = small_cache(assoc=2, sets=1)
        cache.fill(0x0)
        cache.fill(0x40)
        cache.access(0x0)          # 0x0 is now most recent
        cache.fill(0x80)           # evicts 0x40
        assert cache.access(0x0).hit
        assert not cache.access(0x40).hit

    def test_fifo_ignores_recency(self):
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=2 * 64, associativity=2, block_bytes=64),
            policy=FIFOPolicy(),
        )
        cache.fill(0x0)
        cache.fill(0x40)
        cache.access(0x0)
        cache.fill(0x80)           # evicts 0x0 (inserted first) despite recency
        assert not cache.access(0x0).hit
        assert cache.access(0x40).hit


class TestPrefetchTracking:
    def test_prefetch_hit_counted_once(self):
        cache = small_cache()
        cache.fill(0x1000, prefetched=True)
        first = cache.access(0x1000)
        second = cache.access(0x1000)
        assert first.prefetch_hit and not second.prefetch_hit
        assert cache.stats.useful_prefetches == 1


class TestStats:
    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0x0)
        cache.fill(0x0)
        cache.access(0x0)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_reset(self):
        cache = small_cache()
        cache.fill(0x0)
        cache.access(0x0)
        cache.reset()
        assert cache.stats.accesses == 0
        assert cache.resident_blocks == 0


class TestProperties:
    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=200))
    def test_capacity_never_exceeded(self, addrs):
        cache = small_cache(assoc=2, sets=4)
        for addr in addrs:
            if not cache.access(addr).hit:
                cache.fill(addr)
        assert cache.resident_blocks <= 8

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 0xFFF), min_size=1, max_size=100))
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache = small_cache()
        for addr in addrs:
            if not cache.access(addr).hit:
                cache.fill(addr)
        assert cache.stats.hits + cache.stats.misses == cache.stats.accesses

    @settings(max_examples=30)
    @given(st.lists(st.integers(0, 0x1FFF), min_size=1, max_size=100))
    def test_immediate_refetch_always_hits(self, addrs):
        cache = small_cache()
        for addr in addrs:
            cache.fill(addr)
            assert cache.access(addr).hit


class SubclassedLRU(LRUPolicy):
    """Behaves exactly like LRUPolicy but forces the generic policy path
    (the cache only inlines recency and victim choice for plain LRU)."""


cache_op = st.one_of(
    st.tuples(st.just("fill"), st.integers(0, 0x1FFF), st.booleans()),
    st.tuples(st.just("probe"), st.integers(0, 0x1FFF), st.booleans()),
    st.tuples(st.just("write_hit"), st.integers(0, 0x1FFF)),
    st.tuples(st.just("access"), st.integers(0, 0x1FFF), st.booleans()),
    st.tuples(st.just("invalidate"), st.integers(0, 0x1FFF)),
)


def _drive(cache, ops):
    outcomes = []
    for kind, addr, *flag in ops:
        if kind == "fill":
            outcomes.append(cache.fill(addr, prefetched=flag[0]))
        elif kind == "probe":
            outcomes.append(cache.probe(addr, is_write=flag[0]))
        elif kind == "access":
            outcomes.append(cache.access(addr, is_write=flag[0]))
        else:
            outcomes.append(getattr(cache, kind)(addr))
    return outcomes


def _resident(cache):
    return sorted(
        (cache._recompose(index, block.tag), block.dirty, block.prefetched, block.last_use)
        for index, ways in enumerate(cache._sets)
        for block in ways.values()
    )


class ComposedWriteHit(SetAssociativeCache):
    """write_hit spelled as the two calls it replaces."""

    def write_hit(self, addr):
        return self.contains(addr) and self.probe(addr, is_write=True)


class TestPlainLRUMatchesPolicyPath:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(cache_op, max_size=300))
    def test_same_stats_blocks_and_writebacks(self, ops):
        config = CacheConfig(size_bytes=2 * 4 * 64, associativity=2, block_bytes=64)
        plain = SetAssociativeCache(config)
        generic = SetAssociativeCache(config, policy=SubclassedLRU())
        assert plain._plain_lru and not generic._plain_lru
        assert _drive(plain, ops) == _drive(generic, ops)
        assert plain.stats == generic.stats
        assert _resident(plain) == _resident(generic)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(cache_op, max_size=300))
    def test_write_hit_is_contains_then_write_probe(self, ops):
        config = CacheConfig(size_bytes=2 * 4 * 64, associativity=2, block_bytes=64)
        fused = SetAssociativeCache(config)
        composed = ComposedWriteHit(config)
        assert _drive(fused, ops) == _drive(composed, ops)
        assert fused.stats == composed.stats
        assert _resident(fused) == _resident(composed)

    def test_write_hit_is_a_write_probe_only_when_resident(self):
        cache = small_cache()
        assert not cache.write_hit(0x40)
        assert cache.stats.accesses == 0
        cache.fill(0x40)
        assert cache.write_hit(0x44)
        assert cache.stats.hits == 1 and cache.stats.accesses == 1
        assert cache.fill(0x40 + 4 * 64).writeback is None
        assert cache.fill(0x40 + 8 * 64).writeback == 0x40
