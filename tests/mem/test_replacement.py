"""Direct tests for replacement policies and cache blocks."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.block import CacheBlock, CoherenceState
from repro.mem.replacement import LRUPolicy


def blocks_with(last_uses):
    out = []
    for i, use in enumerate(last_uses):
        block = CacheBlock(tag=i)
        block.fill(i, now=0)
        block.last_use = use
        out.append(block)
    return out


class TestLRU:
    def test_picks_smallest_last_use(self):
        ways = blocks_with([5, 2, 9, 7])
        assert LRUPolicy().victim(ways) == 1

    def test_on_hit_bumps_recency(self):
        block = CacheBlock(1)
        LRUPolicy().on_hit(block, now=42)
        assert block.last_use == 42

    def test_tie_breaks_to_first(self):
        ways = blocks_with([3, 3, 3])
        assert LRUPolicy().victim(ways) == 0

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=16, unique=True))
    def test_always_minimum(self, uses):
        ways = blocks_with(uses)
        victim = LRUPolicy().victim(ways)
        assert uses[victim] == min(uses)


class TestCacheBlock:
    def test_fill_sets_state(self):
        block = CacheBlock()
        block.fill(0x7, now=3, prefetched=True)
        assert block.valid and block.prefetched
        assert block.state is CoherenceState.SHARED
        assert block.last_use == 3

    def test_invalidate_clears(self):
        block = CacheBlock()
        block.fill(0x7, now=3)
        block.dirty = True
        block.invalidate()
        assert not block.valid and not block.dirty
        assert block.state is CoherenceState.INVALID

    def test_repr_mentions_state(self):
        assert "state=I" in repr(CacheBlock())
