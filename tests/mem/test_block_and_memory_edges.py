"""Remaining small edges: cache recompose and block addresses."""

import pytest

from repro.mem.cache import CacheConfig, SetAssociativeCache


class TestRecompose:
    def test_writeback_address_is_block_aligned_original(self):
        """The writeback address reported on eviction must reconstruct the
        victim's block address exactly (index+tag round trip)."""
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=4 * 64, associativity=1, block_bytes=64)
        )
        victim_addr = 0x12340  # block-aligned
        cache.fill(victim_addr)
        cache.probe(victim_addr, is_write=True)
        # Next fill maps to the same set (same index bits) and evicts it.
        conflicting = victim_addr + 4 * 64
        result = cache.fill(conflicting)
        assert result.writeback == victim_addr

    @pytest.mark.parametrize("addr", [0x0, 0x1FC0, 0xABCDE40, 0x7FFFFFC0])
    def test_roundtrip_many_addresses(self, addr):
        cache = SetAssociativeCache(
            CacheConfig(size_bytes=2 * 64, associativity=1, block_bytes=64)
        )
        cache.fill(addr)
        cache.probe(addr, is_write=True)
        result = cache.fill(addr + 2 * 64)
        assert result.writeback == cache.block_address(addr)


class TestBlockAddressHelper:
    def test_alignment(self):
        cache = SetAssociativeCache(CacheConfig())
        assert cache.block_address(0x1039) == 0x1000
        assert cache.block_address(0x1000) == 0x1000
        assert cache.block_address(0x103F) == 0x1000
        assert cache.block_address(0x1040) == 0x1040
