"""Replacement policies for set-associative caches.

Policies pick a victim way within one set. They are stateless objects —
all recency metadata lives in the blocks themselves — so one policy
instance can serve every set of every cache.
"""

from __future__ import annotations

import abc
from typing import Sequence

from repro.mem.block import CacheBlock


class ReplacementPolicy(abc.ABC):
    """Strategy interface: choose which way of a set to evict."""

    @abc.abstractmethod
    def victim(self, ways: Sequence[CacheBlock]) -> int:
        """Index of the way to evict. Invalid ways are preferred by caches
        before this is ever consulted, so implementations may assume every
        way is valid."""

    def on_hit(self, block: CacheBlock, now: int) -> None:
        """Metadata update on an access hit (default: bump recency)."""
        block.last_use = now


class LRUPolicy(ReplacementPolicy):
    """Evict the least-recently-used way (the usual L1 choice)."""

    def victim(self, ways: Sequence[CacheBlock]) -> int:
        oldest = 0
        for i, block in enumerate(ways):
            if block.last_use < ways[oldest].last_use:
                oldest = i
        return oldest
