"""A set-associative, write-back cache model.

Used for the 64 KB L1s of the Pin-style design-space phase and the
16 KB L1 / 512 KB L2 of the full-system phase (Table II). The cache tracks
block presence and metadata; functional data lives in the value store of
the simulation front-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.mem.block import CacheBlock
from repro.mem.replacement import LRUPolicy, ReplacementPolicy


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    Attributes:
        size_bytes: Total capacity. Must be divisible by
            ``block_bytes * associativity``.
        associativity: Ways per set (1 = direct mapped).
        block_bytes: Cache line size; the paper uses 64 B throughout.
        latency: Access latency in cycles (1 for L1, 6 for L2 in Table II).
    """

    size_bytes: int = 64 * 1024
    associativity: int = 8
    block_bytes: int = 64
    latency: int = 1

    def __post_init__(self) -> None:
        if self.block_bytes <= 0 or self.block_bytes & (self.block_bytes - 1):
            raise ConfigurationError("block_bytes must be a positive power of two")
        if self.associativity < 1:
            raise ConfigurationError("associativity must be >= 1")
        if self.size_bytes < self.block_bytes * self.associativity:
            raise ConfigurationError("cache smaller than one set")
        sets = self.size_bytes // (self.block_bytes * self.associativity)
        if sets * self.block_bytes * self.associativity != self.size_bytes:
            raise ConfigurationError("size must be a whole number of sets")
        if sets & (sets - 1):
            raise ConfigurationError("number of sets must be a power of two")
        if self.latency < 0:
            raise ConfigurationError("latency must be >= 0")

    @property
    def num_sets(self) -> int:
        """Number of sets = size / (block * ways)."""
        return self.size_bytes // (self.block_bytes * self.associativity)


@dataclass(slots=True)
class AccessResult:
    """Outcome of one cache access.

    The unremarkable outcomes (plain hit, plain miss) are returned as
    shared singleton instances so the per-load hot path allocates nothing;
    treat results as read-only.
    """

    hit: bool
    #: Block address (block-aligned byte address) of a dirty block evicted
    #: to make room, or None. Only produced by fills.
    writeback: Optional[int] = None
    #: True when the access hit a block that was prefetched and had not yet
    #: been demanded (a *useful* prefetch).
    prefetch_hit: bool = False


#: Shared results for the overwhelmingly common outcomes (see AccessResult).
_HIT = AccessResult(hit=True)
_MISS = AccessResult(hit=False)

#: Victim key of plain-LRU fills.
_LAST_USE = attrgetter("last_use")


@dataclass(slots=True)
class CacheStats:
    """Per-cache event counters."""

    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0
    useful_prefetches: int = 0

    @property
    def accesses(self) -> int:
        """Probes that updated the cache: hits plus misses."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Misses / accesses (0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict:
        """Plain-dict view, handy for reports."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
            "useful_prefetches": self.useful_prefetches,
            "miss_rate": self.miss_rate,
        }


class SetAssociativeCache:
    """Set-associative cache with pluggable replacement (default LRU).

    Each set is a ``tag -> CacheBlock`` dictionary, so lookups are O(1)
    rather than a way scan — the simulators probe the cache on every load,
    so this is the hottest path in the whole library.
    """

    def __init__(
        self,
        config: Optional[CacheConfig] = None,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
    ) -> None:
        self.config = config or CacheConfig()
        self.policy = policy or LRUPolicy()
        self.name = name
        self.stats = CacheStats()
        self._sets: List[dict] = [{} for _ in range(self.config.num_sets)]
        self._clock = 0
        self._offset_bits = self.config.block_bytes.bit_length() - 1
        self._index_mask = self.config.num_sets - 1
        self._index_bits = self._index_mask.bit_length()
        self._associativity = self.config.associativity
        # Plain LRU (the default) only bumps recency on a hit; inlining that
        # one store skips a virtual dispatch on the hottest path. Any other
        # policy — including an LRU subclass — goes through on_hit.
        self._plain_lru = type(self.policy) is LRUPolicy

    # ------------------------------------------------------------------ #
    # Address helpers                                                    #
    # ------------------------------------------------------------------ #

    def block_address(self, addr: int) -> int:
        """Block-aligned byte address containing ``addr``."""
        return addr & ~(self.config.block_bytes - 1)

    def _decompose(self, addr: int) -> tuple:
        """(set index, tag) of ``addr``; the per-access methods inline it."""
        block = addr >> self._offset_bits
        return block & self._index_mask, block >> self._index_bits

    def _find(self, addr: int) -> Optional[CacheBlock]:
        block = addr >> self._offset_bits
        return self._sets[block & self._index_mask].get(block >> self._index_bits)

    # ------------------------------------------------------------------ #
    # Accesses                                                           #
    # ------------------------------------------------------------------ #

    def access(self, addr: int, is_write: bool = False) -> AccessResult:
        """Probe the cache for ``addr``; updates stats and recency.

        A miss does *not* implicitly fill — the caller decides whether a
        fetch happens at all (that decoupling is the heart of the paper's
        approximation degree). Call :meth:`fill` when the block arrives.

        Plain hits and misses return shared :class:`AccessResult`
        singletons (no allocation); callers must not mutate results.
        The simulators use :meth:`probe`; this richer form also reports
        whether the hit consumed a prefetch.
        """
        block = self._find(addr)
        prefetch_hit = block is not None and block.prefetched
        if not self.probe(addr, is_write):
            return _MISS
        if prefetch_hit:
            return AccessResult(hit=True, prefetch_hit=True)
        return _HIT

    def probe(self, addr: int, is_write: bool = False) -> bool:
        """Access ``addr`` and return whether it hit.

        Updates stats and recency exactly like :meth:`access` but never
        allocates. The simulators probe the L1 on every load instruction,
        so this is the hottest path in the whole library: it is one frame,
        with the set/tag decomposition inlined.
        """
        clock = self._clock + 1
        self._clock = clock
        stats = self.stats
        block_bits = addr >> self._offset_bits
        block = self._sets[block_bits & self._index_mask].get(
            block_bits >> self._index_bits
        )
        if block is None:
            stats.misses += 1
            return False
        stats.hits += 1
        if is_write:
            block.dirty = True
        if self._plain_lru:
            block.last_use = clock
        else:
            self.policy.on_hit(block, clock)
        if block.prefetched:
            stats.useful_prefetches += 1
            block.prefetched = False
        return True

    def write_hit(self, addr: int) -> bool:
        """A write-no-allocate store: a write :meth:`probe` when ``addr``
        is resident, otherwise nothing at all (no stats, no clock tick).

        Returns whether the block was resident. Equivalent to
        ``contains(addr) and probe(addr, is_write=True)`` in one lookup.
        """
        block_bits = addr >> self._offset_bits
        block = self._sets[block_bits & self._index_mask].get(
            block_bits >> self._index_bits
        )
        if block is None:
            return False
        clock = self._clock + 1
        self._clock = clock
        stats = self.stats
        stats.hits += 1
        block.dirty = True
        if self._plain_lru:
            block.last_use = clock
        else:
            self.policy.on_hit(block, clock)
        if block.prefetched:
            stats.useful_prefetches += 1
            block.prefetched = False
        return True

    def contains(self, addr: int) -> bool:
        """Non-destructive presence probe (no stats, no recency update)."""
        return self._find(addr) is not None

    def fill(self, addr: int, prefetched: bool = False) -> AccessResult:
        """Install the block holding ``addr``, evicting if necessary.

        Returns an :class:`AccessResult` whose ``writeback`` carries the
        block address of any dirty victim. Filling a block already present
        is a no-op (e.g. a prefetch racing a demand fetch).
        """
        clock = self._clock + 1
        self._clock = clock
        block_bits = addr >> self._offset_bits
        index = block_bits & self._index_mask
        tag = block_bits >> self._index_bits
        ways = self._sets[index]
        if tag in ways:
            return _HIT
        writeback = None
        if len(ways) >= self._associativity:
            if self._plain_lru:
                # First least-recently-used way in set order, exactly as
                # LRUPolicy.victim picks it, without copying the set.
                victim = min(ways.values(), key=_LAST_USE)
            else:
                blocks = list(ways.values())
                victim = blocks[self.policy.victim(blocks)]
            del ways[victim.tag]
            stats = self.stats
            stats.evictions += 1
            if victim.dirty:
                stats.writebacks += 1
                writeback = self._recompose(index, victim.tag)
            block = victim  # the freed frame takes the new block
        else:
            block = CacheBlock(tag)
        block.fill(tag, clock, prefetched=prefetched)
        ways[tag] = block
        self.stats.fills += 1
        if writeback is None:
            return _MISS
        return AccessResult(hit=False, writeback=writeback)

    def invalidate(self, addr: int) -> bool:
        """Drop the block holding ``addr`` if present (coherence)."""
        block_bits = addr >> self._offset_bits
        ways = self._sets[block_bits & self._index_mask]
        if ways.pop(block_bits >> self._index_bits, None) is None:
            return False
        self.stats.invalidations += 1
        return True

    def _recompose(self, index: int, tag: int) -> int:
        return ((tag << self._index_bits) | index) << self._offset_bits

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    @property
    def resident_blocks(self) -> int:
        """Number of valid blocks currently cached."""
        return sum(len(ways) for ways in self._sets)

    def reset(self) -> None:
        """Invalidate everything and clear statistics."""
        for ways in self._sets:
            ways.clear()
        self.stats = CacheStats()
        self._clock = 0
