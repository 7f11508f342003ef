"""Cache blocks and coherence states."""

from __future__ import annotations

import enum


class CoherenceState(enum.Enum):
    """MSI coherence states (the protocol of Table II)."""

    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


class CacheBlock:
    """One cache block's bookkeeping state.

    The simulators track presence and metadata only; data values live in
    the workload-facing value store (:mod:`repro.sim.frontend`), mirroring
    how a trace-driven timing simulator separates timing from functional
    state.
    """

    __slots__ = ("tag", "valid", "dirty", "state", "last_use", "prefetched")

    def __init__(self, tag: int = 0) -> None:
        self.tag = tag
        self.valid = False
        self.dirty = False
        self.state = CoherenceState.INVALID
        self.last_use = 0
        #: Set when the block was brought in by a prefetch and not yet
        #: demanded; used to measure useful vs. useless prefetches.
        self.prefetched = False

    def fill(self, tag: int, now: int, prefetched: bool = False) -> None:
        """Install a new block in this frame."""
        self.tag = tag
        self.valid = True
        self.dirty = False
        self.state = CoherenceState.SHARED
        self.last_use = now
        self.prefetched = prefetched

    def invalidate(self) -> None:
        """Drop the block (eviction or coherence invalidation)."""
        self.valid = False
        self.dirty = False
        self.state = CoherenceState.INVALID
        self.prefetched = False

    def __repr__(self) -> str:
        return (
            f"CacheBlock(tag={self.tag:#x}, valid={self.valid}, dirty={self.dirty}, "
            f"state={self.state.value})"
        )
