"""Memory substrate: blocks, replacement, caches and MSI coherence.

These are the structures of the paper's evaluation platform (64 KB
private L1s in the Pin phase; 16 KB L1s + 512 KB shared L2 in the
full-system phase, Table II), built from scratch. Main memory is the
flat Table II latency the full-system simulator charges per L2 miss.
"""

from repro.mem.block import CacheBlock, CoherenceState
from repro.mem.cache import AccessResult, CacheConfig, SetAssociativeCache
from repro.mem.coherence import MSIDirectory
from repro.mem.replacement import LRUPolicy, ReplacementPolicy

__all__ = [
    "AccessResult",
    "CacheBlock",
    "CacheConfig",
    "CoherenceState",
    "LRUPolicy",
    "MSIDirectory",
    "ReplacementPolicy",
    "SetAssociativeCache",
]
