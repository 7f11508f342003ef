"""Main memory: the flat Table II latency the full-system simulator charges.

Every L2 miss of :class:`~repro.fullsystem.system.FullSystemSimulator`
pays ``FullSystemConfig.memory_latency`` cycles; there is no other
memory model.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fullsystem import FullSystemConfig, FullSystemSimulator
from repro.sim.trace import LoadEvent, Trace


def loads(*pairs):
    """A trace of precise loads, one ``(tid, addr)`` pair each."""
    return Trace([
        LoadEvent(tid=tid, pc=0x400, addr=addr, value=0, is_float=False,
                  approximable=False, gap=0)
        for tid, addr in pairs
    ])


class TestMainMemory:
    def test_table_ii_latency(self):
        assert FullSystemConfig().memory_latency == 160
        trace = loads((0, 0x1000))
        slow = FullSystemSimulator(FullSystemConfig()).run(trace)
        free = FullSystemSimulator(FullSystemConfig(memory_latency=0)).run(trace)
        assert slow.memory_accesses == free.memory_accesses == 1
        assert slow.total_miss_latency - free.total_miss_latency == 160

    def test_access_counting(self):
        # Two cores miss on one block: the first goes to memory, the
        # second finds it in the shared L2.
        result = FullSystemSimulator(FullSystemConfig()).run(loads((0, 0x1000), (1, 0x1000)))
        assert result.raw_misses == result.l2_accesses == 2
        assert result.memory_accesses == 1

    def test_invalid_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            FullSystemConfig(memory_latency=-1)
