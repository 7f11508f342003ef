"""Property tests for the live access path.

A precise :class:`TraceSimulator` and :class:`PreciseMemory` share the
frontend bookkeeping (instruction count, value store, recorder) and differ
only in their ``_serve_load``/``_serve_store`` overrides. On any program
both must match a plain reference model of that bookkeeping: the values
returned, the errors raised, the instruction count and the recorded
trace.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError
from repro.mem.cache import CacheConfig
from repro.sim.frontend import AddressSpace, PreciseMemory
from repro.sim.trace import LoadEvent, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator

#: Elements in the one region every program addresses (12 cache blocks).
COUNT = 96
#: A tiny L1 (4 sets x 2 ways) so short programs already evict.
TINY_L1 = CacheConfig(size_bytes=512, associativity=2, block_bytes=64)

# Indices reach one past each end of the region to exercise out-of-range
# accesses; unwritten elements exercise the value-store miss.
index = st.integers(-1, COUNT)
pc = st.integers(0x400000, 0x400010)
value = st.one_of(st.integers(-(2**40), 2**40), st.floats(allow_nan=False))

op = st.one_of(
    st.tuples(st.just("store"), index, value, st.booleans()),
    st.tuples(st.just("load"), pc, index),
    st.tuples(st.just("load_approx"), pc, index, st.booleans()),
    st.tuples(st.just("advance"), st.integers(0, 50)),
    st.tuples(st.just("set_thread"), st.integers(0, 3)),
)


def _apply(frontend, region, step):
    """Run one step; return its result or the error it raised."""
    kind = step[0]
    try:
        if kind == "store":
            _, i, v, streaming = step
            return frontend.store(region.addr(i), v, streaming=streaming)
        if kind == "load":
            _, p, i = step
            return frontend.load(p, region.addr(i))
        if kind == "load_approx":
            _, p, i, is_float = step
            return frontend.load_approx(p, region.addr(i), is_float=is_float)
        if kind == "advance":
            return frontend.advance(step[1])
        return frontend.set_thread(step[1])
    except AddressError as exc:
        return ("AddressError", str(exc))


class ReferenceFrontend:
    """The frontend contract written out plainly: a value dict, an
    instruction counter and the events a recorder must receive."""

    def __init__(self, record_stores: bool) -> None:
        self.space = AddressSpace()
        self.values = {}
        self.instructions = 0
        self.events = []
        self._record_stores = record_stores
        self._tid = 0
        self._gaps = {}

    def _take_gap(self) -> int:
        return self._gaps.pop(self._tid, 0)

    def _add_gap(self, instructions: int) -> None:
        self._gaps[self._tid] = self._gaps.get(self._tid, 0) + instructions

    def set_thread(self, tid):
        self._tid = tid

    def advance(self, instructions=1):
        self.instructions += instructions
        self._add_gap(instructions)

    def store(self, addr, value, streaming=False):
        self.instructions += 1
        self.values[addr] = value
        if self._record_stores:
            event = LoadEvent(self._tid, 0, addr, 0, False, False, self._take_gap(), True)
            self.events.append(event)
        else:
            self._add_gap(1)

    def _load(self, pc, addr, approximable, is_float):
        self.instructions += 1
        if addr not in self.values:
            raise AddressError(f"load from unwritten address {addr:#x} (pc={pc:#x})")
        value = self.values[addr]
        event = LoadEvent(self._tid, pc, addr, value, is_float, approximable, self._take_gap())
        self.events.append(event)
        return value

    def load(self, pc, addr):
        return self._load(pc, addr, False, True)

    def load_approx(self, pc, addr, is_float=True):
        return self._load(pc, addr, True, is_float)


def _run(frontend, program):
    region = frontend.space.alloc("data", COUNT)
    return [_apply(frontend, region, step) for step in program]


@settings(max_examples=150, deadline=None)
@given(program=st.lists(op, max_size=120), record_stores=st.booleans())
def test_frontends_match_the_reference_model(program, record_stores):
    ref = ReferenceFrontend(record_stores)
    expected = _run(ref, program)
    sim_recorder = TraceRecorder(record_stores=record_stores)
    sim = TraceSimulator(Mode.PRECISE, l1_config=TINY_L1, recorder=sim_recorder)
    mem_recorder = TraceRecorder(record_stores=record_stores)
    mem = PreciseMemory(recorder=mem_recorder)
    for frontend, recorder in ((mem, mem_recorder), (sim, sim_recorder)):
        results = _run(frontend, program)
        assert results == expected
        assert [type(r) for r in results] == [type(r) for r in expected]
        assert frontend.instructions == ref.instructions
        assert recorder.trace.events == ref.events
    stats = sim.finish()
    assert stats.instructions == ref.instructions
    assert stats.loads == sum(1 for e in ref.events if not e.is_store)
