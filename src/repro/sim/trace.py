"""Load traces for the full-system (phase-2) replay.

The full-system simulator is trace-driven, like the paper's two-phase
methodology: phase 1 runs the workload functionally and records every
annotated and precise load with its inter-load instruction gap and thread
id; phase 2 replays the per-thread streams through the 4-core timing model.

Two representations exist:

* :class:`Trace` — a list of :class:`LoadEvent` objects, convenient to
  record into and inspect.
* :class:`PackedTrace` — the same events as a structure-of-arrays (one
  NumPy column per field). This is the replay and persistence format:
  columns serialise straight to ``.npy`` files that the trace store
  memory-maps across sweep workers, and the replay hot loops iterate
  packed columns without per-event dataclass allocation.

``Trace.pack()`` / ``PackedTrace.to_trace()`` round-trip losslessly:
values keep their Python type (int vs float) through a discriminator
column, so replaying a packed trace is bit-identical to replaying the
original event list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

Number = Union[int, float]

#: The canonical column set of a packed trace, in serialisation order.
#: ``value_f``/``value_i`` hold the load value (selected by
#: ``value_is_int``, which preserves the value's *Python type* — the
#: semantic datatype flag ``is_float`` is a separate column because a
#: precise ``load()`` of an integer value is typed float by the frontend).
TRACE_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("tid", "int32"),
    ("pc", "int64"),
    ("addr", "int64"),
    ("value_f", "float64"),
    ("value_i", "int64"),
    ("value_is_int", "bool"),
    ("is_float", "bool"),
    ("approximable", "bool"),
    ("gap", "int64"),
    ("is_store", "bool"),
)


@dataclass(frozen=True, slots=True)
class LoadEvent:
    """One dynamic load in a captured trace.

    Attributes:
        tid: Thread id (workloads are configured with 4 threads).
        pc: Instruction address of the load.
        addr: Byte address of the data.
        value: The precise value in memory at trace time (used to train the
            approximator during replay).
        is_float: Data type of the load (drives confidence gating).
        approximable: True when the load was annotated approximate.
        gap: Non-load instructions executed by this thread since its
            previous load.
        is_store: True for store events (recorded only when the recorder
            is created with ``record_stores=True``); stores drive the MSI
            coherence traffic in the full-system replay.
    """

    tid: int
    pc: int
    addr: int
    value: Number
    is_float: bool
    approximable: bool
    gap: int
    is_store: bool = False


def _is_int_value(value: Number) -> bool:
    """Whether ``value`` round-trips through the integer column."""
    return isinstance(value, (int, np.integer))


@dataclass(frozen=True, slots=True, eq=False)
class PackedTrace:
    """A trace as a structure of arrays — the replay/persistence format.

    One NumPy array per :class:`LoadEvent` field (see
    :data:`TRACE_COLUMNS`). Columns may be memory-mapped read-only views
    straight out of the on-disk trace store; nothing here mutates them.
    """

    tid: np.ndarray
    pc: np.ndarray
    addr: np.ndarray
    value_f: np.ndarray
    value_i: np.ndarray
    value_is_int: np.ndarray
    is_float: np.ndarray
    approximable: np.ndarray
    gap: np.ndarray
    is_store: np.ndarray

    def __len__(self) -> int:
        return len(self.tid)

    def columns(self) -> Dict[str, np.ndarray]:
        """Name -> array, in :data:`TRACE_COLUMNS` order."""
        return {name: getattr(self, name) for name, _ in TRACE_COLUMNS}

    @property
    def nbytes(self) -> int:
        """Total size of the column data in bytes."""
        return sum(array.nbytes for array in self.columns().values())

    @property
    def total_instructions(self) -> int:
        """Loads plus recorded gaps across all threads."""
        return len(self) + int(self.gap.sum())

    # ------------------------------------------------------------------ #
    # Construction                                                       #
    # ------------------------------------------------------------------ #

    def select(self, indices: np.ndarray) -> "PackedTrace":
        """A new packed trace of the rows at ``indices`` (in that order)."""
        return PackedTrace(
            **{name: array[indices] for name, array in self.columns().items()}
        )

    # ------------------------------------------------------------------ #
    # Views                                                              #
    # ------------------------------------------------------------------ #

    def value_list(self) -> List[Number]:
        """Per-event values as native Python ints/floats (exact)."""
        ints = self.value_i.tolist()
        floats = self.value_f.tolist()
        flags = self.value_is_int.tolist()
        return [i if flag else f for i, f, flag in zip(ints, floats, flags)]

    def event_tuples(self) -> List[tuple]:
        """Events as ``(pc, addr, value, is_float, approximable, gap,
        is_store)`` tuples, in trace order.

        The replay hot-loop format: one list indexing per event instead of
        seven attribute reads on a dataclass, and values are native Python
        scalars rather than NumPy ones.
        """
        return list(
            zip(
                self.pc.tolist(),
                self.addr.tolist(),
                self.value_list(),
                self.is_float.tolist(),
                self.approximable.tolist(),
                self.gap.tolist(),
                self.is_store.tolist(),
            )
        )

    def thread_order(self) -> List[int]:
        """Thread ids in order of first appearance in the trace."""
        tids, first = np.unique(np.asarray(self.tid), return_index=True)
        return [int(tids[j]) for j in np.argsort(first, kind="stable")]

    def per_core_indices(self, num_cores: int) -> Dict[int, np.ndarray]:
        """Row indices of each core's replay queue, vectorized.

        Replicates the full-system scheduling semantics exactly: threads
        are pinned ``tid % num_cores`` and, when several threads share a
        core, their *whole streams are concatenated* in thread
        first-appearance order (not interleaved in global order). Core
        keys also appear in first-appearance order.
        """
        tid = np.asarray(self.tid)
        buckets: Dict[int, List[np.ndarray]] = {}
        for t in self.thread_order():
            buckets.setdefault(t % num_cores, []).append(np.flatnonzero(tid == t))
        return {
            core: chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
            for core, chunks in buckets.items()
        }

    def to_trace(self) -> "Trace":
        """Unpack to the object-list representation (lossless)."""
        events = list(
            map(
                LoadEvent,
                self.tid.tolist(),
                self.pc.tolist(),
                self.addr.tolist(),
                self.value_list(),
                self.is_float.tolist(),
                self.approximable.tolist(),
                self.gap.tolist(),
                self.is_store.tolist(),
            )
        )
        return Trace(events)


class Trace:
    """An ordered collection of :class:`LoadEvent`, with per-thread views."""

    def __init__(self, events: Optional[List[LoadEvent]] = None) -> None:
        self.events: List[LoadEvent] = list(events) if events else []

    def append(self, event: LoadEvent) -> None:
        """Add an event (in global program order)."""
        self.events.append(event)

    def per_thread(self) -> Dict[int, List[LoadEvent]]:
        """Split into per-thread streams, preserving order.

        One O(n) pass; consecutive events from the same thread (the
        common case — workloads issue bursts per thread) reuse the
        previous stream without a dict probe.
        """
        streams: Dict[int, List[LoadEvent]] = {}
        last_tid: Optional[int] = None
        append = None
        for event in self.events:
            tid = event.tid
            if tid != last_tid:
                stream = streams.get(tid)
                if stream is None:
                    stream = streams[tid] = []
                append = stream.append
                last_tid = tid
            append(event)
        return streams

    @property
    def total_instructions(self) -> int:
        """Loads plus recorded gaps across all threads."""
        return len(self.events) + sum(event.gap for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[LoadEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------ #
    # Packing                                                            #
    # ------------------------------------------------------------------ #

    def pack(self) -> PackedTrace:
        """The structure-of-arrays form of this trace (lossless).

        Values are stored in two columns (float and int) selected by
        their Python type so both datatypes round-trip exactly;
        ``PackedTrace.to_trace()`` inverts this method.
        """
        events = self.events
        value_is_int = [_is_int_value(e.value) for e in events]
        return PackedTrace(
            tid=np.array([e.tid for e in events], dtype=np.int32),
            pc=np.array([e.pc for e in events], dtype=np.int64),
            addr=np.array([e.addr for e in events], dtype=np.int64),
            value_f=np.array(
                [0.0 if flag else e.value for e, flag in zip(events, value_is_int)],
                dtype=np.float64,
            ),
            value_i=np.array(
                [int(e.value) if flag else 0 for e, flag in zip(events, value_is_int)],
                dtype=np.int64,
            ),
            value_is_int=np.array(value_is_int, dtype=bool),
            is_float=np.array([e.is_float for e in events], dtype=bool),
            approximable=np.array([e.approximable for e in events], dtype=bool),
            gap=np.array([e.gap for e in events], dtype=np.int64),
            is_store=np.array([e.is_store for e in events], dtype=bool),
        )


class TraceRecorder:
    """Attachable sink that captures LoadEvents from a memory front-end.

    Front-ends call :meth:`on_load` for every load and :meth:`on_advance`
    for non-load instructions; the recorder tracks per-thread gaps.
    """

    def __init__(self, record_stores: bool = False) -> None:
        self.trace = Trace()
        self.record_stores = record_stores
        self._gaps: Dict[int, int] = {}

    def on_advance(self, tid: int, instructions: int) -> None:
        """Accumulate non-load instructions for ``tid``."""
        self._gaps[tid] = self._gaps.get(tid, 0) + instructions

    def on_store(self, tid: int, addr: int) -> None:
        """Record one store (only when ``record_stores`` is enabled);
        otherwise it is folded into the gap by the front-end."""
        gap = self._gaps.pop(tid, 0)
        self.trace.append(
            LoadEvent(
                tid, 0, addr, 0, is_float=False, approximable=False,
                gap=gap, is_store=True,
            )
        )

    def on_load(
        self,
        tid: int,
        pc: int,
        addr: int,
        value: Number,
        is_float: bool,
        approximable: bool,
    ) -> None:
        """Record one load, consuming the accumulated gap."""
        gap = self._gaps.pop(tid, 0)
        self.trace.append(
            LoadEvent(tid, pc, addr, value, is_float, approximable, gap)
        )
