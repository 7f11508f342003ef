"""Vectorized replay kernels over packed trace columns.

:meth:`~repro.sim.tracesim.TraceSimulator.replay` is the hot path under
every phase-1 sweep point, and the scalar interpreters execute one Python
iteration per event. This module replays a :class:`~repro.sim.trace.
PackedTrace` in batched passes instead:

1. **Decompose** the address column into (set, tag) pairs and segment the
   trace into *spans* at store boundaries (``*_kernel`` functions —
   pure numpy, one pass per column).
2. **Oracle** the L1: with every miss fetching its block (true for
   PRECISE and LVP always, and for LVA at approximation degree 0 with no
   fault injection), the hit/miss outcome of every access is a pure
   function of the (address, is_store) stream, so one tight pass over
   the spans precomputes the entire hit mask plus the final cache
   contents. Move-to-end recency lists are exactly LRU here because the
   scalar cache's use clocks are strictly increasing (victims are unique).
3. **Approximator pipeline** as array operations: the context hash of
   every missing PC in a handful of numpy folds
   (:func:`repro.core.hashing.context_hash_array`), the confidence-window
   denominators for the whole miss stream in one pass, and the per-miss
   values gathered only at miss positions. Only the saturating-counter
   state machine itself runs per-miss, over the (much smaller) miss
   stream, with the value-delay queue applied lazily by load ordinal —
   bit-identical to ticking :class:`~repro.core.approximator.DelayQueue`
   once per load, because only miss decisions observe approximator state.
4. **Reconstruct** the architectural state (L1 sets, approximator table,
   GHB, delay clock) so the simulator object is indistinguishable from
   one that replayed scalar.

Configurations whose L1 hit stream is *data-dependent* on technique
state — ``approximation_degree > 0`` (fetch skips) and the GHB
prefetcher (fill injection) — replay through interleaved passes that
fuse the per-set LRU model with the technique core in one loop over
pre-extracted columns (:func:`_lva_degree_replay`,
:func:`_generic_degree_replay`, :func:`_prefetch_replay`). Registry
predictors without a dedicated flat core run inside the oracle pipeline
through the ``MissPredictor`` batch contract
(``on_miss_batch``/``train_batch``, see :mod:`repro.predictors.base`):
:func:`_predictor_miss_driver` hands the predictor maximal runs of
consecutive misses between value-delay training boundaries.

Only genuinely divergent configurations downgrade to the scalar
interpreter now — fault injection, telemetry sampling, non-LRU
replacement, and pre-existing architectural state (see
:func:`vector_ineligibility`); dynamic downgrades warn once per
process. Path selection is driven by ``REPRO_REPLAY_KERNEL``
(``object`` | ``packed`` | ``vector``; default ``vector`` when
eligible). Auto-selection additionally prefers the packed interpreter
for traces shorter than ``REPRO_REPLAY_VECTOR_MIN`` events (default
512) — for tiny traces the kernels' fixed numpy overhead exceeds the
interpreter loop; forcing ``vector`` overrides the threshold (the paths
are bit-identical either way, so this is a pure heuristic, not a
downgrade). ``REPRO_REPLAY_JIT=1`` swaps the oracle loop for a numba-
compiled kernel when numba is importable (optional dependency; silently
import-guarded).
"""

from __future__ import annotations

import os
import warnings
from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.core.confidence import confidence_update_steps
from repro.core.entry import ApproximatorEntry
from repro.core.functions import COMPUTE_FUNCTIONS
from repro.core.hashing import context_hash, context_hash_array
from repro.envspec import (
    REPLAY_JIT_ENV,
    REPLAY_KERNEL_ENV,
    REPLAY_VECTOR_MIN_ENV,
)
from repro.errors import ConfigurationError
from repro.mem.block import CacheBlock, CoherenceState
from repro.predictors import registry as predictor_registry
from repro.prefetch.base import block_of_array

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a module cycle
    from repro.sim.trace import PackedTrace
    from repro.sim.tracesim import TraceSimulator

Number = Union[int, float]

#: Environment variable selecting the replay path; declared (with its
#: cache-key classification) in :mod:`repro.envspec`.
ENV_KERNEL = REPLAY_KERNEL_ENV
#: Environment variable enabling the numba oracle (import-guarded).
ENV_JIT = REPLAY_JIT_ENV
#: Environment variable overriding the small-trace auto-selection
#: threshold (events); declared in :mod:`repro.envspec`.
ENV_VECTOR_MIN = REPLAY_VECTOR_MIN_ENV
#: Default event count below which auto-selection prefers ``packed``.
DEFAULT_VECTOR_MIN = 512
#: The recognised replay paths, in increasing order of vectorization.
REPLAY_PATHS = ("object", "packed", "vector")


class ReplayDowngradeWarning(RuntimeWarning):
    """The vector kernel was requested (or defaulted) but cannot run."""


#: Downgrade reasons already warned about (warn once per process).
_warned: Set[str] = set()


def reset_downgrade_warnings() -> None:
    """Forget which downgrade reasons have warned (test isolation)."""
    _warned.clear()


def _warn_once(reason: str) -> None:
    if reason in _warned:
        return
    _warned.add(reason)
    warnings.warn(
        f"vector replay kernel unavailable ({reason}); "
        "falling back to the scalar packed interpreter",
        ReplayDowngradeWarning,
        stacklevel=3,
    )


# ---------------------------------------------------------------------- #
# Path selection                                                          #
# ---------------------------------------------------------------------- #


def requested_path() -> Optional[str]:
    """The replay path named by ``REPRO_REPLAY_KERNEL``, or None if unset.

    Raises:
        ConfigurationError: on an unrecognised value.
    """
    raw = os.environ.get(ENV_KERNEL, "").strip().lower()
    if not raw:
        return None
    if raw not in REPLAY_PATHS:
        known = ", ".join(REPLAY_PATHS)
        raise ConfigurationError(
            f"{ENV_KERNEL}={raw!r} is not a replay path (known: {known})"
        )
    return raw


def vector_min_events() -> int:
    """Auto-selection threshold: traces shorter than this replay packed.

    Below a few hundred events the vector pipeline's fixed numpy setup
    (column decomposition, span segmentation, state reconstruction)
    costs more than the scalar interpreter loop saves, so auto-selection
    keeps tiny traces on ``packed``. Both paths are bit-identical, so
    the threshold is a pure performance heuristic;
    ``REPRO_REPLAY_KERNEL=vector`` bypasses it.

    Raises:
        ConfigurationError: when ``REPRO_REPLAY_VECTOR_MIN`` is not an
            integer.
    """
    raw = os.environ.get(ENV_VECTOR_MIN, "").strip()
    if not raw:
        return DEFAULT_VECTOR_MIN
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_VECTOR_MIN}={raw!r} is not an integer event count"
        ) from None


def vector_ineligibility(sim: "TraceSimulator") -> Optional[Tuple[str, bool]]:
    """Why ``sim`` cannot replay through the vector kernel, or ``None``.

    Returns ``(reason, dynamic)``; *dynamic* reasons (fault injection,
    telemetry sampling) can differ between otherwise-identical runs, so
    auto-downgrades warn about them even when the kernel was not
    explicitly forced. Inherent configuration reasons (exotic
    replacement, pre-existing architectural state) downgrade silently
    unless ``REPRO_REPLAY_KERNEL=vector`` was explicit.

    Every phase-1 technique configuration is eligible: degree-triggered
    fetch skips and prefetch fill injection replay through interleaved
    passes, and registry predictors run through the batch contract —
    see the module docstring.
    """
    if sim._mem_faults is not None:
        return "fault injection active (REPRO_INJECT)", True
    if sim._tel is not None:
        return "telemetry sampling active", True
    l1 = sim.l1
    if not l1._plain_lru:
        return "non-LRU L1 replacement policy", False
    if (
        l1._clock != 0
        or l1.stats.invalidations != 0
        or sim.stats.loads != 0
        or sim.stats.stores != 0
        or sim.instructions != 0
    ):
        return "simulator already holds architectural state", False
    if sim.approximator is not None and (
        sim.approximator.allocated_entries or sim.approximator.stats.lookups
    ):
        return "approximator already holds architectural state", False
    if sim.predictor is not None and (
        sim.predictor.allocated_entries or sim.predictor.stats.lookups
    ):
        return "predictor already holds architectural state", False
    if sim.generic_predictor is not None and (
        sim.generic_predictor.allocated_entries
        or getattr(sim.generic_predictor.stats, "lookups", 0)
    ):
        return "predictor already holds architectural state", False
    if sim.prefetcher is not None and (
        sim.prefetcher.stats.triggers or sim.prefetcher.stats.issued
    ):
        return "prefetcher already holds architectural state", False
    return None


def select_path(sim: "TraceSimulator", events: Optional[int] = None) -> str:
    """Resolve the replay path for one :meth:`TraceSimulator.replay` call.

    ``REPRO_REPLAY_KERNEL=object|packed`` forces the scalar interpreters;
    ``vector`` (and the unset default) runs the kernel when eligible and
    downgrades to ``packed`` otherwise — warning once when the downgrade
    reason is dynamic, or whenever ``vector`` was explicitly forced.

    When the caller knows the trace length it passes ``events``:
    auto-selection (env unset) then keeps traces shorter than
    :func:`vector_min_events` on the packed interpreter, silently — the
    paths are bit-identical, so the small-trace heuristic is not a
    downgrade and never warns. An explicit ``vector`` bypasses it.
    """
    raw = requested_path()
    if raw in ("object", "packed"):
        return raw
    forced = raw == "vector"
    reason = vector_ineligibility(sim)
    if reason is not None:
        message, dynamic = reason
        if forced or dynamic:
            _warn_once(message)
        return "packed"
    if not forced and events is not None and events < vector_min_events():
        return "packed"
    return "vector"


def select_fullsystem_path() -> str:
    """The replay path for :meth:`FullSystemSimulator.run` (env only).

    The full-system scheduling loop is genuinely sequential (NoC link
    reservations, MSHR merges and degree-triggered fetch skips all feed
    back into timing), so the ``vector`` path vectorizes the per-core
    queue construction over ``per_core_indices`` spans and keeps the
    scheduling loop scalar; every path is bit-identical and always
    eligible.
    """
    raw = requested_path()
    return raw if raw is not None else "vector"


# ---------------------------------------------------------------------- #
# Pure-numpy passes (the `*_kernel` naming contract: no per-event Python  #
# loops, no per-event dataclass attribute reads — see lva-lint LVA003)    #
# ---------------------------------------------------------------------- #


def decompose_addr_kernel(
    addr: np.ndarray, offset_bits: int, index_mask: int, index_bits: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Split an address column into (set index, block tag) columns.

    The array twin of :meth:`SetAssociativeCache._decompose`, one shift
    and one mask per column.
    """
    block = addr >> offset_bits
    return block & index_mask, block >> index_bits


def segment_spans_kernel(
    is_store: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Boundaries of the maximal store-free spans of a trace.

    Returns ``(starts, ends)`` such that ``events[starts[k]:ends[k]]``
    are all loads and, for every span but the last, ``events[ends[k]]``
    is the store separating it from the next span. A store-free trace is
    one whole-trace span; a store-only trace is all empty spans.
    """
    boundaries = np.flatnonzero(is_store)
    starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries + 1))
    ends = np.concatenate((boundaries, np.array([len(is_store)], dtype=np.int64)))
    return starts, ends


def load_ordinal_kernel(is_store: np.ndarray) -> np.ndarray:
    """1-based load ordinal of every event (stores inherit the count).

    Ordinal *k* means "the k-th load instruction": the value-delay queue
    is clocked in this unit, so a training pushed at load *k* with delay
    *d* becomes visible to decisions from load ``k + d`` onwards.
    """
    return np.cumsum(~is_store)


def window_denominator_kernel(
    value_f: np.ndarray,
    value_i: np.ndarray,
    value_is_int: np.ndarray,
    window: float,
) -> np.ndarray:
    """Confidence-window denominators for a span of actual values.

    Elementwise ``window * |actual|`` with the scalar path's absolute
    fallback of ``window`` when the actual value is exactly zero — the
    comparison side of the confidence update, batched; the saturating
    accumulation stays in the flat core because it is state-dependent.
    """
    actual = np.where(value_is_int, value_i.astype(np.float64), value_f)
    magnitude = np.abs(actual)
    return np.where(magnitude != 0.0, window * magnitude, window)


def train_boundary_kernel(ords: np.ndarray, delay: int) -> np.ndarray:
    """Training-visibility boundaries for a degree-0 miss stream.

    On the degree-0 paths every miss decision pushes exactly one
    value-delayed training, in decision order, so the pending queue is
    the decision stream itself shifted by ``delay`` load ordinals.
    ``bounds[j]`` is the number of trainings applied strictly before
    decision *j*: training *i* is visible iff it was already pushed
    (``i < j``) and its due ordinal has passed
    (``ords[i] + delay <= ords[j]``). ``ords`` is sorted, so one
    whole-column ``searchsorted`` replaces the per-miss due comparisons
    of the scalar tick; the ``arange`` clamp covers ``delay == 0``,
    where the search would count the not-yet-pushed training *j* itself.
    """
    due = ords + delay
    bounds = np.searchsorted(due, ords, side="right")
    return np.minimum(bounds, np.arange(len(ords), dtype=bounds.dtype))


# ---------------------------------------------------------------------- #
# The L1 oracle                                                           #
# ---------------------------------------------------------------------- #

#: Built on first use when REPRO_REPLAY_JIT=1 and numba imports.
_JIT_ORACLE = None
_JIT_TRIED = False


def _build_jit_oracle():
    """Compile the numba oracle, or return None when numba is missing."""
    try:
        import numba
    except ImportError:
        return None

    @numba.njit(cache=False)
    def oracle(set_idx, btag, is_store, num_sets, assoc):  # pragma: no cover
        n = set_idx.shape[0]
        hits = np.zeros(n, dtype=np.uint8)
        tags = np.full((num_sets, assoc), -1, dtype=np.int64)
        last = np.zeros((num_sets, assoc), dtype=np.int64)
        dirty = np.zeros((num_sets, assoc), dtype=np.uint8)
        counters = np.zeros(3, dtype=np.int64)  # store hits, evictions, wbs
        clock = 0
        for i in range(n):
            s = set_idx[i]
            t = btag[i]
            clock += 1
            way = -1
            for w in range(assoc):
                if tags[s, w] == t:
                    way = w
                    break
            if is_store[i]:
                if way >= 0:
                    counters[0] += 1
                    last[s, way] = clock
                    dirty[s, way] = 1
                continue
            if way >= 0:
                hits[i] = 1
                last[s, way] = clock
                continue
            empty = -1
            for w in range(assoc):
                if tags[s, w] == -1:
                    empty = w
                    break
            if empty < 0:
                victim = 0
                for w in range(1, assoc):
                    if last[s, w] < last[s, victim]:
                        victim = w
                counters[1] += 1
                if dirty[s, victim] == 1:
                    counters[2] += 1
                empty = victim
            tags[s, empty] = t
            last[s, empty] = clock
            dirty[s, empty] = 0
        return hits, counters, tags, last, dirty

    return oracle


def _jit_oracle_enabled() -> bool:
    global _JIT_ORACLE, _JIT_TRIED
    if os.environ.get(ENV_JIT, "") != "1":
        return False
    if not _JIT_TRIED:
        _JIT_TRIED = True
        _JIT_ORACLE = _build_jit_oracle()
        if _JIT_ORACLE is None:
            _warn_once(f"{ENV_JIT}=1 but numba is not importable")
    return _JIT_ORACLE is not None


def _sets_from_ways(tags, last, dirty, num_sets: int, assoc: int):
    """Convert the JIT oracle's way arrays to recency lists + dirty set."""
    sets: List[List[int]] = []
    dirty_keys: Set[Tuple[int, int]] = set()
    for s in range(num_sets):
        ways = []
        for w in range(assoc):
            t = int(tags[s, w])
            if t >= 0:
                ways.append((int(last[s, w]), t))
                if dirty[s, w]:
                    dirty_keys.add((s, t))
        ways.sort()
        sets.append([t for _, t in ways])
    return sets, dirty_keys


def _l1_oracle(
    set_idx: np.ndarray,
    btag: np.ndarray,
    is_store: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    num_sets: int,
    assoc: int,
):
    """Replay the (address, store) stream against an empty LRU cache.

    Every load miss fills immediately (the vector-eligibility
    precondition), so a per-set move-to-end list reproduces the scalar
    cache exactly: use clocks are strictly increasing, making the LRU
    victim unique, and a store miss touches no state at all
    (write-no-allocate probes ``contains`` first).

    Returns ``(hits, store_hits, evictions, writebacks, sets, dirty)``
    where ``sets[s]`` lists the resident tags of set *s* in LRU order
    (oldest first) and ``dirty`` holds the dirtied ``(set, tag)`` pairs.
    """
    if _jit_oracle_enabled():
        hits, counters, tags, last, dirty2d = _JIT_ORACLE(
            np.ascontiguousarray(set_idx),
            np.ascontiguousarray(btag),
            np.ascontiguousarray(is_store.view(np.uint8)),
            num_sets,
            assoc,
        )
        sets, dirty = _sets_from_ways(tags, last, dirty2d, num_sets, assoc)
        return (
            hits,
            int(counters[0]),
            int(counters[1]),
            int(counters[2]),
            sets,
            dirty,
        )

    n = len(set_idx)
    # A bytearray keeps the per-event hit store a C-level byte write; the
    # numpy view is taken once at the end.
    hits = bytearray(n)
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    dirty: Set[Tuple[int, int]] = set()
    store_hits = 0
    evictions = 0
    writebacks = 0
    si = set_idx.tolist()
    bt = btag.tolist()
    span_starts = starts.tolist()
    span_ends = ends.tolist()
    for k in range(len(span_starts)):
        end = span_ends[k]
        for i in range(span_starts[k], end):
            s = si[i]
            t = bt[i]
            ways = sets[s]
            if t in ways:
                if ways[-1] != t:
                    ways.remove(t)
                    ways.append(t)
                hits[i] = 1
            else:
                ways.append(t)
                if len(ways) > assoc:
                    victim = ways[0]
                    del ways[0]
                    evictions += 1
                    key = (s, victim)
                    if key in dirty:
                        dirty.discard(key)
                        writebacks += 1
        if end < n:  # the store event bounding this span
            s = si[end]
            t = bt[end]
            ways = sets[s]
            if t in ways:
                store_hits += 1
                if ways[-1] != t:
                    ways.remove(t)
                    ways.append(t)
                dirty.add((s, t))
    return (
        np.frombuffer(hits, dtype=np.uint8),
        store_hits,
        evictions,
        writebacks,
        sets,
        dirty,
    )


# ---------------------------------------------------------------------- #
# Flat technique cores (miss stream only)                                 #
# ---------------------------------------------------------------------- #


def _values_at(packed: "PackedTrace", idx: np.ndarray) -> List[Number]:
    """Exact Python values of the events at ``idx`` (type-preserving)."""
    ints = packed.value_i[idx].tolist()
    floats = packed.value_f[idx].tolist()
    flags = packed.value_is_int[idx].tolist()
    return [i if flag else f for i, f, flag in zip(ints, floats, flags)]


def _lva_flat(sim: "TraceSimulator", miss: Dict[str, list]) -> Dict[str, object]:
    """Replay the approximable-miss stream through a flat LVA table.

    The direct-mapped table lives in parallel Python lists (tag / conf /
    LHB per slot) instead of entry objects; value-delayed trainings are
    applied lazily immediately before the first decision that could
    observe them, which is exactly equivalent to per-load ticking
    because stats are order-independent totals and only miss decisions
    read approximator state. The visibility points come precomputed from
    :func:`train_boundary_kernel` (``miss["bound"]``), so the loop never
    compares due ordinals — it just advances the pending cursor to the
    batched boundary.
    """
    ap = sim.approximator
    cfg = ap.config
    size = cfg.table_entries
    lhb_cap = cfg.lhb_size
    ghb_cap = cfg.ghb_size
    conf_lo = cfg.confidence_min
    conf_hi = cfg.confidence_max
    step_max = cfg.confidence_step_max
    window = cfg.confidence_window
    window_is_inf = ap._window_is_inf
    inline_window = step_max == 1 and not window_is_inf
    gate_float = cfg.apply_confidence_to_floats
    gate_int = cfg.apply_confidence_to_ints
    compute = ap._compute
    index_bits = ap._index_bits
    tag_bits = ap._tag_bits
    drop_bits = ap._drop_bits

    is_average = compute is COMPUTE_FUNCTIONS["average"]

    tags: List[int] = [-1] * size
    confs: List[int] = [0] * size
    lhbs: List[Optional[list]] = [None] * size
    alloc_seq: List[int] = []
    ghb: Optional[list] = [] if ghb_cap > 0 else None

    bounds = miss["bound"]
    pcs = miss["pc"]
    vals = miss["val"]
    isf = miss["isf"]
    denoms = miss["denom"]
    midx = miss["idx"]  # None when the GHB forces live hashing
    mtag = miss["tag"]
    if midx is None:
        midx = mtag = repeat(None)

    lookups = tag_misses = cold_misses = lowconf = 0
    approximations = covered = 0
    trainings = stale = inc = dec = 0

    # Pending trainings in push order (one per decision); the precomputed
    # boundary says how far the cursor advances before each decision.
    pend: List[tuple] = []
    push = pend.append
    pi = 0
    pushed = 0

    for bound, pc, value, is_float, denom, idx, tag in zip(
        bounds, pcs, vals, isf, denoms, midx, mtag
    ):
        # Apply every training visible to this decision.
        while pi < bound:
            t_idx, t_tag, t_shadow, t_denom, t_actual = pend[pi]
            pi += 1
            trainings += 1
            if ghb is not None:
                ghb.append(t_actual)
                if len(ghb) > ghb_cap:
                    del ghb[0]
            if tags[t_idx] != t_tag:
                stale += 1
                continue
            lhb = lhbs[t_idx]
            lhb.append(t_actual)
            if len(lhb) > lhb_cap:
                del lhb[0]
            if t_shadow is not None:
                if inline_window:
                    steps = 1 if abs(t_shadow - t_actual) <= t_denom else -1
                else:
                    steps = confidence_update_steps(
                        t_shadow, t_actual, window, step_max
                    )
                conf = confs[t_idx] + steps
                if conf > conf_hi:
                    conf = conf_hi
                elif conf < conf_lo:
                    conf = conf_lo
                confs[t_idx] = conf
                if steps > 0:
                    inc += 1
                else:
                    dec += 1

        lookups += 1
        if idx is None:
            idx, tag = context_hash(pc, ghb, index_bits, tag_bits, drop_bits)
        if tags[idx] != tag:
            if tags[idx] == -1:
                alloc_seq.append(idx)
            tags[idx] = tag
            confs[idx] = 0
            lhbs[idx] = []
            tag_misses += 1
            push((idx, tag, None, denom, value))
            pushed += 1
            continue
        lhb = lhbs[idx]
        if not lhb:
            cold_misses += 1
            push((idx, tag, None, denom, value))
            pushed += 1
            continue
        shadow = sum(lhb) / len(lhb) if is_average else compute(lhb)
        if not is_float:
            shadow = int(round(shadow))
        gated = gate_float if is_float else gate_int
        if gated and confs[idx] < 0:
            lowconf += 1
            push((idx, tag, shadow, denom, value))
            pushed += 1
            continue
        approximations += 1
        covered += 1
        push((idx, tag, shadow, denom, value))
        pushed += 1

    # End-of-run drain: finish() trains every pending item in FIFO order.
    while pi < pushed:
        t_idx, t_tag, t_shadow, t_denom, t_actual = pend[pi]
        pi += 1
        trainings += 1
        if ghb is not None:
            ghb.append(t_actual)
            if len(ghb) > ghb_cap:
                del ghb[0]
        if tags[t_idx] != t_tag:
            stale += 1
            continue
        lhb = lhbs[t_idx]
        lhb.append(t_actual)
        if len(lhb) > lhb_cap:
            del lhb[0]
        if t_shadow is not None:
            if inline_window:
                steps = 1 if abs(t_shadow - t_actual) <= t_denom else -1
            else:
                steps = confidence_update_steps(t_shadow, t_actual, window, step_max)
            conf = confs[t_idx] + steps
            if conf > conf_hi:
                conf = conf_hi
            elif conf < conf_lo:
                conf = conf_lo
            confs[t_idx] = conf
            if steps > 0:
                inc += 1
            else:
                dec += 1

    return {
        "covered": covered,
        "lookups": lookups,
        "tag_misses": tag_misses,
        "cold_misses": cold_misses,
        "low_confidence_rejections": lowconf,
        "approximations": approximations,
        "trainings": trainings,
        "stale_trainings": stale,
        "confidence_increments": inc,
        "confidence_decrements": dec,
        "tags": tags,
        "confs": confs,
        "lhbs": lhbs,
        "alloc_seq": alloc_seq,
        "ghb": ghb,
    }


def _lvp_flat(sim: "TraceSimulator", miss: Dict[str, list]) -> Dict[str, object]:
    """Replay the approximable-miss stream through a flat LVP table.

    Same lazy-training structure as :func:`_lva_flat` (precomputed
    :func:`train_boundary_kernel` boundaries); the idealized predictor
    validates the actual value against the LHB snapshot taken at
    decision time, and — unlike the approximator — hashes the context
    on *every* miss (memoised here per PC when the GHB is empty, which is
    sound because the hash is then a pure function of the PC).
    """
    pred = sim.predictor
    cfg = pred.config
    size = cfg.table_entries
    lhb_cap = cfg.lhb_size
    ghb_cap = cfg.ghb_size
    index_bits = cfg.index_bits
    tag_bits = cfg.tag_bits
    drop_bits = cfg.mantissa_drop_bits

    tags: List[int] = [-1] * size
    lhbs: List[Optional[list]] = [None] * size
    alloc_seq: List[int] = []
    ghb: Optional[list] = [] if ghb_cap > 0 else None

    bounds = miss["bound"]
    pcs = miss["pc"]
    vals = miss["val"]
    midx = miss["idx"]  # None when the GHB forces live hashing
    mtag = miss["tag"]

    lookups = predictions = correct_c = incorrect_c = 0
    tag_misses = cold_misses = stale = covered = 0

    pend: List[tuple] = []
    pi = 0

    def train(item: tuple) -> None:
        nonlocal correct_c, incorrect_c, stale, covered
        t_idx, t_tag, snapshot, t_actual = item
        correct = False
        for value in snapshot:
            if value == t_actual:
                correct = True
                break
        if snapshot:
            if correct:
                correct_c += 1
            else:
                incorrect_c += 1
        if ghb is not None:
            ghb.append(t_actual)
            if len(ghb) > ghb_cap:
                del ghb[0]
        if tags[t_idx] != t_tag:
            stale += 1
        else:
            lhb = lhbs[t_idx]
            lhb.append(t_actual)
            if len(lhb) > lhb_cap:
                del lhb[0]
        if correct:
            covered += 1

    for j in range(len(bounds)):
        bound = bounds[j]
        while pi < bound:
            train(pend[pi])
            pi += 1
        lookups += 1
        if midx is not None:
            idx = midx[j]
            tag = mtag[j]
        else:
            idx, tag = context_hash(pcs[j], ghb, index_bits, tag_bits, drop_bits)
        if tags[idx] == -1:
            alloc_seq.append(idx)
            tags[idx] = tag
            lhbs[idx] = []
            tag_misses += 1
        elif tags[idx] != tag:
            tags[idx] = tag
            lhbs[idx] = []
            tag_misses += 1
        snapshot = tuple(lhbs[idx])
        if not snapshot:
            cold_misses += 1
        else:
            predictions += 1
        pend.append((idx, tag, snapshot, vals[j]))

    while pi < len(pend):
        train(pend[pi])
        pi += 1

    return {
        "covered": covered,
        "lookups": lookups,
        "predictions": predictions,
        "correct": correct_c,
        "incorrect": incorrect_c,
        "tag_misses": tag_misses,
        "cold_misses": cold_misses,
        "stale_trainings": stale,
        "tags": tags,
        "lhbs": lhbs,
        "alloc_seq": alloc_seq,
        "ghb": ghb,
    }


def _scalar_miss_run(pred, pcs, flags, addrs) -> list:
    """``on_miss_batch`` substitute for predictors that predate the batch
    half of the ``MissPredictor`` protocol: loop the scalar entry point."""
    on_miss = pred.on_miss
    return [on_miss(pcs[i], flags[i], addrs[i]) for i in range(len(pcs))]


def _scalar_train_run(pred, tokens, actuals) -> int:
    """``train_batch`` substitute looping the scalar ``train``."""
    train = pred.train
    covered = 0
    for i in range(len(tokens)):
        if train(tokens[i], actuals[i]):
            covered += 1
    return covered


def _predictor_miss_driver(sim: "TraceSimulator", miss: Dict[str, list]) -> int:
    """Drive a generic registry predictor over the degree-0 miss stream.

    Unlike the flat cores, this path mutates the *real* predictor object
    through its batch contract, so there is no state to reconstruct and
    any :class:`~repro.predictors.base.MissPredictor` is eligible. The
    driver slices the miss stream into maximal runs of consecutive
    decisions with no value-delay training due between them — a run
    starting at decision *j* extends while the next miss's load ordinal
    stays below both the earliest pending due ordinal and
    ``ords[j] + delay`` (the earliest due a decision inside the run can
    create) — and hands each run to ``on_miss_batch`` / each due batch
    to ``train_batch``. Interleaving is exactly the scalar tick's: a
    training with due ordinal *d* precedes every decision at ordinal
    >= *d*.

    Every degree-0 decision fetches (the oracle precondition; degree
    users replay through :func:`_generic_degree_replay` instead), so
    coverage is the only simulator-level outcome: returns the number of
    covered misses (decision-time values plus covered trainings).
    """
    pred = sim.generic_predictor
    delay = pred.config.value_delay
    on_miss_batch = getattr(pred, "on_miss_batch", None)
    train_batch = getattr(pred, "train_batch", None)

    ords = miss["ord"]
    pcs = miss["pc"]
    isf = miss["isf"]
    vals = miss["val"]
    addrs = miss["addr"]
    n = len(ords)

    pend_due: List[int] = []
    pend_tok: List[object] = []
    pend_val: List[Number] = []
    pi = 0
    covered = 0

    j = 0
    while j < n:
        ordinal = ords[j]
        if pi < len(pend_due) and pend_due[pi] <= ordinal:
            b = pi
            while b < len(pend_due) and pend_due[b] <= ordinal:
                b += 1
            if train_batch is not None:
                covered += train_batch(pend_tok[pi:b], pend_val[pi:b])
            else:
                covered += _scalar_train_run(pred, pend_tok[pi:b], pend_val[pi:b])
            pi = b
        limit = ordinal + delay
        if pi < len(pend_due) and pend_due[pi] < limit:
            limit = pend_due[pi]
        k = j + 1
        while k < n and ords[k] < limit:
            k += 1
        if on_miss_batch is not None:
            decisions = on_miss_batch(pcs[j:k], isf[j:k], addrs[j:k])
        else:
            decisions = _scalar_miss_run(pred, pcs[j:k], isf[j:k], addrs[j:k])
        for m in range(j, k):
            decision = decisions[m - j]
            if decision.value is not None:
                covered += 1
            token = decision.token
            if token is not None:
                pend_due.append(ords[m] + delay)
                pend_tok.append(token)
                pend_val.append(vals[m])
        j = k

    if pi < len(pend_due):
        if train_batch is not None:
            covered += train_batch(pend_tok[pi:], pend_val[pi:])
        else:
            covered += _scalar_train_run(pred, pend_tok[pi:], pend_val[pi:])
    return covered


# ---------------------------------------------------------------------- #
# State reconstruction                                                    #
# ---------------------------------------------------------------------- #


def _rebuild_l1(
    sim: "TraceSimulator",
    sets: List[List[int]],
    dirty: Set[Tuple[int, int]],
    accesses: int,
    hits: int,
    misses: int,
    evictions: int,
    writebacks: int,
    fills: Optional[int] = None,
    prefetched: Optional[Set[Tuple[int, int]]] = None,
) -> None:
    """Install the oracle's final cache contents into ``sim.l1``.

    Recency is encoded with synthetic, strictly increasing use clocks per
    set: only the relative per-set order matters to future LRU victim
    selection, and every synthetic clock stays below the final clock.

    ``fills`` defaults to ``misses`` (every miss fetches — the degree-0
    invariant); the degree and prefetch paths pass their actual fill
    counts (skips fill nothing, prefetches fill extra). ``prefetched``
    marks blocks still carrying an undemanded-prefetch flag.
    """
    l1 = sim.l1
    if fills is None:
        fills = misses
    clock = accesses + fills  # one tick per probe + one per fill
    for s, ways in enumerate(sets):
        frame = l1._sets[s]
        base = clock - len(ways)
        for position, tag in enumerate(ways):
            block = CacheBlock(tag)
            block.valid = True
            block.state = CoherenceState.SHARED
            block.dirty = (s, tag) in dirty
            if prefetched is not None and (s, tag) in prefetched:
                block.prefetched = True
            block.last_use = base + position
            block.inserted_at = base + position
            frame[tag] = block
    l1._clock += clock
    stats = l1.stats
    stats.hits += hits
    stats.misses += misses
    stats.fills += fills
    stats.evictions += evictions
    stats.writebacks += writebacks


def _rebuild_table(
    table: Dict[int, ApproximatorEntry],
    core: Dict[str, object],
    confidence_bits: int,
    lhb_size: int,
    max_degree: int,
) -> None:
    """Materialise flat-core table slots as ``ApproximatorEntry`` objects,
    in first-allocation order (matching the scalar dict's insertion
    order)."""
    tags = core["tags"]
    lhbs = core["lhbs"]
    confs = core.get("confs")
    degs = core.get("degs")
    for index in core["alloc_seq"]:
        entry = ApproximatorEntry(tags[index], confidence_bits, lhb_size, max_degree)
        if confs is not None:
            entry.confidence.reset(confs[index])
        if degs is not None:
            entry.degree_counter = degs[index]
        for value in lhbs[index]:
            entry.lhb.push(value)
        table[index] = entry


# ---------------------------------------------------------------------- #
# The vector replay                                                       #
# ---------------------------------------------------------------------- #


def _uses_degree(name: Optional[str]) -> bool:
    """Does the predictor registered as ``name`` honor the approximation
    degree? Unknown names answer True — the interleaved path is the safe
    (fully general) one."""
    if not name:
        return True
    try:
        return predictor_registry.get_info(name).uses_degree
    except predictor_registry.UnknownPredictorError:
        return True


def replay_vector(sim: "TraceSimulator", packed: "PackedTrace") -> None:
    """Replay ``packed`` through the vectorized kernel pipeline.

    Mutates ``sim`` (stats, L1, technique state, instruction count) into
    exactly the state the scalar interpreter would leave behind; the
    caller applies :meth:`TraceSimulator.finish` as usual (the value
    delay queue is already drained, so finish only stamps totals).

    Dispatch: prefetch mode and degree-active techniques replay through
    the interleaved passes (the L1 hit stream depends on technique
    state there); everything else goes through the oracle pipeline —
    flat cores for LVA/LVP, the batch-contract driver for generic
    registry predictors.

    Preconditions are enforced by :func:`vector_ineligibility`; calling
    this directly on an ineligible simulator is a contract violation.
    """
    n = len(packed)
    sim.instructions += n + int(packed.gap.sum())
    sim._delay.clock += int(np.count_nonzero(~packed.is_store))
    if n == 0:
        return

    if sim.prefetcher is not None:
        _prefetch_replay(sim, packed)
        return

    technique = sim.approximator or sim.predictor or sim.generic_predictor
    if technique is not None and technique.config.approximation_degree > 0:
        if sim.approximator is not None:
            _lva_degree_replay(sim, packed)
            return
        if sim.generic_predictor is not None and _uses_degree(sim.predictor_name):
            _generic_degree_replay(sim, packed)
            return
        # The idealized LVP (and other degree-blind predictors) always
        # fetch: the degree setting is inert and the oracle stays exact.

    is_store = packed.is_store
    loads_mask = ~is_store
    l1 = sim.l1
    set_idx, btag = decompose_addr_kernel(
        packed.addr, l1._offset_bits, l1._index_mask, l1._index_bits
    )
    starts, ends = segment_spans_kernel(is_store)
    hits, store_hits, evictions, writebacks, sets, dirty = _l1_oracle(
        set_idx,
        btag,
        is_store,
        starts,
        ends,
        l1.config.num_sets,
        l1.config.associativity,
    )

    loads = int(np.count_nonzero(loads_mask))
    stores = n - loads
    load_hits = int(np.count_nonzero(hits))
    raw_misses = loads - load_hits
    approx_mask = loads_mask & packed.approximable
    approx_loads = int(np.count_nonzero(approx_mask))

    stats = sim.stats
    stats.loads += loads
    stats.stores += stores
    stats.approx_loads += approx_loads
    stats.raw_misses += raw_misses
    # Every miss fetches on the vector-eligible paths (degree 0, no
    # faults), so fetches mirror raw misses 1:1.
    stats.fetches += raw_misses
    if approx_loads:
        stats.static_approx_pcs.update(np.unique(packed.pc[approx_mask]).tolist())

    _rebuild_l1(
        sim,
        sets,
        dirty,
        loads + store_hits,
        load_hits + store_hits,
        raw_misses,
        evictions,
        writebacks,
    )

    approximator = sim.approximator
    if technique is None:
        return  # precise: no technique state to replay

    miss_mask = approx_mask & (hits == 0)
    miss_idx = np.flatnonzero(miss_mask)
    miss_pc = packed.pc[miss_idx]
    ord_arr = load_ordinal_kernel(is_store)[miss_idx]
    config = technique.config

    if sim.generic_predictor is not None:
        # Generic registry predictors mutate their real object through
        # the batch contract — nothing to reconstruct afterwards.
        miss = {
            "ord": ord_arr.tolist(),
            "pc": miss_pc.tolist(),
            "isf": packed.is_float[miss_idx].tolist(),
            "val": _values_at(packed, miss_idx),
            "addr": packed.addr[miss_idx].tolist(),
        }
        stats.covered_misses += _predictor_miss_driver(sim, miss)
        return

    if config.ghb_size == 0:
        unique_pc, inverse = np.unique(miss_pc, return_inverse=True)
        u_idx, u_tag = context_hash_array(
            unique_pc.astype(np.int64), config.index_bits, config.tag_bits
        )
        midx = u_idx[inverse].tolist()
        mtag = u_tag[inverse].tolist()
        pc_hashes = dict(
            zip(unique_pc.tolist(), zip(u_idx.tolist(), u_tag.tolist()))
        )
    else:
        midx = mtag = None
        pc_hashes = None

    miss = {
        "bound": train_boundary_kernel(ord_arr, config.value_delay).tolist(),
        "pc": miss_pc.tolist(),
        "val": _values_at(packed, miss_idx),
        "isf": packed.is_float[miss_idx].tolist(),
        "denom": window_denominator_kernel(
            packed.value_f[miss_idx],
            packed.value_i[miss_idx],
            packed.value_is_int[miss_idx],
            config.confidence_window,
        ).tolist(),
        "idx": midx,
        "tag": mtag,
    }

    if approximator is not None:
        core = _lva_flat(sim, miss)
        ap = approximator
        stats.covered_misses += core["covered"]
        a_stats = ap.stats
        a_stats.lookups += core["lookups"]
        a_stats.tag_misses += core["tag_misses"]
        a_stats.cold_misses += core["cold_misses"]
        a_stats.low_confidence_rejections += core["low_confidence_rejections"]
        a_stats.approximations += core["approximations"]
        a_stats.trainings += core["trainings"]
        a_stats.stale_trainings += core["stale_trainings"]
        a_stats.confidence_increments += core["confidence_increments"]
        a_stats.confidence_decrements += core["confidence_decrements"]
        a_stats.static_pcs.update(np.unique(miss_pc).tolist())
        _rebuild_table(
            ap._table,
            core,
            config.confidence_bits,
            config.lhb_size,
            config.approximation_degree,
        )
        if pc_hashes is not None:
            ap._pc_hashes.update(pc_hashes)
        elif core["ghb"]:
            for value in core["ghb"]:
                ap.ghb.push(value)
    else:  # lvp
        core = _lvp_flat(sim, miss)
        pred = sim.predictor
        stats.covered_misses += core["covered"]
        p_stats = pred.stats
        p_stats.lookups += core["lookups"]
        p_stats.predictions += core["predictions"]
        p_stats.correct += core["correct"]
        p_stats.incorrect += core["incorrect"]
        p_stats.tag_misses += core["tag_misses"]
        p_stats.cold_misses += core["cold_misses"]
        p_stats.stale_trainings += core["stale_trainings"]
        p_stats.static_pcs.update(np.unique(miss_pc).tolist())
        _rebuild_table(pred._table, core, config.confidence_bits, config.lhb_size, 0)
        if core["ghb"]:
            for value in core["ghb"]:
                pred.ghb.push(value)


# ---------------------------------------------------------------------- #
# Interleaved replays (technique state steers the L1 hit stream)          #
# ---------------------------------------------------------------------- #


def _lva_degree_replay(sim: "TraceSimulator", packed: "PackedTrace") -> None:
    """Interleaved replay for LVA with ``approximation_degree > 0``.

    A confident approximation may skip its fetch entirely (Section
    III-C), leaving the block absent — the L1 hit stream becomes
    data-dependent on approximator state, so the span-segmented oracle
    no longer applies. Instead the per-set LRU model and the flat LVA
    core fuse into one pass over pre-extracted columns: the whole-column
    work (address decomposition, window denominators, context hashes for
    the empty-GHB case, value extraction) stays vectorized, and only the
    inherently sequential decision/fill chain runs as a loop. Trainings
    still apply lazily before the first decision that could observe them
    (they touch no L1 state), and the final architectural state is
    reconstructed exactly as on the oracle path.
    """
    ap = sim.approximator
    cfg = ap.config
    l1 = sim.l1
    set_arr, tag_arr = decompose_addr_kernel(
        packed.addr, l1._offset_bits, l1._index_mask, l1._index_bits
    )
    si = set_arr.tolist()
    bt = tag_arr.tolist()
    st = packed.is_store.tolist()
    approx = packed.approximable.tolist()
    isf_l = packed.is_float.tolist()
    pcs_l = packed.pc.tolist()
    ints = packed.value_i.tolist()
    floats = packed.value_f.tolist()
    int_flags = packed.value_is_int.tolist()
    vals = [i if flag else f for i, f, flag in zip(ints, floats, int_flags)]
    denoms = window_denominator_kernel(
        packed.value_f, packed.value_i, packed.value_is_int, cfg.confidence_window
    ).tolist()

    loads_mask = ~packed.is_store
    approx_mask = loads_mask & packed.approximable
    approx_loads = int(np.count_nonzero(approx_mask))

    # Flat approximator table (same layout as _lva_flat) plus a degree
    # counter column.
    size = cfg.table_entries
    lhb_cap = cfg.lhb_size
    ghb_cap = cfg.ghb_size
    delay = cfg.value_delay
    conf_lo = cfg.confidence_min
    conf_hi = cfg.confidence_max
    step_max = cfg.confidence_step_max
    window = cfg.confidence_window
    inline_window = step_max == 1 and not ap._window_is_inf
    gate_float = cfg.apply_confidence_to_floats
    gate_int = cfg.apply_confidence_to_ints
    compute = ap._compute
    is_average = compute is COMPUTE_FUNCTIONS["average"]
    index_bits = ap._index_bits
    tag_bits = ap._tag_bits
    drop_bits = ap._drop_bits
    max_degree = cfg.approximation_degree

    if ghb_cap == 0:
        # Pure-PC hashing batches over the distinct approximable PCs; the
        # memo installed at the end carries only PCs actually hashed (the
        # miss decisions), matching the scalar path's lazy cache.
        unique_pc = np.unique(packed.pc[approx_mask])
        u_idx, u_tag = context_hash_array(
            unique_pc.astype(np.int64), cfg.index_bits, cfg.tag_bits
        )
        full_hashes: Optional[Dict[int, Tuple[int, int]]] = dict(
            zip(unique_pc.tolist(), zip(u_idx.tolist(), u_tag.tolist()))
        )
        seen_hashes: Optional[Dict[int, Tuple[int, int]]] = {}
        ghb: Optional[list] = None
    else:
        full_hashes = None
        seen_hashes = None
        ghb = []

    tags: List[int] = [-1] * size
    confs: List[int] = [0] * size
    lhbs: List[Optional[list]] = [None] * size
    degs: List[int] = [0] * size
    alloc_seq: List[int] = []

    num_sets = l1.config.num_sets
    assoc = l1.config.associativity
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    dirty: Set[Tuple[int, int]] = set()

    # Pending trainings in push order: (due ordinal, slot, tag, shadow,
    # denominator, actual value).
    pend: List[tuple] = []
    push = pend.append
    pi = 0
    pushed = 0

    loads = stores = load_hits = store_hits = 0
    evictions = writebacks = 0
    fetches = avoided = 0
    lookups = tag_misses = cold_misses = lowconf = 0
    approximations = covered = skipped = 0
    trainings = stale = inc = dec = 0
    miss_pcs: Set[int] = set()
    ordinal = 0

    for i in range(len(st)):
        s = si[i]
        t = bt[i]
        ways = sets[s]
        if st[i]:
            stores += 1
            if t in ways:
                store_hits += 1
                if ways[-1] != t:
                    ways.remove(t)
                    ways.append(t)
                dirty.add((s, t))
            continue
        loads += 1
        ordinal += 1
        if t in ways:
            load_hits += 1
            if ways[-1] != t:
                ways.remove(t)
                ways.append(t)
            continue
        if not approx[i]:
            # Non-approximable miss: plain fetch + fill.
            fetches += 1
            ways.append(t)
            if len(ways) > assoc:
                victim = ways[0]
                del ways[0]
                evictions += 1
                key = (s, victim)
                if key in dirty:
                    dirty.discard(key)
                    writebacks += 1
            continue

        # Apply every training due at (or before) this load ordinal.
        while pi < pushed and pend[pi][0] <= ordinal:
            _, t_idx, t_tag, t_shadow, t_denom, t_actual = pend[pi]
            pi += 1
            trainings += 1
            if ghb is not None:
                ghb.append(t_actual)
                if len(ghb) > ghb_cap:
                    del ghb[0]
            if tags[t_idx] != t_tag:
                stale += 1
                continue
            lhb = lhbs[t_idx]
            lhb.append(t_actual)
            if len(lhb) > lhb_cap:
                del lhb[0]
            degs[t_idx] = max_degree
            if t_shadow is not None:
                if inline_window:
                    steps = 1 if abs(t_shadow - t_actual) <= t_denom else -1
                else:
                    steps = confidence_update_steps(
                        t_shadow, t_actual, window, step_max
                    )
                conf = confs[t_idx] + steps
                if conf > conf_hi:
                    conf = conf_hi
                elif conf < conf_lo:
                    conf = conf_lo
                confs[t_idx] = conf
                if steps > 0:
                    inc += 1
                else:
                    dec += 1

        lookups += 1
        pc = pcs_l[i]
        miss_pcs.add(pc)
        if full_hashes is not None:
            hashed = full_hashes[pc]
            seen_hashes[pc] = hashed
            idx, tag = hashed
        else:
            idx, tag = context_hash(pc, ghb, index_bits, tag_bits, drop_bits)
        value = vals[i]
        due = ordinal + delay
        fetch = True
        if tags[idx] != tag:
            if tags[idx] == -1:
                alloc_seq.append(idx)
            tags[idx] = tag
            confs[idx] = 0
            lhbs[idx] = []
            degs[idx] = max_degree
            tag_misses += 1
            push((due, idx, tag, None, denoms[i], value))
            pushed += 1
        else:
            lhb = lhbs[idx]
            if not lhb:
                cold_misses += 1
                push((due, idx, tag, None, denoms[i], value))
                pushed += 1
            else:
                is_float = isf_l[i]
                shadow = sum(lhb) / len(lhb) if is_average else compute(lhb)
                if not is_float:
                    shadow = int(round(shadow))
                gated = gate_float if is_float else gate_int
                if gated and confs[idx] < 0:
                    lowconf += 1
                    push((due, idx, tag, shadow, denoms[i], value))
                    pushed += 1
                else:
                    approximations += 1
                    covered += 1
                    if degs[idx] > 0:
                        # Degree reuse: no fetch, no fill, no training.
                        degs[idx] -= 1
                        skipped += 1
                        avoided += 1
                        fetch = False
                    else:
                        push((due, idx, tag, shadow, denoms[i], value))
                        pushed += 1
        if fetch:
            fetches += 1
            ways.append(t)
            if len(ways) > assoc:
                victim = ways[0]
                del ways[0]
                evictions += 1
                key = (s, victim)
                if key in dirty:
                    dirty.discard(key)
                    writebacks += 1

    # End-of-run drain: finish() trains every pending item in FIFO order.
    while pi < pushed:
        _, t_idx, t_tag, t_shadow, t_denom, t_actual = pend[pi]
        pi += 1
        trainings += 1
        if ghb is not None:
            ghb.append(t_actual)
            if len(ghb) > ghb_cap:
                del ghb[0]
        if tags[t_idx] != t_tag:
            stale += 1
            continue
        lhb = lhbs[t_idx]
        lhb.append(t_actual)
        if len(lhb) > lhb_cap:
            del lhb[0]
        degs[t_idx] = max_degree
        if t_shadow is not None:
            if inline_window:
                steps = 1 if abs(t_shadow - t_actual) <= t_denom else -1
            else:
                steps = confidence_update_steps(t_shadow, t_actual, window, step_max)
            conf = confs[t_idx] + steps
            if conf > conf_hi:
                conf = conf_hi
            elif conf < conf_lo:
                conf = conf_lo
            confs[t_idx] = conf
            if steps > 0:
                inc += 1
            else:
                dec += 1

    raw_misses = loads - load_hits
    stats = sim.stats
    stats.loads += loads
    stats.stores += stores
    stats.approx_loads += approx_loads
    stats.raw_misses += raw_misses
    stats.fetches += fetches
    stats.fetches_avoided += avoided
    stats.covered_misses += covered
    if approx_loads:
        stats.static_approx_pcs.update(np.unique(packed.pc[approx_mask]).tolist())

    _rebuild_l1(
        sim,
        sets,
        dirty,
        loads + store_hits,
        load_hits + store_hits,
        raw_misses,
        evictions,
        writebacks,
        fills=fetches,
    )

    a_stats = ap.stats
    a_stats.lookups += lookups
    a_stats.tag_misses += tag_misses
    a_stats.cold_misses += cold_misses
    a_stats.low_confidence_rejections += lowconf
    a_stats.approximations += approximations
    a_stats.fetches_skipped += skipped
    a_stats.trainings += trainings
    a_stats.stale_trainings += stale
    a_stats.confidence_increments += inc
    a_stats.confidence_decrements += dec
    a_stats.static_pcs.update(miss_pcs)
    core = {
        "tags": tags,
        "confs": confs,
        "lhbs": lhbs,
        "alloc_seq": alloc_seq,
        "degs": degs,
    }
    _rebuild_table(ap._table, core, cfg.confidence_bits, cfg.lhb_size, max_degree)
    if seen_hashes is not None:
        ap._pc_hashes.update(seen_hashes)
    elif ghb:
        for value in ghb:
            ap.ghb.push(value)


def _generic_degree_replay(sim: "TraceSimulator", packed: "PackedTrace") -> None:
    """Interleaved replay for degree-honoring registry predictors.

    Fully general: every approximable miss drives the *real* predictor
    object through the scalar ``MissPredictor`` contract (a decision may
    skip its fetch, so the L1 model must interleave with the miss
    stream), while column extraction and address decomposition stay
    vectorized. Trainings apply lazily at their due ordinal, exactly
    like the scalar tick; the predictor object ends up in its true final
    state, so nothing is reconstructed.
    """
    pred = sim.generic_predictor
    delay = pred.config.value_delay
    on_miss = pred.on_miss
    train = pred.train
    l1 = sim.l1
    set_arr, tag_arr = decompose_addr_kernel(
        packed.addr, l1._offset_bits, l1._index_mask, l1._index_bits
    )
    si = set_arr.tolist()
    bt = tag_arr.tolist()
    st = packed.is_store.tolist()
    approx = packed.approximable.tolist()
    isf_l = packed.is_float.tolist()
    pcs_l = packed.pc.tolist()
    addr_l = packed.addr.tolist()
    ints = packed.value_i.tolist()
    floats = packed.value_f.tolist()
    int_flags = packed.value_is_int.tolist()
    vals = [i if flag else f for i, f, flag in zip(ints, floats, int_flags)]

    loads_mask = ~packed.is_store
    approx_mask = loads_mask & packed.approximable
    approx_loads = int(np.count_nonzero(approx_mask))

    num_sets = l1.config.num_sets
    assoc = l1.config.associativity
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    dirty: Set[Tuple[int, int]] = set()

    pend_due: List[int] = []
    pend_tok: List[object] = []
    pend_val: List[Number] = []
    pi = 0

    loads = stores = load_hits = store_hits = 0
    evictions = writebacks = 0
    fetches = avoided = covered = 0
    ordinal = 0

    for i in range(len(st)):
        s = si[i]
        t = bt[i]
        ways = sets[s]
        if st[i]:
            stores += 1
            if t in ways:
                store_hits += 1
                if ways[-1] != t:
                    ways.remove(t)
                    ways.append(t)
                dirty.add((s, t))
            continue
        loads += 1
        ordinal += 1
        if t in ways:
            load_hits += 1
            if ways[-1] != t:
                ways.remove(t)
                ways.append(t)
            continue
        if approx[i]:
            while pi < len(pend_due) and pend_due[pi] <= ordinal:
                if train(pend_tok[pi], pend_val[pi]):
                    covered += 1
                pi += 1
            decision = on_miss(pcs_l[i], isf_l[i], addr_l[i])
            if decision.value is not None:
                covered += 1
            if not decision.fetch:
                avoided += 1
                continue
            if decision.token is not None:
                pend_due.append(ordinal + delay)
                pend_tok.append(decision.token)
                pend_val.append(vals[i])
        fetches += 1
        ways.append(t)
        if len(ways) > assoc:
            victim = ways[0]
            del ways[0]
            evictions += 1
            key = (s, victim)
            if key in dirty:
                dirty.discard(key)
                writebacks += 1

    while pi < len(pend_due):
        if train(pend_tok[pi], pend_val[pi]):
            covered += 1
        pi += 1

    raw_misses = loads - load_hits
    stats = sim.stats
    stats.loads += loads
    stats.stores += stores
    stats.approx_loads += approx_loads
    stats.raw_misses += raw_misses
    stats.fetches += fetches
    stats.fetches_avoided += avoided
    stats.covered_misses += covered
    if approx_loads:
        stats.static_approx_pcs.update(np.unique(packed.pc[approx_mask]).tolist())

    _rebuild_l1(
        sim,
        sets,
        dirty,
        loads + store_hits,
        load_hits + store_hits,
        raw_misses,
        evictions,
        writebacks,
        fills=fetches,
    )


def _prefetch_replay(sim: "TraceSimulator", packed: "PackedTrace") -> None:
    """Interleaved replay for ``Mode.PREFETCH``.

    Prefetch fills perturb the L1 contents (and carry a usefulness flag
    cleared on first demand hit), so the hit stream depends on the
    prefetcher's candidates — the per-set LRU model interleaves with the
    real prefetcher object, which observes the demand-miss stream
    exactly as the scalar path presents it. The miss addresses are
    pre-aligned with :func:`~repro.prefetch.base.block_of_array` (the
    prefetcher contract is block-granular), and the candidate fill
    injection shares the inline fill/evict bookkeeping of the other
    interleaved passes.
    """
    pf = sim.prefetcher
    on_miss = pf.on_miss
    l1 = sim.l1
    offset_bits = l1._offset_bits
    index_mask = l1._index_mask
    index_bits = l1._index_bits
    set_arr, tag_arr = decompose_addr_kernel(
        packed.addr, offset_bits, index_mask, index_bits
    )
    si = set_arr.tolist()
    bt = tag_arr.tolist()
    st = packed.is_store.tolist()
    pcs_l = packed.pc.tolist()
    blocks_l = block_of_array(packed.addr, pf.block_bytes).tolist()

    loads_mask = ~packed.is_store
    approx_mask = loads_mask & packed.approximable
    approx_loads = int(np.count_nonzero(approx_mask))

    num_sets = l1.config.num_sets
    assoc = l1.config.associativity
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    dirty: Set[Tuple[int, int]] = set()
    prefetched: Set[Tuple[int, int]] = set()

    loads = stores = load_hits = store_hits = 0
    evictions = writebacks = 0
    prefetch_fills = useful = 0

    for i in range(len(st)):
        s = si[i]
        t = bt[i]
        ways = sets[s]
        if st[i]:
            stores += 1
            if t in ways:
                store_hits += 1
                if ways[-1] != t:
                    ways.remove(t)
                    ways.append(t)
                key = (s, t)
                dirty.add(key)
                if key in prefetched:
                    prefetched.discard(key)
                    useful += 1
            continue
        loads += 1
        if t in ways:
            load_hits += 1
            if ways[-1] != t:
                ways.remove(t)
                ways.append(t)
            key = (s, t)
            if key in prefetched:
                prefetched.discard(key)
                useful += 1
            continue
        # Demand miss: fetch + fill, then inject the prefetch candidates.
        ways.append(t)
        if len(ways) > assoc:
            victim = ways[0]
            del ways[0]
            evictions += 1
            key = (s, victim)
            if key in dirty:
                dirty.discard(key)
                writebacks += 1
            prefetched.discard(key)
        for candidate in on_miss(pcs_l[i], blocks_l[i]):
            cb = candidate >> offset_bits
            cs = cb & index_mask
            ct = cb >> index_bits
            cways = sets[cs]
            if ct in cways:
                continue  # resident blocks are not re-fetched
            prefetch_fills += 1
            cways.append(ct)
            if len(cways) > assoc:
                victim = cways[0]
                del cways[0]
                evictions += 1
                key = (cs, victim)
                if key in dirty:
                    dirty.discard(key)
                    writebacks += 1
                prefetched.discard(key)
            prefetched.add((cs, ct))

    raw_misses = loads - load_hits
    fills = raw_misses + prefetch_fills
    stats = sim.stats
    stats.loads += loads
    stats.stores += stores
    stats.approx_loads += approx_loads
    stats.raw_misses += raw_misses
    stats.fetches += fills
    stats.prefetch_fetches += prefetch_fills
    if approx_loads:
        stats.static_approx_pcs.update(np.unique(packed.pc[approx_mask]).tolist())

    l1.stats.useful_prefetches += useful
    _rebuild_l1(
        sim,
        sets,
        dirty,
        loads + store_hits,
        load_hits + store_hits,
        raw_misses,
        evictions,
        writebacks,
        fills=fills,
        prefetched=prefetched,
    )
