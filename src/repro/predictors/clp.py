"""Cache-level prediction (CLP) baseline.

Following "Reducing Load Latency with Cache Level Prediction" (Jalili &
Erez), the stronger baseline family predicts *where* a load hits rather
than its value: a correct level prediction lets the core issue the fill
request directly to the right level and hide the lookup latencies above
it. This model keeps the trace-driven framing of the repo:

* the phase-1 simulator only models L1 + backing store, so the CLP
  carries its own small modelled L2 (plain-LRU block set) between them;
  every presented miss probes it for the *actual* hit level and then
  fills it, exactly like a fetch would;
* a tag-history table — same ``context_hash`` indexing as the
  approximator — records the recent hit levels per context and predicts
  by majority vote (ties predict the deeper level, the safe direction);
* like LVP, the prediction is validated against the simulated hierarchy
  and a misprediction rolls back: the block is always fetched, no value
  is ever approximated, so the output error is zero by construction. A
  *correct* level prediction counts the miss as covered.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import ApproximatorConfig
from repro.core.hashing import context_hash, context_hash_array
from repro.core.history import HistoryBuffer
from repro.predictors.base import PredictorDecision, ScalarBatchFallback
from repro.predictors.registry import PredictorInfo, register_predictor
from repro.telemetry.registry import safe_ratio

Number = Union[int, float]

#: Hit levels the CLP distinguishes (L1 is excluded: only misses arrive).
LEVEL_L2 = 2
LEVEL_MEMORY = 3

#: Capacity of the modelled L2 in blocks (4096 × 64 B = 256 KB).
CLP_L2_BLOCKS = 4096
#: log2 of the block size shared with the L1 model.
CLP_BLOCK_BITS = 6

#: Below this many misses, ``on_miss_batch`` hashes scalar — a numpy
#: round-trip on a run of one or two PCs costs more than it saves.
_BATCH_HASH_MIN = 32


@dataclass(slots=True)
class LevelToken:
    """Ties an in-flight fetch back to the predicting table entry."""

    index: int
    tag: int
    #: The level the table predicted, or ``None`` when it had no history.
    predicted_level: Optional[int]
    #: The level the modelled hierarchy actually served the miss from.
    actual_level: int


@dataclass(slots=True)
class CacheLevelStats:
    """Event counters for the CLP baseline."""

    lookups: int = 0
    predictions: int = 0
    correct: int = 0
    incorrect: int = 0
    tag_misses: int = 0
    cold_misses: int = 0
    stale_trainings: int = 0
    #: Misses the modelled L2 served vs. filled from memory.
    l2_hits: int = 0
    memory_fills: int = 0
    static_pcs: set = field(default_factory=set)

    @property
    def accuracy(self) -> float:
        """Fraction of attempted level predictions that were correct."""
        return safe_ratio(self.correct, self.correct + self.incorrect)


@dataclass(slots=True)
class LevelEntry:
    """One tag-history table slot: a tag plus recent hit levels."""

    tag: int
    levels: HistoryBuffer

    def reallocate(self, tag: int) -> None:
        self.tag = tag
        self.levels.clear()


class CacheLevelPredictor(ScalarBatchFallback):
    """Tag-history table predicting the hit level of approximable misses.

    Table organisation mirrors the approximator (``table_entries`` slots
    indexed by ``context_hash``, ``lhb_size``-deep per-entry history) so
    the comparison with LVA/LVP holds hardware budget constant.
    """

    def __init__(self, config: Optional[ApproximatorConfig] = None) -> None:
        self.config = config or ApproximatorConfig()
        self.stats = CacheLevelStats()
        self._table: Dict[int, LevelEntry] = {}
        #: Modelled L2: block address -> True, plain LRU via move_to_end.
        self._l2: "OrderedDict[int, bool]" = OrderedDict()
        self._index_bits = self.config.index_bits
        self._tag_bits = self.config.tag_bits
        # The table hash takes no history, so it is a pure function of
        # the PC: (index, tag) pairs are memoised per PC.
        self._pc_hashes: Dict[int, Tuple[int, int]] = {}

    def _probe_hierarchy(self, addr: int) -> int:
        """The level this miss is actually served from; fills the L2."""
        block = addr >> CLP_BLOCK_BITS
        l2 = self._l2
        if block in l2:
            l2.move_to_end(block)
            self.stats.l2_hits += 1
            return LEVEL_L2
        self.stats.memory_fills += 1
        l2[block] = True
        if len(l2) > CLP_L2_BLOCKS:
            l2.popitem(last=False)
        return LEVEL_MEMORY

    def on_miss(self, pc: int, is_float: bool, addr: int = 0) -> PredictorDecision:
        """Present a load miss; the block is always fetched regardless."""
        del is_float  # levels are value-type agnostic
        stats = self.stats
        stats.lookups += 1
        stats.static_pcs.add(pc)
        hashed = self._pc_hashes.get(pc)
        if hashed is None:
            hashed = self._pc_hashes[pc] = context_hash(
                pc, (), self._index_bits, self._tag_bits, 0
            )
        index, tag = hashed
        entry = self._table.get(index)
        if entry is None:
            entry = LevelEntry(tag, HistoryBuffer(self.config.lhb_size))
            self._table[index] = entry
            stats.tag_misses += 1
        elif entry.tag != tag:
            entry.reallocate(tag)
            stats.tag_misses += 1

        actual_level = self._probe_hierarchy(addr)
        history = entry.levels.values()
        if not history:
            stats.cold_misses += 1
            return PredictorDecision(
                predicted=False,
                value=None,
                fetch=True,
                token=LevelToken(index, tag, None, actual_level),
            )
        stats.predictions += 1
        l2_votes = history.count(LEVEL_L2)
        predicted = LEVEL_L2 if 2 * l2_votes > len(history) else LEVEL_MEMORY
        return PredictorDecision(
            predicted=True,
            value=None,
            fetch=True,
            token=LevelToken(index, tag, predicted, actual_level),
        )

    def on_miss_batch(
        self,
        pcs: Sequence[int],
        float_flags: Sequence[bool],
        addrs: Sequence[int],
    ) -> List[PredictorDecision]:
        """Columnar ``on_miss``: hash the whole PC run in numpy passes.

        The CLP's context never includes the GHB (``context_hash(pc, ())``),
        so the index/tag hashing — the bulk of the per-miss arithmetic —
        batches with :func:`context_hash_array`. The table walk, the
        modelled-L2 probe (whose LRU order is the miss order, preserved
        here) and the majority vote stay a tight scalar loop over plain
        lists; results are bit-identical to the scalar path.

        Batches shorter than ``_BATCH_HASH_MIN`` hash scalar instead:
        the value-delay window keeps most runs to a handful of misses,
        and a numpy round-trip per tiny run costs more than it saves.
        Both hashers produce identical index/tag pairs, so the cutover
        is invisible to results.
        """
        del float_flags  # levels are value-type agnostic
        n = len(pcs)
        if n < _BATCH_HASH_MIN:
            index_bits, tag_bits = self._index_bits, self._tag_bits
            pairs = [context_hash(pc, (), index_bits, tag_bits, 0) for pc in pcs]
            indices = [pair[0] for pair in pairs]
            tags = [pair[1] for pair in pairs]
        else:
            index_arr, tag_arr = context_hash_array(
                np.asarray(pcs, dtype=np.uint64), self._index_bits, self._tag_bits
            )
            indices = index_arr.tolist()
            tags = tag_arr.tolist()
        stats = self.stats
        table = self._table
        lhb_size = self.config.lhb_size
        decisions: List[PredictorDecision] = []
        stats.lookups += n
        stats.static_pcs.update(pcs)
        for i in range(n):
            index = indices[i]
            tag = tags[i]
            entry = table.get(index)
            if entry is None:
                entry = LevelEntry(tag, HistoryBuffer(lhb_size))
                table[index] = entry
                stats.tag_misses += 1
            elif entry.tag != tag:
                entry.reallocate(tag)
                stats.tag_misses += 1
            actual_level = self._probe_hierarchy(addrs[i])
            history = entry.levels.values()
            if not history:
                stats.cold_misses += 1
                decisions.append(
                    PredictorDecision(
                        predicted=False,
                        value=None,
                        fetch=True,
                        token=LevelToken(index, tag, None, actual_level),
                    )
                )
                continue
            stats.predictions += 1
            l2_votes = sum(1 for level in history if level == LEVEL_L2)
            predicted = LEVEL_L2 if 2 * l2_votes > len(history) else LEVEL_MEMORY
            decisions.append(
                PredictorDecision(
                    predicted=True,
                    value=None,
                    fetch=True,
                    token=LevelToken(index, tag, predicted, actual_level),
                )
            )
        return decisions

    def train(self, token: LevelToken, actual: Number) -> bool:
        """Validate the level prediction and record the observed level.

        The fetched *value* is irrelevant to a level predictor; only the
        level recorded at probe time trains the history. Returns True
        when the prediction was correct — the miss latency above the
        predicted level was covered.
        """
        del actual
        correct = token.predicted_level == token.actual_level
        if token.predicted_level is not None:
            if correct:
                self.stats.correct += 1
            else:
                self.stats.incorrect += 1
        entry = self._table.get(token.index)
        if entry is None or entry.tag != token.tag:
            self.stats.stale_trainings += 1
            return correct
        entry.levels.push(token.actual_level)
        return correct

    @property
    def allocated_entries(self) -> int:
        """Number of table slots touched so far."""
        return len(self._table)

    def reset(self) -> None:
        """Clear all architectural state (table, modelled L2) and statistics."""
        self._table.clear()
        self._l2.clear()
        self.stats = CacheLevelStats()


register_predictor(
    PredictorInfo(
        name="clp",
        factory=CacheLevelPredictor,
        description="cache-level predictor: tag-history table over hit levels, rollback on miss",
        zero_output_error=True,
        batch_kernel="batch",
    )
)
