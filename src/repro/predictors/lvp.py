"""Idealized load value prediction (LVP) baseline (Section VI).

The paper compares LVA against an *idealized* LVP: a prediction counts as
correct whenever **any** of the values in the entry's LHB matches the
precise value in memory, i.e. the selection mechanism is a perfect oracle.
This upper-bounds LVP's ability to reduce MPKI.

Differences from the approximator:

* predictions must be exactly right — a confidence window of 0 %;
* every miss still fetches its block (the prediction must be validated), so
  the fetch-to-miss ratio is pinned at 1:1 and no energy is saved;
* a misprediction triggers a rollback, so the application always finishes
  with precise values: LVP has zero output error by construction.

Historically this lived in ``repro.core.predictor``; it is now the
``"lvp"`` entry of the predictor registry (:mod:`repro.predictors`) and
the old module re-exports these names behind deprecation shims.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.core.config import ApproximatorConfig
from repro.core.entry import ApproximatorEntry
from repro.core.hashing import context_hash
from repro.core.history import HistoryBuffer
from repro.predictors.base import ScalarBatchFallback
from repro.predictors.registry import PredictorInfo, register_predictor

Number = Union[int, float]


@dataclass(slots=True)
class PredictionToken:
    """Handle tying an in-flight fetch to the predicting entry."""

    index: int
    tag: int
    #: Snapshot of the LHB at prediction time; the oracle selection checks
    #: the actual value against this set when the block arrives.
    lhb_snapshot: Tuple[Number, ...]


@dataclass(slots=True)
class PredictionDecision:
    """Outcome of presenting a load miss to the predictor."""

    #: True when a prediction was attempted (LHB held at least one value).
    predicted: bool
    token: PredictionToken
    #: Never a value: a misprediction rolls back, so the core always
    #: continues with the precise one (``MissPredictor`` contract).
    value: Optional[Number] = None
    #: Every miss fetches; the prediction must be validated.
    fetch: bool = True


@dataclass(slots=True)
class PredictorStats:
    """Event counters for the LVP baseline."""

    lookups: int = 0
    predictions: int = 0
    correct: int = 0
    incorrect: int = 0
    tag_misses: int = 0
    cold_misses: int = 0
    stale_trainings: int = 0
    static_pcs: set = field(default_factory=set)

    @property
    def accuracy(self) -> float:
        """Fraction of attempted predictions validated as exactly correct."""
        resolved = self.correct + self.incorrect
        return self.correct / resolved if resolved else 0.0


class IdealizedLoadValuePredictor(ScalarBatchFallback):
    """LVP sharing the approximator's table organisation (GHB + LHB).

    Reuses :class:`ApproximatorEntry` so that LVP-GHB-*n* in Figure 4 is an
    apples-to-apples comparison with LVA-GHB-*n*: same table size, same
    history depths, same hash.
    """

    def __init__(self, config: Optional[ApproximatorConfig] = None) -> None:
        self.config = config or ApproximatorConfig()
        self.ghb = HistoryBuffer(self.config.ghb_size)
        self.stats = PredictorStats()
        self._table: Dict[int, ApproximatorEntry] = {}
        config = self.config
        self._index_bits = config.index_bits
        self._tag_bits = config.tag_bits
        self._drop_bits = config.mantissa_drop_bits
        # With an empty GHB the context hash is a pure function of the PC,
        # so (index, tag) pairs are memoised per PC (as in the approximator).
        self._pc_hashes: Optional[Dict[int, Tuple[int, int]]] = (
            {} if config.ghb_size == 0 else None
        )

    def on_miss(self, pc: int, is_float: bool, addr: int = 0) -> PredictionDecision:
        """Present a load miss; the block is always fetched regardless."""
        del is_float, addr  # the oracle needs neither type nor address
        stats = self.stats
        stats.lookups += 1
        stats.static_pcs.add(pc)
        pc_hashes = self._pc_hashes
        if pc_hashes is not None:
            hashed = pc_hashes.get(pc)
            if hashed is None:
                hashed = pc_hashes[pc] = context_hash(
                    pc, (), self._index_bits, self._tag_bits, self._drop_bits
                )
            index, tag = hashed
        else:
            index, tag = context_hash(
                pc, self.ghb.values(), self._index_bits, self._tag_bits, self._drop_bits
            )
        entry = self._table.get(index)
        if entry is None:
            entry = ApproximatorEntry(
                tag, self.config.confidence_bits, self.config.lhb_size, 0
            )
            self._table[index] = entry
            stats.tag_misses += 1
        elif entry.tag != tag:
            entry.reallocate(tag)
            stats.tag_misses += 1

        snapshot = entry.lhb.values()
        if not snapshot:
            stats.cold_misses += 1
            return PredictionDecision(
                predicted=False, token=PredictionToken(index, tag, snapshot)
            )
        stats.predictions += 1
        return PredictionDecision(
            predicted=True, token=PredictionToken(index, tag, snapshot)
        )

    def train(self, token: PredictionToken, actual: Number) -> bool:
        """Validate against the arrived value and train the tables.

        Returns True when the (idealized) prediction was correct — the
        actual value appears exactly in the LHB snapshot — so the driving
        simulator can count the miss as covered.
        """
        snapshot = token.lhb_snapshot
        correct = False
        for value in snapshot:
            if value == actual:
                correct = True
                break
        if snapshot:
            if correct:
                self.stats.correct += 1
            else:
                self.stats.incorrect += 1
        self.ghb.push(actual)
        entry = self._table.get(token.index)
        if entry is None or entry.tag != token.tag:
            self.stats.stale_trainings += 1
            return correct
        entry.lhb.push(actual)
        return correct

    @property
    def allocated_entries(self) -> int:
        """Number of table slots touched so far."""
        return len(self._table)

    def reset(self) -> None:
        """Clear all architectural state and statistics."""
        self._table.clear()
        self.ghb.clear()
        self.stats = PredictorStats()


register_predictor(
    PredictorInfo(
        name="lvp",
        factory=IdealizedLoadValuePredictor,
        description="idealized load value predictor: oracle selection, rollback on miss",
        zero_output_error=True,
        batch_kernel="lvp",
    )
)
