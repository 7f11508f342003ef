"""The phase-1 trace-driven simulator (Pin + cache-simulator substitute).

Models a private L1 data cache and one technique on its miss stream:

* ``PRECISE``  — conventional cache: every miss fetches its block (1:1).
* ``LVA``     — the load value approximator: approximable misses may be
  served with generated values, and the approximation degree may cancel
  the fetch entirely.
* ``LVP``     — idealized load value prediction: every miss fetches; a miss
  counts as covered when the actual value appears in the entry's LHB.
* ``PREFETCH`` — GHB prefetcher: every miss fetches and additionally issues
  up to ``degree`` prefetches (applied to all data, not just annotated).
* ``PREDICTOR`` — any registered miss predictor (:mod:`repro.predictors`),
  resolved by name from ``config.predictor`` (or the ``REPRO_PREDICTOR``
  override). Resolving ``"lva"``/``"lvp"`` builds the exact objects the
  fixed modes build, so those runs are bit-identical to ``LVA``/``LVP``.

The simulator implements :class:`~repro.sim.frontend.MemoryFrontend`, so
workloads run against it unmodified; with ``LVA`` the values returned to the
workload are clobbered, which is how output error is measured (Section V-A).
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.core.approximator import DelayQueue
from repro.core.config import ApproximatorConfig
from repro.faults.memory import build_memory_model
from repro.errors import ConfigurationError
from repro.mem.cache import CacheConfig, SetAssociativeCache
from repro.predictors import registry as predictor_registry
from repro.predictors.base import MissPredictor
from repro.prefetch.base import Prefetcher
from repro.prefetch.ghb import GHBPrefetcher
from repro.sim.frontend import MemoryFrontend
from repro.sim.stats import SimulationStats
from repro.sim.trace import TraceRecorder
from repro.telemetry import sim_hook

Number = Union[int, float]

#: L1 configuration of the design-space phase: 64 KB private data cache.
PHASE1_L1 = CacheConfig(size_bytes=64 * 1024, associativity=8, block_bytes=64, latency=1)


class Mode(enum.Enum):
    """Which technique observes the L1 miss stream."""

    PRECISE = "precise"
    LVA = "lva"
    LVP = "lvp"
    PREFETCH = "prefetch"
    #: Registry-resolved predictor (config.predictor / REPRO_PREDICTOR).
    PREDICTOR = "predictor"


class TraceSimulator(MemoryFrontend):
    """L1 + technique simulator behind the workload memory interface."""

    def __init__(
        self,
        mode: Mode = Mode.PRECISE,
        approximator_config: Optional[ApproximatorConfig] = None,
        l1_config: CacheConfig = PHASE1_L1,
        prefetcher: Optional[Prefetcher] = None,
        prefetch_degree: int = 4,
        recorder: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(recorder=recorder)
        self.mode = mode
        self.stats = SimulationStats()
        self.l1 = SetAssociativeCache(l1_config, name="L1D")
        #: The one technique driven on approximable misses, through the
        #: scalar MissPredictor contract (None without a technique mode).
        self.technique: Optional[MissPredictor] = None
        #: Registry name of :attr:`technique` (None = none).
        self.predictor_name: Optional[str] = None
        self.prefetcher: Optional[Prefetcher] = None
        # Value-delayed trainings, clocked once per load. Never pushed to
        # without a technique, so its next_due stays out of reach.
        self._delay = DelayQueue(0)
        # Injected memory faults (None in the overwhelmingly common clean
        # case; the miss path pays one is-None test). Built per simulator
        # so the seeded fault pattern is deterministic per run.
        self._mem_faults = build_memory_model()
        # Telemetry hook (None in the common disabled case; the hot path
        # pays one is-None test per load, same idiom as the fault model).
        self._tel = sim_hook()

        # The miss handler is bound once, here, as a plain function taking
        # the simulator: a bound method stored on the instance would be a
        # reference cycle, keeping every finished simulator (value store,
        # L1, tables) alive until the cyclic collector runs.
        cls = type(self)
        config = approximator_config or ApproximatorConfig()
        if mode in (Mode.LVA, Mode.LVP, Mode.PREDICTOR):
            # All technique modes resolve through the registry. The fixed
            # modes pin their historical names; PREDICTOR honours the env
            # override, then config.predictor. Every technique is driven
            # through the one scalar MissPredictor contract.
            name = predictor_registry.resolve_name(mode.value, config)
            self.technique = predictor_registry.create(name, config)
            self.predictor_name = name
            self._delay = DelayQueue(config.value_delay)
            self._serve_miss = cls._serve_technique_miss
        elif mode is Mode.PREFETCH:
            self.prefetcher = prefetcher or GHBPrefetcher(
                degree=prefetch_degree, block_bytes=l1_config.block_bytes
            )
            self._serve_miss = cls._serve_prefetch_miss
        elif mode is Mode.PRECISE:
            self._serve_miss = cls._serve_precise_miss
        else:
            raise ConfigurationError(f"unknown mode {mode!r}")

    # ------------------------------------------------------------------ #
    # MemoryFrontend implementation                                       #
    # ------------------------------------------------------------------ #

    def _serve_load(
        self, pc: int, addr: int, actual: Number, approximable: bool, is_float: bool
    ) -> Number:
        stats = self.stats
        stats.loads += 1
        if approximable:
            stats.approx_loads += 1
            stats.static_approx_pcs.add(pc)
        if self._tel is not None:
            stats.instructions = self.instructions
            self._tel.on_load(stats)

        delay = self._delay
        now = delay.clock + 1
        delay.clock = now
        while now >= delay.next_due:
            # Rollback techniques resolve coverage when the value lands
            # (train returns True); LVA counted it at decision time.
            token, landed = delay.pop()
            if self.technique.train(token, landed):
                stats.covered_misses += 1

        if self.l1.probe(addr):
            return actual

        stats.raw_misses += 1

        # On a miss the value comes from the memory hierarchy; an injected
        # fault model may corrupt it in flight (silent data corruption).
        # Only approximable data is exposed: pointers and control data live
        # in reliable storage (the paper's EnerJ-style annotation separates
        # exactly these), so a corrupted value degrades output quality
        # rather than crashing the modelled program.
        if approximable and self._mem_faults is not None:
            actual, flipped = self._mem_faults.corrupt_value(actual, is_float)
            if flipped:
                stats.value_bit_flips += 1
                if self._tel is not None:
                    self._tel.on_fault("value_bit_flip", addr)

        return self._serve_miss(self, pc, addr, actual, approximable, is_float)

    # One of the three miss handlers below is bound to ``_serve_miss`` at
    # construction. Each fills the L1 inline unless a fault model is
    # active and drops the fetch (see _fetch_arrives).

    def _serve_precise_miss(
        self, pc: int, addr: int, actual: Number, approximable: bool, is_float: bool
    ) -> Number:
        if self._mem_faults is None or self._fetch_arrives(addr):
            self.stats.fetches += 1
            self.l1.fill(addr)
        return actual

    def _serve_prefetch_miss(
        self, pc: int, addr: int, actual: Number, approximable: bool, is_float: bool
    ) -> Number:
        # The prefetcher observes every miss, approximable or not.
        stats = self.stats
        l1 = self.l1
        if self._mem_faults is None or self._fetch_arrives(addr):
            stats.fetches += 1
            l1.fill(addr)
        for candidate in self.prefetcher.on_miss(pc, addr):
            if not l1.contains(candidate) and (
                self._mem_faults is None or self._fetch_arrives(candidate)
            ):
                stats.fetches += 1
                stats.prefetch_fetches += 1
                l1.fill(candidate, prefetched=True)
        return actual

    def _serve_technique_miss(
        self, pc: int, addr: int, actual: Number, approximable: bool, is_float: bool
    ) -> Number:
        """Drive the technique through the scalar MissPredictor contract
        (see :mod:`repro.predictors.base`); precise misses just fetch.

        A returned value covers the miss at decision time (LVA-style); a
        value-less decision proceeds precisely, and its training may still
        report the miss as covered (rollback-style, like LVP/CLP).
        """
        stats = self.stats
        if not approximable:
            if self._mem_faults is None or self._fetch_arrives(addr):
                stats.fetches += 1
                self.l1.fill(addr)
            return actual
        decision = self.technique.on_miss(pc, is_float, addr)
        value = decision.value
        if self._tel is not None:
            self._tel.on_decision(pc, addr, value is not None, decision.fetch)
        if not decision.fetch:
            stats.fetches_avoided += 1
        elif self._mem_faults is None or self._fetch_arrives(addr):
            # A dropped fetch means the block never arrives: no training.
            stats.fetches += 1
            self.l1.fill(addr)
            if decision.token is not None:
                self._delay.push(decision.token, actual)
        if value is None:
            return actual  # rollbacks restore precision
        stats.covered_misses += 1
        return value

    def _serve_store(self, addr: int) -> None:
        self.stats.stores += 1
        # Write-no-allocate: a store miss goes straight to the next level
        # (store misses are off the critical path, Section V-A) and does not
        # fetch a block; a store hit just dirties the resident block.
        self.l1.write_hit(addr)

    def _serve_store_streaming(self, addr: int) -> None:
        self.stats.stores += 1
        # Non-temporal/DMA write: the cached copy (if any) is stale now.
        self.l1.invalidate(addr)

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _fetch_arrives(self, addr: int) -> bool:
        """Consult the fault model for one fetch; False (and counted) when
        the injected fault drops it, so the block never arrives."""
        if self._mem_faults.drop_fetch():
            self.stats.fetches_dropped += 1
            if self._tel is not None:
                self._tel.on_fault("fetch_drop", addr)
            return False
        return True

    # ------------------------------------------------------------------ #
    # Lifecycle                                                          #
    # ------------------------------------------------------------------ #

    def finish(self) -> SimulationStats:
        """Flush in-flight trainings and return the final statistics.

        Must be called once after the workload completes; pending
        value-delayed trainings are applied so LVP coverage and LVA
        confidence are fully accounted.
        """
        for token, actual in self._delay.drain():
            if self.technique.train(token, actual):
                self.stats.covered_misses += 1
        self.stats.instructions = self.instructions
        if self._tel is not None:
            self._tel.finish(self.stats)
        return self.stats
