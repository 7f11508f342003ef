"""Shared infrastructure for the experiment drivers.

The paper's two-phase methodology is mirrored exactly:

* **Phase 1** (design space, Sections VI-A..D): run the workload against a
  :class:`TraceSimulator` in PRECISE mode and in the technique mode under
  study; report MPKI normalized to precise, fetches normalized to precise,
  and application output error versus the precise output.
* **Phase 2** (full system, Section VI-E): capture a 4-thread trace from
  the precise run and replay it through :class:`FullSystemSimulator` with
  and without approximation.

Both phases break down into four kinds of point (:data:`KINDS`): a
precise baseline, a technique run, a trace capture and a full-system
replay. Each kind has one cached entry point, and all four go through
one cache ladder (:func:`_memo`) keyed on the point's identity
(:func:`identity`).
"""

from __future__ import annotations

import math
import time
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Tuple,
    TypeVar,
    Union,
    cast,
    runtime_checkable,
)

from repro import faults, telemetry
from repro.core.config import ApproximatorConfig
from repro.predictors import registry as predictor_registry
from repro.energy.model import EnergyBreakdown
from repro.experiments import diskcache, tracestore
from repro.fullsystem import FullSystemConfig, FullSystemResult, FullSystemSimulator
from repro.sim.trace import PackedTrace, Trace, TraceRecorder
from repro.sim.tracesim import Mode, TraceSimulator
from repro.workloads.registry import get_workload, workload_names

if TYPE_CHECKING:  # avoid the common <-> sweep import cycle at runtime
    from repro.experiments.sweep import SweepPoint

#: Canonical workload order used by every figure.
BASELINE_WORKLOADS: Tuple[str, ...] = tuple(workload_names())

#: Phase-2 workload parameter overrides — the paper's full-system runs use
#: the smaller *simmedium* inputs; these overrides play the same role,
#: rebalancing compute per miss for the scaled-down 16 KB L1 platform.
PHASE2_PARAMS: Dict[str, dict] = {
    "canneal": {"compute_cost": 1600},
    "bodytrack": {"compute_cost": 400},
}


def cell_text(value: Optional[float], precision: int = 4) -> str:
    """One table cell: ``-`` when the series has no such point, ``FAILED``
    for NaN (a point that failed), else the value."""
    if value is None:
        return "-"
    if math.isnan(value):
        return "FAILED"
    return f"{value:.{precision}f}"


@dataclass
class ExperimentResult:
    """A table/figure reproduction: labelled series of per-workload values.

    ``series[label][workload]`` holds the measured value; ``meta`` records
    experiment-level context (units, the paper's headline numbers, etc.).
    """

    name: str
    description: str
    series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def add(self, label: str, workload: str, value: float) -> None:
        """Record one measured point."""
        self.series.setdefault(label, {})[workload] = value

    def average(self, label: str) -> float:
        """Arithmetic mean of one series across workloads.

        FAILED cells (NaN, from sweep points that exhausted their
        retries) are excluded so one lost point does not poison the
        whole row; an all-failed series averages to NaN.
        """
        values = [v for v in self.series[label].values() if not math.isnan(v)]
        if not values:
            return float("nan") if self.series[label] else 0.0
        return sum(values) / len(values)

    def format_table(self) -> str:
        """Render the result the way the paper's figure reports it."""
        labels = list(self.series)
        workloads: List[str] = []
        for s in self.series.values():
            for w in s:
                if w not in workloads:
                    workloads.append(w)
        width = max([len(w) for w in workloads] + [9])
        header = f"{'benchmark':<{width}} " + " ".join(f"{l:>12}" for l in labels)
        lines = [f"== {self.name}: {self.description} ==", header]
        for workload in workloads:
            cells = " ".join(
                f"{cell_text(self.series[l].get(workload)):>12}" for l in labels
            )
            lines.append(f"{workload:<{width}} {cells}")
        averages = " ".join(f"{cell_text(self.average(l)):>12}" for l in labels)
        lines.append(f"{'average':<{width}} {averages}")
        return "\n".join(lines)

    def format_chart(self, label: str, bar_width: int = 48) -> str:
        """Render one series as a horizontal ASCII bar chart.

        Handy for eyeballing a figure's shape straight from the CLI
        without any plotting dependency.
        """
        series = self.series[label]
        if not series:
            return f"{self.name} / {label}: (empty)"
        peak = max(abs(v) for v in series.values()) or 1.0
        name_width = max(len(k) for k in series)
        lines = [f"{self.name} — {label} (full bar = {peak:.4g})"]
        for workload, value in series.items():
            filled = int(round(abs(value) / peak * bar_width))
            bar = "#" * filled
            sign = "-" if value < 0 else ""
            lines.append(f"{workload:<{name_width}} |{bar:<{bar_width}}| {sign}{abs(value):.4f}")
        return "\n".join(lines)


def averaged(
    driver: "Callable[..., ExperimentResult]",
    repeats: int = 5,
    small: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    """Run a driver over ``repeats`` seeds and average every series.

    The paper averages all measurements over 5 simulation runs
    (Section V-A); this wrapper applies the same protocol to any
    experiment driver, using seeds ``seed, seed+1, ...``.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    results = [driver(small=small, seed=seed + i) for i in range(repeats)]
    merged = ExperimentResult(
        name=results[0].name,
        description=f"{results[0].description} (mean of {repeats} seeds)",
        meta=dict(results[0].meta),
    )
    for label in results[0].series:
        for workload in results[0].series[label]:
            values = [r.series[label][workload] for r in results]
            merged.add(label, workload, sum(values) / len(values))
    return merged


@runtime_checkable
class ExperimentDriver(Protocol):
    """The one experiment-driver contract, spoken by the runner, the sweep
    engine and programmatic callers:

    * :meth:`points` — declare the sweep points this experiment needs
      (empty for experiments that do not decompose into points);
    * :meth:`render` — assemble the figure/table through the cached
      entry points (cheap once a sweep has warmed them).
    """

    name: str

    def points(self, small: bool = False, seed: int = 0) -> "List[SweepPoint]": ...

    def render(self, small: bool = False, seed: int = 0) -> ExperimentResult: ...


@dataclass(frozen=True)
class Driver:
    """Concrete :class:`ExperimentDriver` wrapping a driver module's
    render and point-declaration functions."""

    name: str
    render_fn: Callable[..., ExperimentResult]
    points_fn: Optional[Callable[..., "List[SweepPoint]"]] = None

    def points(self, small: bool = False, seed: int = 0) -> "List[SweepPoint]":
        """The sweep points this experiment needs (may be empty)."""
        if self.points_fn is None:
            return []
        return self.points_fn(small=small, seed=seed)

    def render(self, small: bool = False, seed: int = 0) -> ExperimentResult:
        """Assemble the figure/table (cheap once the caches are warm)."""
        return self.render_fn(small=small, seed=seed)

    def __call__(self, small: bool = False, seed: int = 0) -> ExperimentResult:
        # Drivers stay callable so seed-averaging helpers and existing
        # ``EXPERIMENTS[name](...)`` call sites keep working.
        return self.render(small=small, seed=seed)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (used for normalized ratios)."""
    values = [max(v, 1e-12) for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --------------------------------------------------------------------- #
# Results and failure placeholders                                      #
# --------------------------------------------------------------------- #

@dataclass
class PreciseReference:
    """Cached precise-execution baseline for one workload instance."""

    output: object
    instructions: int
    mpki: float
    fetches_per_ki: float


def failed_precise_reference(message: str) -> PreciseReference:
    """A baseline placeholder for a permanently failed sweep point.

    Backfilled into the in-memory cache only (never the disk cache) so
    drivers can still assemble their tables — every dependent cell
    renders as FAILED via NaN.
    """
    return PreciseReference(
        output={"failed": message},
        instructions=0,
        mpki=float("nan"),
        fetches_per_ki=float("nan"),
    )


@dataclass
class TechniqueResult:
    """One phase-1 measurement of a technique against its precise baseline."""

    normalized_mpki: float
    normalized_fetches: float
    output_error: float
    coverage: float
    instruction_variation: float
    static_approx_pcs: int
    raw: dict


def failed_technique_result(message: str) -> TechniqueResult:
    """A placeholder for a technique point that exhausted its retries.

    NaN metric fields render as FAILED cells; the failure reason rides
    along in ``raw``. In-memory backfill only — never written to disk.
    """
    nan = float("nan")
    return TechniqueResult(
        normalized_mpki=nan,
        normalized_fetches=nan,
        output_error=nan,
        coverage=nan,
        instruction_variation=nan,
        static_approx_pcs=0,
        raw={"failed": True, "error": message},
    )


def failed_fullsystem_result(message: str) -> FullSystemResult:
    """A placeholder for a full-system point that exhausted its retries.

    NaN timing/energy fields render as FAILED cells through the figure
    drivers' ratio properties. In-memory backfill only — never written
    to disk.
    """
    nan = float("nan")
    return FullSystemResult(
        cycles=nan,
        instructions=0,
        loads=0,
        raw_misses=0,
        covered_misses=0,
        fetches=0,
        l2_accesses=0,
        memory_accesses=0,
        noc_flit_hops=0,
        approximator_accesses=0,
        total_miss_latency=nan,
        energy=EnergyBreakdown(),
        core_cycles=[],
        failure=message,
    )


def is_failed(result: object) -> bool:
    """True for the failure placeholders produced by the sweep engine."""
    if isinstance(result, TechniqueResult):
        return bool(result.raw.get("failed"))
    if isinstance(result, PreciseReference):
        return isinstance(result.output, dict) and "failed" in result.output
    if isinstance(result, FullSystemResult):
        return result.failure is not None
    return False


# --------------------------------------------------------------------- #
# Point kinds and point identity                                        #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class PointKind:
    """What the cache ladder and the sweep engine know about one kind of point."""

    name: str
    #: What the disk cache (trace store, for a capture) must hold to serve a point.
    result_type: type
    #: The in-memory stand-in for a point that failed for good. None for a
    #: capture: its artifact is the trace-store entry, so nothing of it is
    #: backfilled into the parent, result or placeholder.
    placeholder: Optional[Callable[[str], object]] = None
    #: The kind of the point this one needs first, and the error a point
    #: reports when that dependency failed for good.
    dependency: Optional[str] = None
    dependency_error: Tuple[str, str] = ("", "")


#: The four kinds of sweep point (PAPER.md's two phases): a phase-1
#: precise baseline and technique run, a phase-2 trace capture and
#: full-system replay.
KINDS: Dict[str, PointKind] = {
    kind.name: kind
    for kind in (
        PointKind("precise", PreciseReference, failed_precise_reference),
        PointKind(
            "technique",
            TechniqueResult,
            failed_technique_result,
            "precise",
            ("BaselineFailed", "precise baseline for this point failed"),
        ),
        PointKind("capture", PackedTrace),
        PointKind(
            "fullsystem",
            FullSystemResult,
            failed_fullsystem_result,
            "capture",
            ("CaptureFailed", "trace capture for this point failed"),
        ),
    )
}

#: A point's kind and its defining components as ``(name, value)`` pairs.
#: The in-process memo keys on it; the persistent layers key on its hash.
Identity = Tuple[str, Tuple[Tuple[str, object], ...]]

_BASELINE_CONFIG = ApproximatorConfig()


def identity(
    kind: str,
    workload: str,
    seed: int = 0,
    small: bool = False,
    params: Tuple[Tuple[str, object], ...] = (),
    mode: Optional[Mode] = None,
    config: Optional[ApproximatorConfig] = None,
    prefetch_degree: int = 4,
    fault_spec: str = "",
    predictor_override: str = "",
    approximate: bool = False,
) -> Identity:
    """The identity of one point of ``kind``; arguments it ignores play no part.

    * precise: the workload run (workload, seed, scale, parameters).
      Baselines always execute clean.
    * technique: the workload run plus mode, approximator config and
      prefetch degree. An active memory-fault spec and the
      ``REPRO_PREDICTOR`` override (which retargets ``Mode.PREDICTOR``
      points) are components only when set, so clean keys stay stable.
    * capture: workload, seed and scale; the :data:`PHASE2_PARAMS`
      scaling and the trace schema join in :func:`disk_key`.
    * fullsystem: workload, seed, scale, ``approximate``, the
      approximator config and the trace schema, so replay results
      computed from an older trace format never outlive it.
    """
    components: Dict[str, object] = {"workload": workload, "seed": seed, "small": small}
    if kind == "precise":
        components["params"] = params
    elif kind == "technique":
        components.update(
            params=params,
            mode=mode,
            config=config if config is not None else _BASELINE_CONFIG,
            prefetch_degree=prefetch_degree,
        )
        if fault_spec:
            components["faults"] = fault_spec
        if predictor_override:
            components["predictor_override"] = predictor_override
    elif kind == "fullsystem":
        components.update(
            approximate=approximate,
            config=config if config is not None else _BASELINE_CONFIG,
            trace_schema=tracestore.TRACE_SCHEMA_VERSION,
        )
    return kind, tuple(components.items())


def disk_key(point: Identity) -> str:
    """The disk-cache key of a point (the trace-store key, for a capture)."""
    kind, components = point
    fields = dict(components)
    if kind == "capture":
        name = str(fields["workload"])
        return tracestore.trace_key(
            name, fields["seed"], fields["small"], PHASE2_PARAMS.get(name)
        )
    return diskcache.point_key(kind, **fields)


def _items(params: Optional[dict]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((params or {}).items()))


# --------------------------------------------------------------------- #
# The cache ladder                                                      #
# --------------------------------------------------------------------- #

#: Bound of the in-process packed-trace LRU: phase-2 figures iterate one
#: workload at a time, so a handful of entries covers every access
#: pattern the drivers have.
TRACE_LRU_CAPACITY = 4


class _PackedTraceLRU(OrderedDict[Identity, PackedTrace]):
    """A small, bounded in-process cache of packed traces.

    The persistent tier is the memory-mapped
    :mod:`~repro.experiments.tracestore`; this layer only avoids
    re-validating and re-opening the store entry on consecutive accesses
    to the same trace, without retaining every trace of a multi-workload
    run.
    """

    def get(self, key, default=None):  # type: ignore[override]
        entry = super().get(key, default)
        if entry is not None:
            self.move_to_end(key)
        return entry

    def __setitem__(self, key: Identity, trace: PackedTrace) -> None:
        super().__setitem__(key, trace)
        self.move_to_end(key)
        while len(self) > TRACE_LRU_CAPACITY:
            self.popitem(last=False)


#: In-process results of precise, technique and full-system points.
_MEMO: Dict[Identity, object] = {}
_TRACES = _PackedTraceLRU()

#: Per-process counts of how each point was served, keyed by
#: ``(kind, "computed" | "memory" | "disk")``; "disk" counts trace-store
#: hits for captures. The sweep engine aggregates per-task deltas across
#: workers to verify its exactly-once guarantee.
COMPUTE_COUNTS: Counter[Tuple[str, str]] = Counter()

T = TypeVar("T")


def _memo(point: Identity, compute: Callable[[], T]) -> T:
    """Serve one point from the first layer holding it, else compute it.

    The layers are the in-process memo, then the disk cache (the
    memory-mapped trace store, for a capture, whose columns worker
    processes share zero-copy), then ``compute``, whose result is
    published to both. The simulations are deterministic, so every
    layer returns identical data. The persistent key is hashed only on
    a memo miss.
    """
    kind = point[0]
    memo = _TRACES if kind == "capture" else _MEMO
    cached = memo.get(point)
    if cached is not None:
        COMPUTE_COUNTS[kind, "memory"] += 1
        return cast(T, cached)
    store = tracestore.active_store() if kind == "capture" else diskcache.active_cache()
    key = ""
    if store is not None:
        key = disk_key(point)
        stored = store.get(key)
        if isinstance(stored, KINDS[kind].result_type):
            COMPUTE_COUNTS[kind, "disk"] += 1
            memo[point] = stored
            return cast(T, stored)
    result = compute()
    COMPUTE_COUNTS[kind, "computed"] += 1
    memo[point] = result
    if store is not None:
        store.put(key, result)
    return result


def remember(point: Identity, result: object) -> None:
    """Put a result computed elsewhere (or a failure placeholder, which
    never reaches disk) into the in-process memo."""
    _MEMO[point] = result


def clear_memory_caches() -> None:
    """Drop every in-process layer and zero :data:`COMPUTE_COUNTS`.

    The disk cache and trace store stay: this is what a fresh process
    sees.
    """
    _MEMO.clear()
    _TRACES.clear()
    COMPUTE_COUNTS.clear()


def reset_caches() -> None:
    """Drop every cache layer, the persistent ones (when enabled) too, so a
    reset really does force fresh simulations."""
    clear_memory_caches()
    disk = diskcache.active_cache()
    if disk is not None:
        disk.clear()
    store = tracestore.active_store()
    if store is not None:
        store.clear()


# --------------------------------------------------------------------- #
# Phase 1                                                               #
# --------------------------------------------------------------------- #

def _workload(name: str, small: bool, params: Optional[dict] = None):
    return get_workload(name, params=params, small=small)


def run_precise_reference(
    name: str, seed: int = 0, small: bool = False, params: Optional[dict] = None
) -> PreciseReference:
    """Precise run through the phase-1 simulator (cached, see :func:`_memo`).

    Every technique point of a workload instance needs the same baseline.
    """
    return _memo(
        identity("precise", name, seed, small, _items(params)),
        lambda: _compute_precise(name, seed, small, params),
    )


def _compute_precise(
    name: str, seed: int, small: bool, params: Optional[dict]
) -> PreciseReference:
    # Precise references always execute clean: injected memory faults are
    # suppressed so error under faults is measured against an
    # uncorrupted baseline.
    with faults.no_memory_faults():
        workload = _workload(name, small, params)
        sim = TraceSimulator(Mode.PRECISE)
        output = workload.execute(sim, seed)
        stats = sim.finish()
    return PreciseReference(
        output=output,
        instructions=stats.instructions,
        mpki=stats.raw_mpki,
        fetches_per_ki=stats.fetches_per_kilo_instruction,
    )


def run_technique(
    name: str,
    mode: Mode,
    config: Optional[ApproximatorConfig] = None,
    prefetch_degree: int = 4,
    seed: int = 0,
    small: bool = False,
    params: Optional[dict] = None,
) -> TechniqueResult:
    """Run one workload under one technique; normalize against precise.

    Results are cached on the full configuration (see :func:`_memo`):
    different figures sweep overlapping design points (e.g. Figures 4
    and 5 share every LVA run), and the simulations are deterministic,
    making the cache semantically invisible.
    """
    point = identity(
        "technique",
        name,
        seed,
        small,
        _items(params),
        mode=mode,
        config=config,
        prefetch_degree=prefetch_degree,
        fault_spec=faults.active_memory_spec(),
        predictor_override=predictor_registry.active_override(mode.value),
    )
    return _memo(
        point,
        lambda: _compute_technique(name, mode, config, prefetch_degree, seed, small, params),
    )


def _compute_technique(
    name: str,
    mode: Mode,
    config: Optional[ApproximatorConfig],
    prefetch_degree: int,
    seed: int,
    small: bool,
    params: Optional[dict],
) -> TechniqueResult:
    reference = run_precise_reference(name, seed, small, params)
    workload = _workload(name, small, params)
    sim = TraceSimulator(
        mode, approximator_config=config, prefetch_degree=prefetch_degree
    )
    output = workload.execute(sim, seed)
    stats = sim.finish()
    error = workload.output_error(reference.output, output)
    normalized_mpki = stats.mpki / reference.mpki if reference.mpki else 1.0
    normalized_fetches = (
        stats.fetches_per_kilo_instruction / reference.fetches_per_ki
        if reference.fetches_per_ki
        else 1.0
    )
    variation = (
        abs(stats.instructions - reference.instructions) / reference.instructions
        if reference.instructions
        else 0.0
    )
    return TechniqueResult(
        normalized_mpki=normalized_mpki,
        normalized_fetches=normalized_fetches,
        output_error=error,
        coverage=stats.coverage,
        instruction_variation=variation,
        static_approx_pcs=len(stats.static_approx_pcs),
        raw=stats.as_dict(),
    )


# --------------------------------------------------------------------- #
# Phase 2                                                               #
# --------------------------------------------------------------------- #

def capture_trace(name: str, seed: int = 0, small: bool = False) -> PackedTrace:
    """The packed 4-thread load trace of a precise phase-1 run (cached).

    Full-system workloads use the :data:`PHASE2_PARAMS` input scaling, the
    analogue of the paper switching from simlarge to simmedium. Stored
    traces are memory-mapped from the trace store (see :func:`_memo`).
    """
    return _memo(
        identity("capture", name, seed, small), lambda: _compute_capture(name, seed, small)
    )


def _compute_capture(name: str, seed: int, small: bool) -> PackedTrace:
    # Traces are precise replays: always captured clean (see
    # run_precise_reference). The timing below feeds telemetry gauges
    # only — it never touches the captured trace or any cache key.
    started = time.perf_counter()  # lva: ignore[LVA008]
    with faults.no_memory_faults():
        workload = _workload(name, small, PHASE2_PARAMS.get(name))
        recorder = TraceRecorder()
        sim = TraceSimulator(Mode.PRECISE, recorder=recorder)
        workload.execute(sim, seed)
        sim.finish()
    packed = recorder.trace.pack()
    elapsed = time.perf_counter() - started  # lva: ignore[LVA008]
    if telemetry.enabled():
        registry = telemetry.metrics()
        registry.counter("trace.capture.count").add(1)
        if elapsed > 0:
            registry.gauge("trace.capture.events_per_s").set(len(packed) / elapsed)
    return packed


def run_fullsystem(
    trace: Union[Trace, PackedTrace],
    approximate: bool = False,
    approximator: Optional[ApproximatorConfig] = None,
) -> FullSystemResult:
    """Replay a trace through the Table II platform."""
    config = FullSystemConfig(approximate=approximate, approximator=approximator)
    # Telemetry-only wall timing; the replay result is time-independent.
    started = time.perf_counter()  # lva: ignore[LVA008]
    result = FullSystemSimulator(config).run(trace)
    if telemetry.enabled():
        elapsed = time.perf_counter() - started  # lva: ignore[LVA008]
        registry = telemetry.metrics()
        registry.counter("trace.replay.count").add(1)
        if elapsed > 0:
            registry.gauge("trace.replay.events_per_s").set(len(trace) / elapsed)
    return result


def run_fullsystem_point(
    name: str,
    approximate: bool = False,
    approximator: Optional[ApproximatorConfig] = None,
    seed: int = 0,
    small: bool = False,
) -> FullSystemResult:
    """One cached full-system replay (capture_trace + run_fullsystem).

    The phase-2 analogue of :func:`run_technique`; its trace comes
    through :func:`capture_trace`'s own cache ladder.
    """
    return _memo(
        identity(
            "fullsystem", name, seed, small, approximate=approximate, config=approximator
        ),
        lambda: run_fullsystem(
            capture_trace(name, seed=seed, small=small),
            approximate=approximate,
            approximator=approximator,
        ),
    )
