"""Per-layer metrics from the spans a traced run recorded.

A span is ``[name, parent, start, end, attrs]``; ``parent`` indexes the
span that was open when this one started (-1 at the top). A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans sum to the time covered by the top-level spans;
the rest of the traced wall time is reported as unattributed.

Point spans are the four cached entry points of
:mod:`repro.experiments.common`. A point span "computed" when a
workload execution or a full-system replay ran under it (not under a
nested point); its own time excludes nested point spans, so a technique
point that had to compute its precise baseline first is not charged
for it.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Sequence

POINT_SPANS = (
    "common.precise",
    "common.technique",
    "common.capture",
    "common.fullsystem_point",
)

#: The simulated counts the reference digests pin, in digest order.
EXACT_COUNTS = (
    "sim.loads",
    "sim.stores",
    "sim.l1_misses",
    "fullsystem.sim_cycles",
    "fullsystem.l2_accesses",
    "fullsystem.noc_flit_hops",
)


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest value; with fewer than eleven samples,
    the smallest.
    """
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def counts_digest(metrics: Dict[str, float]) -> str:
    """SHA-256 over the exact simulated counts (see :data:`EXACT_COUNTS`)."""
    payload = json.dumps([repr(metrics[name]) for name in EXACT_COUNTS])
    return hashlib.sha256(payload.encode()).hexdigest()


class SpanTree:
    """Index a span list: durations, children and nearest point ancestors."""

    def __init__(self, spans: List[list]) -> None:
        self.spans = spans
        self.duration = [s[3] - s[2] for s in spans]
        self.children: List[List[int]] = [[] for _ in spans]
        #: Index of the nearest enclosing point span, or -1.
        self.point_of: List[int] = []
        for index, (_name, parent, *_rest) in enumerate(spans):
            if parent >= 0:
                self.children[parent].append(index)
            if parent < 0:
                self.point_of.append(-1)
            elif spans[parent][0] in POINT_SPANS:
                self.point_of.append(parent)
            else:
                self.point_of.append(self.point_of[parent])

    def named(self, *names: str) -> List[int]:
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def self_time(self, index: int) -> float:
        return self.duration[index] - sum(self.duration[c] for c in self.children[index])

    def attr(self, index: int, key: str) -> float:
        """A numeric attribute of a span (0 when absent)."""
        attrs = self.spans[index][4] or {}
        return attrs.get(key, 0)

    def total(self, *names: str) -> float:
        return sum(self.duration[i] for i in self.named(*names))


def layer_metrics(
    spans: List[list],
    floors: Dict[str, float],
    traced_wall_s: float,
    untraced_wall_s: float,
    tracing_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run (0 where a layer did no work).

    ``tracing_s`` is what the spans pass measured the tracing itself to
    cost; the wall times are those of the spans pass and the plain pass.
    """
    tree = SpanTree(spans)
    m: Dict[str, float] = {}

    # Which point span each simulation belongs to, and its own time.
    sim_of: Dict[int, List[int]] = {}
    for i in tree.named("workloads.execute", "sim.finish", "fullsystem.run"):
        sim_of.setdefault(tree.point_of[i], []).append(i)
    nested_points: Dict[int, float] = {}
    for i in tree.named(*POINT_SPANS):
        owner = tree.point_of[i]
        if owner >= 0:
            nested_points[owner] = nested_points.get(owner, 0.0) + tree.duration[i]
    own = {i: tree.duration[i] - nested_points.get(i, 0.0) for i in tree.named(*POINT_SPANS)}
    computed = {i for i in own if any(tree.spans[j][0] != "sim.finish" for j in sim_of.get(i, []))}

    def sim_time(point: int) -> float:
        return sum(
            tree.duration[j]
            for j in sim_of.get(point, [])
            if tree.spans[j][0] in ("workloads.execute", "sim.finish")
        )

    def point_key(point: int) -> str:
        """The workload run (name, seed, params) a point simulated."""
        for j in sim_of.get(point, []):
            if tree.spans[j][0] == "workloads.execute":
                return str((tree.spans[j][4] or {}).get("key"))
        return ""

    def finish_stats(point: int, field: str) -> float:
        return sum(
            tree.attr(j, field)
            for j in sim_of.get(point, [])
            if tree.spans[j][0] == "sim.finish"
        )

    # -- dispatch and point timing (repro.experiments.common) ----------- #
    for label, span_name in (("precise", "common.precise"), ("technique", "common.technique")):
        members = tree.named(span_name)
        m[f"{label}.s"] = sum(own[i] for i in members)
        m[f"{label}.computed"] = sum(1 for i in members if i in computed)
    point_times = [own[i] for i in computed]
    m["point.n"] = len(point_times)
    m["point.p50_s"] = median(point_times) if point_times else 0.0
    m["point.tail_s"] = tail(point_times) if point_times else 0.0
    m["point.max_s"] = max(point_times) if point_times else 0.0

    # -- workload, frontend + L1, technique ----------------------------- #
    m["workloads.functional_s"] = sum(floors.values())
    m["workloads.output_error_s"] = tree.total("workloads.output_error")
    precise_points = [i for i in tree.named("common.precise") if i in computed]
    precise_sim: Dict[str, float] = {}
    l1_s = 0.0
    for i in precise_points:
        key = point_key(i)
        precise_sim[key] = sim_time(i)
        l1_s += sim_time(i) - floors.get(key, 0.0)
    m["sim.l1_s"] = l1_s
    m["sim.loads"] = sum(finish_stats(i, "loads") for i in precise_points)
    m["sim.stores"] = sum(finish_stats(i, "stores") for i in precise_points)
    m["sim.l1_misses"] = sum(finish_stats(i, "raw_misses") for i in precise_points)
    accesses = m["sim.loads"] + m["sim.stores"]
    m["sim.ns_per_access"] = l1_s / accesses * 1e9 if accesses else 0.0
    technique_points = [i for i in tree.named("common.technique") if i in computed]
    m["technique.model_s"] = sum(
        sim_time(i) - precise_sim[point_key(i)]
        for i in technique_points
        if point_key(i) in precise_sim
    )
    raw = sum(finish_stats(i, "raw_misses") for i in technique_points)
    covered = sum(finish_stats(i, "covered_misses") for i in technique_points)
    m["technique.coverage"] = covered / raw if raw else 0.0

    # -- repro.fullsystem ------------------------------------------------ #
    captures = [i for i in tree.named("common.capture") if i in computed]
    m["capture.s"] = sum(own[i] for i in captures)
    m["capture.events"] = sum(tree.attr(i, "events") for i in captures)
    replays = tree.named("fullsystem.run")
    m["fullsystem.s"] = tree.total("fullsystem.run")
    m["fullsystem.computed"] = len(replays)
    m["fullsystem.events"] = sum(tree.attr(i, "events") for i in replays)
    m["fullsystem.ns_per_event"] = (
        m["fullsystem.s"] / m["fullsystem.events"] * 1e9 if m["fullsystem.events"] else 0.0
    )
    m["fullsystem.slowest_point_s"] = max(
        (own[i] for i in tree.named("common.fullsystem_point") if i in computed), default=0.0
    )
    m["fullsystem.sim_cycles"] = sum(tree.attr(i, "cycles") for i in replays)
    for field in ("l2_accesses", "noc_flit_hops"):
        m[f"fullsystem.{field}"] = sum(tree.attr(i, field) for i in replays)

    # -- repro.experiments.sweep ----------------------------------------- #
    sweeps = tree.named("sweep.execute")
    m["sweep.execute_s"] = tree.total("sweep.execute")
    m["sweep.self_s"] = sum(tree.self_time(i) for i in sweeps)
    m["sweep.points"] = sum(tree.attr(i, "points") for i in sweeps)
    m["sweep.points_failed"] = sum(tree.attr(i, "failed") for i in sweeps)

    # -- storage ---------------------------------------------------------- #
    for layer in ("diskcache", "tracestore"):
        puts, gets = tree.named(f"{layer}.put"), tree.named(f"{layer}.get")
        m[f"{layer}.put_s"] = tree.total(f"{layer}.put")
        m[f"{layer}.put_bytes"] = sum(tree.attr(i, "bytes") for i in puts)
        m[f"{layer}.get_s"] = tree.total(f"{layer}.get")
        m[f"{layer}.get_n"] = len(gets)
        if layer == "diskcache":
            m["diskcache.put_n"] = len(puts)
            hits = sum(1 for i in gets if tree.attr(i, "hit"))
            m["diskcache.hit_ratio"] = hits / len(gets) if gets else 0.0

    # -- runner ------------------------------------------------------------ #
    m["runner.render_s"] = sum(tree.self_time(i) for i in tree.named("runner.render"))
    m["runner.verify_s"] = tree.total("runner.verify")

    # -- tracing ----------------------------------------------------------- #
    covered_s = sum(tree.duration[i] for i, s in enumerate(spans) if s[1] < 0)
    m["trace.overhead_s"] = tracing_s
    m["trace.wall_delta_s"] = traced_wall_s - untraced_wall_s
    m["trace.unattributed_s"] = traced_wall_s - covered_s
    return m


def self_times_by_layer(spans: List[list]) -> Dict[str, float]:
    """Self time summed per span name (for the printed breakdown)."""
    tree = SpanTree(spans)
    totals: Dict[str, float] = {}
    for i, span in enumerate(spans):
        totals[span[0]] = totals.get(span[0], 0.0) + tree.self_time(i)
    return totals


def accounting_holds(spans: List[list], traced_wall_s: float) -> bool:
    """True when every self time and the unattributed rest are non-negative.

    Self times plus the unattributed rest sum to the traced wall time by
    construction; a negative part means spans overlapped, a child
    outlived its parent, or the spans outran the wall clock.
    """
    tree = SpanTree(spans)
    tolerance = 1e-6 * max(1, len(spans))
    selves = [tree.self_time(i) for i in range(len(spans))]
    return min(selves, default=0.0) >= -tolerance and traced_wall_s - sum(selves) >= -tolerance
