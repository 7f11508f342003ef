"""Scope configuration for the lint rules.

The rules do not hard-code the repository layout; they consult an
:class:`AnalysisConfig` that names which dotted packages count as
*simulation* code (where determinism is non-negotiable), which host-side
modules are exempt, which packages carry the per-load hot path, and which
modules execute inside the ``ProcessPoolExecutor``. Tests swap in narrow
configs to exercise rules against in-memory snippets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple


def in_packages(module: str, packages: Tuple[str, ...]) -> bool:
    """True when dotted ``module`` is one of ``packages`` or inside one."""
    for package in packages:
        if module == package or module.startswith(package + "."):
            return True
    return False


@dataclass(frozen=True, slots=True)
class AnalysisConfig:
    """Which parts of the tree each rule reasons about.

    Attributes:
        sim_packages: Packages whose results must be bit-deterministic;
            LVA001 and LVA005 apply here.
        host_allowlist: Host-side modules exempt from LVA001 even when
            nested under a simulation package (the sweep engine may use
            wall-clock timeouts and jitter; the simulated world may not).
        hotpath_packages: Packages holding the per-load hot path; LVA003
            requires ``slots=True`` dataclasses here.
        hot_methods: Qualified ``Class.method`` names on the per-load
            path; LVA003 forbids closures/comprehensions inside them.
        worker_modules: Modules whose functions run inside pool workers;
            LVA004 forbids ``global`` mutation in their worker entry
            points (functions matching ``worker_entry_patterns``).
        worker_entry_patterns: Function-name prefixes/suffixes marking
            worker entry points inside ``worker_modules``.
        stats_packages: Packages participating in the LVA005 counter
            cross-check (declared ``*Stats`` fields vs. write sites).
        telemetry_hook_attrs: Instance attributes holding a pre-resolved
            telemetry hook (``None`` when disabled); LVA006 requires
            calls on them inside hot methods to be ``is not None``
            guarded.
        telemetry_modules: Packages whose module-level API LVA006
            forbids calling from hot methods (hook resolution belongs in
            ``__init__``, not on the per-load path).
        kernel_modules: Modules holding the vectorized replay kernels;
            LVA003 additionally requires that their batch-contract
            functions (named per ``kernel_fn_suffixes``) contain no
            per-event Python loops, comprehensions, or event-field
            attribute reads — those functions must stay whole-column
            numpy passes.
        kernel_fn_suffixes: Function-name suffixes marking the batch
            contract inside ``kernel_modules``.
        batch_method_suffixes: Method-name suffixes marking predictor
            batch entry points (``on_miss_batch``/``train_batch``)
            inside hot-path packages; LVA003 forbids event-field reads
            in them — batch methods receive scalar columns, never event
            objects — but their scalar-fallback loops are allowed.
        event_fields: Per-event attribute names whose read inside a
            kernel function or batch method betrays scalar
            (object-at-a-time) access.
        flow_entry_points: Extra call-graph roots (``module:Qual.name``)
            for LVA008's reachability sweep — the public simulation
            entry methods; worker entries and kernel batch functions are
            added automatically.
        flow_exempt_modules: Packages exempt from LVA008 even when
            reachable (telemetry legitimately reads clocks).
        key_function_markers: Substrings of a function name marking it
            as a cache-key constructor (a *sink* for LVA007's taint).
        mmap_providers: Functions (``module:Qual.name``) whose return
            value is treated as memory-mapped, in addition to direct
            ``np.load(..., mmap_mode=...)`` calls.
        envspec_module: The module that must declare every environment
            variable (LVA007 requires reads to resolve to its
            constants).
        env_prefix: Environment variables subject to LVA007.
        env_registry: Override registry for fixture tests:
            ``(name, classification, pinned_by, keyed_via)`` rows. When
            empty, LVA007 imports ``envspec_module`` and uses the real
            declarations.
    """

    sim_packages: Tuple[str, ...] = (
        "repro.sim",
        "repro.mem",
        "repro.noc",
        "repro.fullsystem",
        "repro.prefetch",
        "repro.workloads",
        "repro.faults.memory",
        "repro.predictors",
    )
    host_allowlist: Tuple[str, ...] = (
        "repro.experiments.runner",
        "repro.experiments.sweep",
    )
    hotpath_packages: Tuple[str, ...] = (
        "repro.mem",
        "repro.sim",
        "repro.prefetch",
        "repro.predictors",
    )
    hot_methods: Tuple[str, ...] = (
        "MemoryFrontend.load",
        "MemoryFrontend.load_approx",
        "MemoryFrontend.store",
        "SetAssociativeCache.access",
        "SetAssociativeCache.probe",
        "SetAssociativeCache.write_hit",
        "SetAssociativeCache.contains",
        "SetAssociativeCache._find",
        "SetAssociativeCache.fill",
        "SetAssociativeCache.invalidate",
        "TraceSimulator._serve_load",
        "TraceSimulator._serve_precise_miss",
        "TraceSimulator._serve_prefetch_miss",
        "TraceSimulator._serve_technique_miss",
        "TraceSimulator._serve_store",
        "TraceSimulator._serve_store_streaming",
        "TraceSimulator._fetch_arrives",
        "TwoLevelHierarchy.load",
        "TwoLevelHierarchy.store",
        "TwoLevelHierarchy._fill_l1",
        "MSHRFile.lookup",
        "MSHRFile.merge",
    )
    worker_modules: Tuple[str, ...] = ("repro.experiments.sweep",)
    worker_entry_patterns: Tuple[str, ...] = ("_run_", "_worker", "_pool_worker")
    stats_packages: Tuple[str, ...] = field(default=())
    telemetry_hook_attrs: Tuple[str, ...] = ("_tel",)
    telemetry_modules: Tuple[str, ...] = ("repro.telemetry",)
    kernel_modules: Tuple[str, ...] = ("repro.sim.kernels",)
    kernel_fn_suffixes: Tuple[str, ...] = ("_kernel", "_span", "_spans")
    batch_method_suffixes: Tuple[str, ...] = ("_batch",)
    event_fields: Tuple[str, ...] = (
        "tid",
        "pc",
        "addr",
        "value",
        "is_float",
        "approximable",
        "gap",
        "is_store",
    )
    flow_entry_points: Tuple[str, ...] = (
        "repro.fullsystem.system:FullSystemSimulator.run",
        "repro.fullsystem.system:FullSystemSimulator.replay_events",
        "repro.sim.tracesim:TraceSimulator.replay",
    )
    flow_exempt_modules: Tuple[str, ...] = ("repro.telemetry",)
    key_function_markers: Tuple[str, ...] = (
        "cache_key",
        "disk_key",
        "point_key",
        "trace_key",
    )
    mmap_providers: Tuple[str, ...] = (
        "repro.experiments.tracestore:TraceStore.get",
    )
    envspec_module: str = "repro.envspec"
    env_prefix: str = "REPRO_"
    env_registry: Tuple[Tuple[str, str, str, str], ...] = field(default=())

    def effective_stats_packages(self) -> Tuple[str, ...]:
        """LVA005 scope: explicit override, else sim packages + the CPU model."""
        if self.stats_packages:
            return self.stats_packages
        return self.sim_packages + ("repro.cpu",)

    def is_sim_module(self, module: str) -> bool:
        """True when LVA001's determinism contract applies to ``module``."""
        if in_packages(module, self.host_allowlist):
            return False
        return in_packages(module, self.sim_packages)

    def is_hotpath_module(self, module: str) -> bool:
        return in_packages(module, self.hotpath_packages)

    def is_worker_module(self, module: str) -> bool:
        return in_packages(module, self.worker_modules)

    def is_stats_module(self, module: str) -> bool:
        return in_packages(module, self.effective_stats_packages())

    def is_kernel_module(self, module: str) -> bool:
        return in_packages(module, self.kernel_modules)

    def is_kernel_function(self, function_name: str) -> bool:
        """True when a function name carries the batch (whole-column)
        contract inside a kernel module."""
        for suffix in self.kernel_fn_suffixes:
            if function_name.endswith(suffix):
                return True
        return False

    def is_batch_method(self, method_name: str) -> bool:
        """True when a method name carries the predictor batch contract
        (scalar columns in, never event objects) in a hot-path module."""
        for suffix in self.batch_method_suffixes:
            if method_name.endswith(suffix):
                return True
        return False

    def is_flow_exempt(self, module: str) -> bool:
        """True when LVA008 must not report inside ``module``."""
        return in_packages(module, self.flow_exempt_modules)

    def is_worker_entry(self, function_name: str) -> bool:
        """True when a function in a worker module is a worker entry point."""
        for pattern in self.worker_entry_patterns:
            if function_name.startswith(pattern) or function_name.endswith(pattern):
                return True
        return False


#: The repository's canonical configuration.
DEFAULT_CONFIG = AnalysisConfig()
