"""Run one product command in-process, optionally recording layer spans.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/traced.py --out RESULT.json [--spans] \
        -- <python -m repro.experiments arguments>

Without ``--spans`` this is the untraced reference: the same in-process
flow with no wrappers installed. With ``--spans`` the public functions
of each layer are wrapped from here (the program itself is not edited);
every call becomes a span ``[name, parent, start, end, attrs]`` kept in
memory and written to ``--out`` at the end, beside the wall-clock time
the product run ended.

A product command with ``--jobs N`` (N > 1) would hand its points to a
process pool whose spans this process cannot see. It runs here with
``--jobs 1 --point-timeout 1e9`` instead: the runner then sweeps with
the same engine in-process (the serial path never reads the timeout).

After the product run, outside the timed window, the spans run

* executes each workload the run simulated precisely once more against
  the functional ``PreciseMemory`` frontend: the floor of workload
  arithmetic plus value store;
* measures what the tracing itself cost: installing the wrappers, the
  attribute callbacks (timed per call) and the span bookkeeping
  (calibrated per call on a wrapped no-op, times the number of spans).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


def parse_product_args(argv: List[str]) -> argparse.Namespace:
    """The runner flags that decide which points run and how."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("experiments", nargs="*", default=[])
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--json", default=None)
    return parser.parse_args(argv)


class SpanRecorder:
    """In-memory spans around wrapped callables (one thread, properly nested)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Seconds spent in attribute callbacks (after each span closed).
        self.attrs_s = [0.0]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        attrs: Optional[Callable[[tuple, dict, Any], dict]] = None,
    ) -> Callable[..., Any]:
        spans, stack, clock, attrs_s = self.spans, self._stack, time.perf_counter, self.attrs_s

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
                attrs_s[0] += clock() - span[3]
            return result

        return traced


def _rebind(original: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
    """Point every loaded ``repro`` module's binding of ``original`` at ``wrapper``.

    Drivers import layer functions by name (``from ...common import
    run_technique``), so patching only the defining module would miss
    them.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _arg(args: tuple, kwargs: dict, index: int, name: str, default: Any) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _workload_key(workload: Any, seed: int) -> str:
    return f"{workload.name}|{seed}|{sorted(workload.params.items())!r}"


def _dir_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    if not path.is_dir():
        return 0
    return sum(child.stat().st_size for child in path.rglob("*") if child.is_file())


def install(recorder: SpanRecorder) -> Dict[str, Any]:
    """Wrap every layer boundary the per-layer metrics need.

    Returns the precise workload runs seen (for the functional floor).
    """
    from repro.experiments import common, diskcache, expectations, sweep, tracestore
    from repro.fullsystem.system import FullSystemSimulator
    from repro.sim.tracesim import Mode, TraceSimulator
    from repro.workloads.base import Workload

    precise_runs: Dict[str, Tuple[type, dict, int]] = {}

    def execute_attrs(args: tuple, kwargs: dict, _result: Any) -> dict:
        workload, mem = args[0], _arg(args, kwargs, 1, "mem", None)
        seed = _arg(args, kwargs, 2, "seed", 0)
        if not isinstance(mem, TraceSimulator):
            kind = "functional"
        elif mem.recorder is not None:
            kind = "capture"
        elif mem.mode is Mode.PRECISE:
            kind = "precise"
        else:
            kind = "technique"
        key = _workload_key(workload, seed)
        if kind == "precise":
            precise_runs.setdefault(key, (type(workload), dict(workload.params), seed))
        return {"key": key}

    def finish_attrs(_args: tuple, _kwargs: dict, stats: Any) -> dict:
        return {
            "loads": stats.loads,
            "stores": stats.stores,
            "raw_misses": stats.raw_misses,
            "covered_misses": stats.covered_misses,
        }

    def replay_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
        return {
            "events": len(_arg(args, kwargs, 1, "trace", ())),
            "cycles": float(result.cycles),
            "l2_accesses": int(result.l2_accesses),
            "noc_flit_hops": int(result.noc_flit_hops),
        }

    def capture_attrs(_args: tuple, _kwargs: dict, trace: Any) -> dict:
        return {"events": len(trace)}

    def sweep_attrs(_args: tuple, _kwargs: dict, report: Any) -> dict:
        return {"points": report.unique_points, "failed": len(report.failures)}

    def get_attrs(_args: tuple, _kwargs: dict, record: Any) -> dict:
        return {"hit": record is not None}

    def cache_put_attrs(args: tuple, kwargs: dict, _result: Any) -> dict:
        cache, key = args[0], _arg(args, kwargs, 1, "key", "")
        return {"bytes": _dir_bytes(cache._path(key))}

    def store_put_attrs(args: tuple, kwargs: dict, _result: Any) -> dict:
        store, key = args[0], _arg(args, kwargs, 1, "key", "")
        return {"bytes": _dir_bytes(store._entry_dir(key))}

    functions = [
        (common, "run_precise_reference", "common.precise", None),
        (common, "run_technique", "common.technique", None),
        (common, "capture_trace", "common.capture", capture_attrs),
        (common, "run_fullsystem_point", "common.fullsystem_point", None),
        (expectations, "verify", "runner.verify", None),
    ]
    for module, attr, span_name, attrs in functions:
        original = getattr(module, attr)
        _rebind(original, recorder.wrap(span_name, original, attrs))

    methods = [
        (common.Driver, "render", "runner.render", None),
        (sweep.SweepEngine, "execute", "sweep.execute", sweep_attrs),
        (Workload, "execute", "workloads.execute", execute_attrs),
        (TraceSimulator, "finish", "sim.finish", finish_attrs),
        (FullSystemSimulator, "run", "fullsystem.run", replay_attrs),
        (diskcache.DiskCache, "get", "diskcache.get", get_attrs),
        (diskcache.DiskCache, "put", "diskcache.put", cache_put_attrs),
        (tracestore.TraceStore, "get", "tracestore.get", get_attrs),
        (tracestore.TraceStore, "put", "tracestore.put", store_put_attrs),
    ]
    pending = list(Workload.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "output_error" in vars(cls):
            methods.append((cls, "output_error", "workloads.output_error", None))
    for cls, attr, span_name, attrs in methods:
        setattr(cls, attr, recorder.wrap(span_name, vars(cls)[attr], attrs))
    return precise_runs


def functional_floor(precise_runs: Dict[str, Tuple[type, dict, int]]) -> Dict[str, float]:
    """Seconds per precise workload run against the functional frontend."""
    from repro.sim.frontend import PreciseMemory
    from repro.workloads.base import Workload

    execute = Workload.execute.__wrapped__  # set by functools.wraps
    floors: Dict[str, float] = {}
    for key, (cls, params, seed) in sorted(precise_runs.items()):
        workload = cls(params)
        started = time.perf_counter()
        execute(workload, PreciseMemory(), seed)
        floors[key] = time.perf_counter() - started
    return floors


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span's bookkeeping adds to a call (best of ``repeats``)."""
    clock = time.perf_counter

    def noop() -> None:
        return None

    best = float("inf")
    for _ in range(repeats):
        wrapped = SpanRecorder().wrap("calibration", noop)
        started = clock()
        for _ in range(calls):
            wrapped()
        traced_s = clock() - started
        started = clock()
        for _ in range(calls):
            noop()
        best = min(best, (traced_s - (clock() - started)) / calls)
    return max(best, 0.0)


def in_process(product: List[str]) -> List[str]:
    """The product arguments, with any pooled sweep kept in this process."""
    if parse_product_args(product).jobs <= 1:
        return product
    at = product.index("--jobs")
    return [*product[:at], "--jobs", "1", "--point-timeout", "1e9", *product[at + 2 :]]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the run record")
    parser.add_argument("--spans", action="store_true", help="record layer spans")
    parser.add_argument("product", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    product = in_process([a for a in args.product if a != "--"])

    from repro.experiments import runner

    recorder = SpanRecorder()
    started = time.perf_counter()
    precise_runs = install(recorder) if args.spans else {}
    install_s = time.perf_counter() - started
    rc = runner.main(product)
    ended_wall = time.time()
    sys.stdout.flush()
    record: Dict[str, Any] = {"rc": rc, "ended_wall": ended_wall, "spans": recorder.spans}
    if args.spans:
        record["floors"] = functional_floor(precise_runs)
        record["overhead_s"] = (
            install_s + recorder.attrs_s[0] + len(recorder.spans) * span_cost_s()
        )
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
