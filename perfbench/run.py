"""The paper-regeneration benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload phase1-full --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload paper-small --seed 0 --seconds 10 --trace 1
    python3 perfbench/run.py --write-spec          # regenerate BENCHMARK.json

``--trace 0`` times the product command ``python -m repro.experiments``
in fresh interpreters with tracing off and reports the end-to-end
metrics; ``--trace 1`` runs the same workload in-process twice (plain,
then with layer spans) and reports the per-layer metrics. Every pass
starts from an empty result cache and trace store in a fresh directory
under ``.bench_tmp/`` in the checkout, with every ``repro.envspec``
variable cleared. The outputs are checked on every pass; the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

#: Warm passes per cold pass, each on the cache the cold pass filled and
#: each followed by one set-up probe (a fresh interpreter importing the
#: runner). Alternating the two spreads both over the run: the host's
#: speed drifts on a scale of seconds, and a median of samples taken
#: back to back sees only one moment of it.
SHORT_SAMPLES = 6
#: A pass that has not ended after this long is stuck, and the run fails.
#: It is no time budget: the longest pass (the traced phase1-full spans
#: pass) takes about 35 s, and a run measures for ``--seconds``.
HANG_S = 900.0
#: Interval between process-tree memory samples.
RSS_POLL_S = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``python -m repro.experiments`` arguments, before ``--seed``.
    argv: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "phase1-full",
            "fig_predictors at full scale, serial: 35 live phase-1 points through workloads, "
            "the L1 model and all three technique-dispatch paths; fullsystem and sweep idle",
            ("fig_predictors", "--verify"),
        ),
        Workload(
            "phase2-small",
            "fig10+fig11 --small over 5 seeds, serial: 35 captures and 210 full-system "
            "replays (scheduler, NoC, L2/DRAM, energy); technique and sweep barely run",
            ("fig10", "fig11", "--small", "--repeats", "5", "--verify"),
        ),
        Workload(
            "paper-small",
            "the whole --small --verify run on 2 workers, cold then warm: the only workload "
            "using the sweep engine, the process pool and disk-cache writes",
            ("--small", "--verify", "--jobs", "2"),
        ),
    )
}

#: (name, unit, better, bound) of every end-to-end metric.
#: The timings are CPU time (user plus system, of the whole process tree),
#: not wall time: on a host whose cores are shared with other tenants the
#: wall time of the same pass doubles when the host takes a core away
#: (stolen time), which process CPU time does not count. Wall times are
#: printed beside them (``WALL``), not reported as metrics.
END_TO_END = (
    ("cpu_s", "s", "lower", 0.25),
    ("warm_cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)
#: Host wall times of the same samples, printed for reference only.
WALL = ("wall_s", "warm_wall_s", "setup_wall_s")

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("precise.s", "s", "lower"),
    ("precise.computed", "count", "lower"),
    ("technique.s", "s", "lower"),
    ("technique.computed", "count", "lower"),
    ("point.n", "count", "lower"),
    ("point.p50_s", "s", "lower"),
    ("point.tail_s", "s", "lower"),
    ("point.max_s", "s", "lower"),
    ("workloads.functional_s", "s", "lower"),
    ("workloads.output_error_s", "s", "lower"),
    ("sim.l1_s", "s", "lower"),
    ("sim.loads", "count", "lower"),
    ("sim.stores", "count", "lower"),
    ("sim.l1_misses", "count", "lower"),
    ("sim.ns_per_access", "ns", "lower"),
    ("technique.model_s", "s", "lower"),
    ("technique.coverage", "ratio", "higher"),
    ("capture.s", "s", "lower"),
    ("capture.events", "count", "lower"),
    ("fullsystem.s", "s", "lower"),
    ("fullsystem.computed", "count", "lower"),
    ("fullsystem.events", "count", "lower"),
    ("fullsystem.ns_per_event", "ns", "lower"),
    ("fullsystem.slowest_point_s", "s", "lower"),
    ("fullsystem.sim_cycles", "cycles", "lower"),
    ("fullsystem.l2_accesses", "count", "lower"),
    ("fullsystem.noc_flit_hops", "count", "lower"),
    ("sweep.execute_s", "s", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.points", "count", "lower"),
    ("sweep.points_failed", "count", "lower"),
    ("diskcache.put_s", "s", "lower"),
    ("diskcache.put_n", "count", "lower"),
    ("diskcache.put_bytes", "bytes", "lower"),
    ("diskcache.get_s", "s", "lower"),
    ("diskcache.get_n", "count", "lower"),
    ("diskcache.hit_ratio", "ratio", "higher"),
    ("tracestore.put_s", "s", "lower"),
    ("tracestore.put_bytes", "bytes", "lower"),
    ("tracestore.get_s", "s", "lower"),
    ("tracestore.get_n", "count", "lower"),
    ("runner.render_s", "s", "lower"),
    ("runner.verify_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.wall_delta_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

RUN_SECONDS = 10
REFERENCE_PATH = HERE / "reference.json"
VERIFY_LINE = re.compile(r"^-- (\S+): (\d+) ok, (\d+) failed$", re.MULTILINE)


class BenchmarkError(RuntimeError):
    """The benchmark could not run (no result is printed)."""


# --------------------------------------------------------------------- #
# Environment                                                           #
# --------------------------------------------------------------------- #


def load_envspec():
    """``repro.envspec``, loaded from its file on its own.

    The benchmark process never imports the program it measures.
    """
    path = ROOT / "src" / "repro" / "envspec.py"
    spec = importlib.util.spec_from_file_location("perfbench_envspec", path)
    if spec is None or spec.loader is None:
        raise BenchmarkError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class Environment:
    """The isolated environment every pass runs in."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        envspec = load_envspec()
        #: Every declared variable is cleared; the cache directory is set per pass.
        self.variables = [var.name for var in envspec.all_vars()]
        self.cache_variable = envspec.CACHE_DIR_ENV
        base = {k: v for k, v in os.environ.items() if k not in self.variables}
        base["PYTHONPATH"] = str(ROOT / "src")
        # Pinned so every interpreter compiles the same ~100 modules and no
        # bytecode is written into the checkout. String hashing stays
        # randomised, as the product runs it: the digests must not depend on it.
        base["PYTHONDONTWRITEBYTECODE"] = "1"
        self.base = base
        self._passes = 0

    def fresh(self) -> Tuple[Dict[str, str], Path]:
        """An environment whose result cache and trace store are empty."""
        self._passes += 1
        directory = self.scratch / f"pass-{self._passes}"
        directory.mkdir(parents=True)
        env = dict(self.base)
        env[self.cache_variable] = str(directory / "cache")
        return env, directory


# --------------------------------------------------------------------- #
# Processes                                                             #
# --------------------------------------------------------------------- #


def _children() -> Dict[int, List[int]]:
    tree: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        tree.setdefault(ppid, []).append(int(entry))
    return tree


def _peak_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeMemory(threading.Thread):
    """Samples the peak resident set of every process under ``root``.

    The result is the sum, over all processes seen, of each one's peak
    resident set (``VmHWM``): the pool workers' peaks add to the parent's.
    """

    def __init__(self, root: int) -> None:
        super().__init__(daemon=True)
        self.root = root
        self.peaks: Dict[int, int] = {}
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            self.sample()
            self.done.wait(RSS_POLL_S)

    def sample(self) -> None:
        children = _children()
        pending = [self.root]
        while pending:
            pid = pending.pop()
            peak = _peak_kb(pid)
            if peak:
                self.peaks[pid] = max(self.peaks.get(pid, 0), peak)
            pending.extend(children.get(pid, []))

    def megabytes(self) -> float:
        return sum(self.peaks.values()) / 1024.0


@dataclass
class Finished:
    rc: int
    wall_s: float
    started_wall: float
    stdout: str
    stderr: str
    #: User plus system CPU time of the process and every descendant it waited for.
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


def run_process(
    argv: List[str], env: Dict[str, str], workdir: Path, memory: bool = False
) -> Finished:
    """Run ``argv`` from the checkout root; its output goes to files in ``workdir``."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started_wall = time.time()
        started = time.perf_counter()
        used = _children_cpu_s()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True
        )
        sampler = TreeMemory(proc.pid) if memory else None
        if sampler is not None:
            sampler.start()
        # A blocking wait returns the moment the process ends; waiting with
        # a timeout would poll, and round every wall time up to 50 ms steps.
        hung = threading.Event()
        watchdog = threading.Timer(HANG_S, lambda: (hung.set(), _signal_group(proc)))
        watchdog.daemon = True
        watchdog.start()
        try:
            rc = proc.wait()
        except KeyboardInterrupt:
            _kill_group(proc)
            raise BenchmarkError(f"{' '.join(argv)} was interrupted") from None
        finally:
            wall_s = time.perf_counter() - started
            cpu_s = _children_cpu_s() - used
            watchdog.cancel()
            if sampler is not None:
                sampler.done.set()
                sampler.join()
    _kill_group(proc)
    if hung.is_set():
        raise BenchmarkError(f"{' '.join(argv)} hung")
    return Finished(
        rc=rc,
        wall_s=wall_s,
        cpu_s=cpu_s,
        started_wall=started_wall,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        peak_rss_mb=sampler.megabytes() if sampler is not None else 0.0,
    )


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _signal_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop anything the process left behind in its session, and reap it."""
    _signal_group(proc)
    proc.wait()


# --------------------------------------------------------------------- #
# Output checks                                                         #
# --------------------------------------------------------------------- #


@dataclass
class Checks:
    """Operations attempted and failed, and whether the outputs are right.

    Operations are points, shape checks and the output digest check of
    every pass. A failed shape check is a failed operation; it does not
    make the outputs incorrect (the reference digests pin those).
    """

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def digest(self, ok: bool, problem: str) -> None:
        self.count(1, 0 if ok else 1)
        if not ok:
            self.fail(problem)


def tables_digest(path: Path) -> Optional[str]:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_pass(checks: Checks, finished: Finished, points: int, label: str) -> None:
    """Count one pass's points and shape checks."""
    if finished.rc not in (0, 1):
        checks.count(points, points)
        checks.fail(f"{label}: exit code {finished.rc}: {finished.stderr.strip()[-400:]}")
        return
    point_failures = sum(1 for line in finished.stderr.splitlines() if line.startswith("  FAILED "))
    checks.count(points, point_failures)
    if point_failures:
        checks.fail(f"{label}: {point_failures} point failures")
    shape_ok = shape_failed = 0
    for _name, ok, failed in VERIFY_LINE.findall(finished.stdout):
        shape_ok += int(ok)
        shape_failed += int(failed)
    checks.count(shape_ok + shape_failed, shape_failed)
    if finished.rc != (1 if shape_failed else 0):
        checks.fail(f"{label}: exit code {finished.rc} with {shape_failed} failed shape checks")
    if not VERIFY_LINE.search(finished.stdout):
        checks.fail(f"{label}: no experiment was verified")


def load_references() -> dict:
    if REFERENCE_PATH.is_file():
        return json.loads(REFERENCE_PATH.read_text())
    return {}


# --------------------------------------------------------------------- #
# Runs                                                                  #
# --------------------------------------------------------------------- #


def python() -> str:
    return sys.executable or "python3"


def setup_probe(
    env: Environment, workload: Workload, seed: int, count_points: bool = False,
) -> dict:
    """One fresh interpreter importing the runner; optionally counts points."""
    pass_env, directory = env.fresh()
    argv = [python(), str(HERE / "setup_probe.py")]
    if count_points:
        argv += [*workload.argv, "--seed", str(seed)]
    finished = run_process(argv, pass_env, directory)
    shutil.rmtree(directory, ignore_errors=True)
    if finished.rc != 0:
        raise BenchmarkError(f"setup probe failed: {finished.stderr.strip()[-400:]}")
    return json.loads(finished.stdout.strip().splitlines()[-1])


def untraced(
    workload: Workload, seed: int, seconds: float, env: Environment,
    points: int, checks: Checks, reference: dict,
) -> Tuple[Dict[str, List[float]], str]:
    """Cycles of a cold pass then ``SHORT_SAMPLES`` (warm pass, set-up probe)
    pairs, repeated until ``seconds`` have been spent.

    Returns the samples and the tables digest of the first pass.
    """
    samples: Dict[str, List[float]] = {
        name: [] for name in [*(metric[0] for metric in END_TO_END), *WALL]
    }
    digests: List[str] = []
    started = time.monotonic()
    product = [python(), "-m", "repro.experiments", *workload.argv, "--seed", str(seed)]
    while not samples["cpu_s"] or time.monotonic() - started < seconds:
        pass_env, directory = env.fresh()
        cycle = len(samples["cpu_s"]) + 1
        for index in range(1 + SHORT_SAMPLES):
            label = "warm" if index else "cold"
            tables = directory / f"tables-{index}.json"
            finished = run_process(
                product + ["--json", str(tables)], pass_env, directory,
                memory=label == "cold",
            )
            check_pass(checks, finished, points, f"{label} pass {cycle}.{index}")
            if label == "cold":
                samples["wall_s"].append(finished.wall_s)
                samples["cpu_s"].append(finished.cpu_s)
                samples["peak_rss_mb"].append(finished.peak_rss_mb)
            else:
                samples["warm_wall_s"].append(finished.wall_s)
                samples["warm_cpu_s"].append(finished.cpu_s)
                probe = setup_probe(env, workload, seed)
                samples["setup_s"].append(probe["import_cpu_s"])
                samples["setup_wall_s"].append(probe["import_wall_s"])
            digest = tables_digest(tables)
            expected = reference.get("tables") or (digests[0] if digests else digest)
            checks.digest(
                digest is not None and digest == expected,
                f"{label} pass tables digest {digest} != {expected}",
            )
            if digest is not None:
                digests.append(digest)
        shutil.rmtree(directory, ignore_errors=True)
    return samples, digests[0] if digests else ""


def traced(
    workload: Workload, seed: int, env: Environment,
    points: int, checks: Checks, reference: dict,
) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, str]]:
    """Plain, then spans: two in-process passes of the product flow.

    ``trace.overhead_s`` is what the spans pass measured the tracing to
    cost; ``trace.wall_delta_s`` is its wall time minus the plain pass's,
    which on a shared host is dominated by the host's drift. Returns the
    layer metrics, the self time per span name and the tables and counts
    digests.
    """
    product = [*workload.argv, "--seed", str(seed)]
    walls: Dict[str, float] = {}
    records: Dict[str, dict] = {}
    digests: List[Tuple[str, Optional[str]]] = []
    for label in ("plain", "spans"):
        pass_env, directory = env.fresh()
        out, tables = directory / "record.json", directory / "tables.json"
        argv = [python(), str(HERE / "traced.py"), "--out", str(out)]
        argv += ["--spans"] if label == "spans" else []
        argv += ["--", *product, "--json", str(tables)]
        finished = run_process(argv, pass_env, directory)
        if finished.rc != 0 or not out.is_file():
            raise BenchmarkError(f"traced {label} pass failed: {finished.stderr.strip()[-400:]}")
        records[label] = json.loads(out.read_text())
        finished.rc = records[label]["rc"]
        check_pass(checks, finished, points, f"traced {label} pass")
        walls[label] = records[label]["ended_wall"] - finished.started_wall
        digests.append((label, tables_digest(tables)))
        shutil.rmtree(directory, ignore_errors=True)
    expected = reference.get("tables") or digests[0][1]
    for label, digest in digests:
        checks.digest(digest == expected, f"traced {label} tables digest {digest} != {expected}")
    spans = records["spans"]["spans"]
    traced_wall = walls["spans"]
    metrics = layers.layer_metrics(
        spans, records["spans"]["floors"], traced_wall, walls["plain"],
        records["spans"]["overhead_s"],
    )
    counts = layers.counts_digest(metrics)
    if reference.get("counts"):
        checks.digest(counts == reference["counts"], f"counts digest {counts} != reference")
    if not layers.accounting_holds(spans, traced_wall):
        checks.fail("span self times and the unattributed rest do not add up")
    found = {"tables": digests[0][1] or "", "counts": counts}
    return metrics, layers.self_times_by_layer(spans), found


# --------------------------------------------------------------------- #
# Reporting                                                             #
# --------------------------------------------------------------------- #


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def print_row(name: str, unit: str, values: List[float], note: str = "") -> float:
    """Print one metric's median, quartiles and sample count; return the median."""
    q1, mid, q3 = quartiles(values)
    print(f"{name:<14}{unit:<7}{mid:>10.4f}{q1:>10.4f}{q3:>10.4f}{len(values):>4}{note}")
    return mid


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def write_spec() -> None:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def record_reference(workload: str, seed: int, key: str, digest: str) -> None:
    references = load_references()
    references.setdefault(workload, {}).setdefault(str(seed), {})[key] = digest
    REFERENCE_PATH.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help="store this run's digests as the reference for (workload, seed)",
    )
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "experiments" / "runner.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    # A termination request unwinds like Ctrl-C: the running pass's process
    # group is killed and the scratch directory removed.
    signal.signal(signal.SIGTERM, _interrupt)
    workload = WORKLOADS[args.workload]
    scratch = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return _run(args, workload, scratch)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def _interrupt(_signum: int, _frame: object) -> None:
    raise KeyboardInterrupt


def _run(args: argparse.Namespace, workload: Workload, scratch: Path) -> int:
    env = Environment(scratch)
    reference = {}
    if not args.record:
        reference = load_references().get(workload.name, {}).get(str(args.seed), {})
    checks = Checks()
    setup = setup_probe(env, workload, args.seed, count_points=True)
    points = setup["points"]
    print(
        "env: "
        + json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "nproc": os.cpu_count(),
                "python": setup["python"],
                "numpy": setup["numpy"],
                "PYTHONDONTWRITEBYTECODE": env.base["PYTHONDONTWRITEBYTECODE"],
                "PYTHONHASHSEED": env.base.get("PYTHONHASHSEED", "random"),
                "commit": commit(),
                "cleared": env.variables,
                "reference": bool(reference),
            }
        )
    )
    metrics: Dict[str, Tuple[float, str]] = {}
    if args.trace == 0:
        samples, tables = untraced(
            workload, args.seed, args.seconds, env, points, checks, reference
        )
        found = {"tables": tables}
        samples["setup_s"].append(setup["import_cpu_s"])
        samples["setup_wall_s"].append(setup["import_wall_s"])
        print(f"{'metric':<14}{'unit':<7}{'median':>10}{'q1':>10}{'q3':>10}{'n':>4}")
        for name, unit, _better, _bound in END_TO_END:
            metrics[name] = (print_row(name, unit, samples[name]), unit)
        for name in WALL:
            print_row(name, "s", samples[name], "  (host wall time, not a metric)")
    else:
        values, selves, found = traced(
            workload, args.seed, env, points, checks, reference
        )
        for name, unit, _better in PER_LAYER:
            print(f"{name:<28}{unit:<7}{values[name]:>16.6f}")
            metrics[name] = (values[name], unit)
        print("self time by span: " + ", ".join(f"{k}={v:.3f}s" for k, v in sorted(selves.items())))
    if args.record and checks.correct:
        for key, digest in found.items():
            record_reference(workload.name, args.seed, key, digest)
    share = checks.failed / checks.attempted if checks.attempted else 0.0
    print(
        f"operations: {checks.attempted} attempted, {checks.failed} failed "
        f"(failed_share {share:.4f})"
    )
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
