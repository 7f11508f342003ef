"""Time one cold import of the experiments runner in a fresh interpreter.

Run as ``python perfbench/setup_probe.py [product args...]`` from the
checkout root with ``src`` on ``PYTHONPATH``. Prints one JSON object:
the import's CPU time and wall time, the interpreter and numpy versions
and, when product arguments are given, how many unique sweep points
they declare.
"""

from __future__ import annotations

import json
import sys
import time

started, started_cpu = time.perf_counter(), time.process_time()
from repro.experiments import runner  # noqa: E402

import_wall_s = time.perf_counter() - started
import_cpu_s = time.process_time() - started_cpu


def _declared_points(argv: list) -> int:
    """Points the product command ``argv`` executes, as the sweep engine
    counts them: the unique declared points plus the precise baselines and
    trace captures they imply."""
    from repro.experiments.sweep import capture_key
    from traced import parse_product_args

    args = parse_product_args(argv)
    names = args.experiments or list(runner.EXPERIMENTS)
    unique = dict.fromkeys(runner.gather_points(names, args.small, args.seed, args.repeats))
    baselines = {p.baseline() for p in unique if not p.fullsystem} - set(unique)
    captures = {capture_key(p) for p in unique if p.fullsystem}
    return len(unique) + len(baselines) + len(captures)


if __name__ == "__main__":
    import numpy

    report = {
        "import_cpu_s": import_cpu_s,
        "import_wall_s": import_wall_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if len(sys.argv) > 1:
        report["points"] = _declared_points(sys.argv[1:])
    print(json.dumps(report))
