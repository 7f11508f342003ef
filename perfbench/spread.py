"""Repeat the benchmark over several seeds and report each metric's spread.

Usage (from the checkout root)::

    python3 perfbench/spread.py --workload phase1-full --runs 10 [--first-seed 1]
    python3 perfbench/spread.py --workload paper-small --runs 10 --baseline

Each run is ``perfbench/run.py --trace 0`` with its own seed. For every
end-to-end metric this prints the median of the runs, the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as
a share of the median, and the metric's bound. ``--baseline`` stores
the medians and quartiles in ``perfbench/baseline.json`` under the
workload's name, with the commit and host they were measured on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", action="store_true", help="write perfbench/baseline.json")
    args = parser.parse_args()

    values: Dict[str, List[float]] = {name: [] for name, *_ in run.END_TO_END}
    env_line = ""
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(run.RUN_SECONDS), "--trace", "0"]
        done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        env_line = next((line for line in lines if line.startswith("env: ")), env_line)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()))
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    summary = {}
    for name, unit, _better, bound in run.END_TO_END:
        q1, mid, q3 = statistics.quantiles(values[name], n=4)
        spread = (q3 - q1) / mid
        print(f"{name:<12} median {mid:.4f} {unit}  iqr/median {spread:.4f}  bound {bound}")
        summary[name] = {"unit": unit, "median": mid, "q1": q1, "q3": q3, "n": len(values[name])}
    if args.baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.is_file() else {}
        env = json.loads(env_line[len("env: "):]) if env_line else {}
        baseline[args.workload] = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "host": {k: env.get(k) for k in ("nproc", "python", "numpy", "commit")},
            "metrics": summary,
        }
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
