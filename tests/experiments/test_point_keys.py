"""Identity pin for sweep points: disk-cache, trace-store and journal keys.

Every result the disk cache, the trace store and the run journal hold is
found again by the key of the point that produced it. This suite pins
:func:`~repro.experiments.sweep.point_disk_key` and
:func:`~repro.experiments.sweep.capture_key` for points of every kind:
precise baselines (with and without workload parameters), technique
points (every mode, approximator and degree configs, prefetch degrees,
a memory-fault spec, a ``REPRO_PREDICTOR`` override), full-system
replays (both ``approximate`` values, degree configs) and the trace
captures they depend on. ``expected/point_keys.json`` must never be
regenerated to make this suite pass: a changed key orphans every cached
result. To inspect a divergence, run this file as a script: it prints
the current keys as JSON.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.core.config import ApproximatorConfig
from repro.envspec import INJECT_ENV, PREDICTOR_ENV
from repro.experiments.sweep import (
    capture_key,
    fullsystem_point,
    point_disk_key,
    precise_point,
    technique_point,
)
from repro.sim.tracesim import Mode

EXPECTED = Path(__file__).parent / "expected" / "point_keys.json"

#: label -> approximator config used by the technique and replay points.
CONFIGS = {
    "none": None,
    "default": ApproximatorConfig(),
    "ghb2": ApproximatorConfig(ghb_size=2),
    "deg4": ApproximatorConfig(approximation_degree=4),
    "deg16-ghb2": ApproximatorConfig(approximation_degree=16, ghb_size=2),
    "hybrid": ApproximatorConfig(predictor="hybrid"),
}

FAULT_SPEC = "flip:prob=0.001,seed=7"


def _points() -> Dict[str, object]:
    """label -> (key function, point) for every pinned point."""
    points: Dict[str, object] = {}
    for workload in ("canneal", "swaptions", "bodytrack"):
        for seed in (0, 3):
            for small in (False, True):
                tag = f"{workload}/seed={seed}/small={small}"
                points[f"precise/{tag}"] = (
                    point_disk_key, precise_point(workload, seed=seed, small=small)
                )
                replay = fullsystem_point(workload, seed=seed, small=small)
                points[f"capture/{tag}"] = (capture_key, replay)
                points[f"fullsystem/{tag}/baseline"] = (point_disk_key, replay)
    points["precise/canneal/params"] = (
        point_disk_key, precise_point("canneal", small=True, params={"compute_cost": 1600})
    )
    for mode in Mode:
        for label, config in CONFIGS.items():
            points[f"technique/swaptions/{mode.value}/{label}"] = (
                point_disk_key, technique_point("swaptions", mode, config, small=True)
            )
    for degree in (1, 8):
        points[f"technique/canneal/lva/prefetch={degree}"] = (
            point_disk_key, technique_point("canneal", Mode.LVA, prefetch_degree=degree)
        )
    points["technique/canneal/lva/params"] = (
        point_disk_key,
        technique_point("canneal", Mode.LVA, small=True, params={"compute_cost": 1600}),
    )
    points["technique/fluidanimate/lva/faults"] = (
        point_disk_key,
        technique_point("fluidanimate", Mode.LVA, small=True, faults=FAULT_SPEC),
    )
    points["technique/fluidanimate/predictor/faults"] = (
        point_disk_key,
        technique_point(
            "fluidanimate", Mode.PREDICTOR, CONFIGS["hybrid"], seed=2, faults=FAULT_SPEC
        ),
    )
    for label, config in CONFIGS.items():
        for approximate in (False, True):
            points[f"fullsystem/canneal/{label}/approximate={approximate}"] = (
                point_disk_key,
                fullsystem_point("canneal", config, approximate=approximate, small=True),
            )
    return points


def snapshot() -> Dict[str, str]:
    """Every pinned key, with and without a ``REPRO_PREDICTOR`` override
    and an environment memory-fault spec."""
    keys: Dict[str, str] = {}
    saved = {name: os.environ.pop(name, None) for name in (PREDICTOR_ENV, INJECT_ENV)}
    try:
        for environment, variables in (
            ("clean", {}),
            ("override=clp", {PREDICTOR_ENV: "clp"}),
            ("inject", {INJECT_ENV: FAULT_SPEC}),
        ):
            os.environ.update(variables)
            for label, (key_of, point) in _points().items():
                keys[f"{environment}/{label}"] = key_of(point)
            for name in variables:
                del os.environ[name]
    finally:
        for name, value in saved.items():
            if value is not None:
                os.environ[name] = value
    return keys


@pytest.fixture(scope="module")
def expected() -> Dict[str, str]:
    return json.loads(EXPECTED.read_text())


def test_every_key_is_pinned(expected):
    current = snapshot()
    assert sorted(current) == sorted(expected)
    changed = [label for label in expected if current[label] != expected[label]]
    assert not changed, f"{len(changed)} keys changed, e.g. {changed[:5]}"


def test_overrides_and_faults_are_key_components(expected):
    """The pin itself distinguishes what it must: an override retargets
    only ``Mode.PREDICTOR`` points, a fault spec only technique points."""
    for label in expected:
        if not label.startswith("clean/"):
            continue
        rest = label[len("clean/"):]
        overridden = expected[f"override=clp/{rest}"] != expected[label]
        assert overridden == ("/predictor/" in rest), rest
        injected = expected[f"inject/{rest}"] != expected[label]
        assert injected == (rest.startswith("technique/") and "faults" not in rest), rest


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
