"""Result reporting: JSON and Markdown renderings of experiment results.

The drivers return structured :class:`ExperimentResult` objects; this
module turns them into artefacts — a machine-readable JSON dump for
regression tracking and a Markdown table for EXPERIMENTS.md-style reports.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, List, Optional

from repro.experiments.common import ExperimentResult, cell_text


def to_json(result: ExperimentResult, indent: int = 2) -> str:
    """Serialise one result (series + averages + meta) as JSON.

    A failed cell or all-failed average (NaN) is written as ``null``:
    a bare ``NaN`` is not JSON.
    """
    payload = {
        "name": result.name,
        "description": result.description,
        "series": {
            label: {workload: _value(v) for workload, v in series.items()}
            for label, series in result.series.items()
        },
        "averages": {label: _value(result.average(label)) for label in result.series},
        "meta": {k: _jsonable(v) for k, v in result.meta.items()},
    }
    return json.dumps(payload, indent=indent, sort_keys=False)


def _value(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


def _jsonable(value: object) -> object:
    try:
        json.dumps(value)
        return value
    except TypeError:
        return repr(value)


def to_markdown(result: ExperimentResult, precision: int = 4) -> str:
    """Render one result as a GitHub-flavoured Markdown table."""
    labels = list(result.series)
    rows: List[str] = []
    for series in result.series.values():
        for workload in series:
            if workload not in rows:
                rows.append(workload)

    lines = [
        f"### {result.name}",
        "",
        result.description,
        "",
        "| benchmark | " + " | ".join(labels) + " |",
        "|" + "---|" * (len(labels) + 1),
    ]
    for workload in rows:
        cells = [cell_text(result.series[label].get(workload), precision) for label in labels]
        lines.append(f"| {workload} | " + " | ".join(cells) + " |")
    averages = [cell_text(result.average(label), precision) for label in labels]
    lines.append("| **average** | " + " | ".join(averages) + " |")
    return "\n".join(lines)


def render_report(results: Iterable[ExperimentResult], title: str = "Results") -> str:
    """Concatenate several results into one Markdown document."""
    parts = [f"# {title}", ""]
    for result in results:
        parts.append(to_markdown(result))
        parts.append("")
    return "\n".join(parts)
