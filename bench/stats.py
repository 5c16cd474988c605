"""Order statistics and the metric schema (``BENCHMARK.json``)."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

median = statistics.median


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def schema() -> dict:
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)
