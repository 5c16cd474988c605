"""Lock-free shared-memory telemetry: one metrics plane per world.

The observability subsystem: per-rank pages of fixed-slot counters /
gauges / histograms (:mod:`~repro.telemetry.schema`) written lock-free
from the hot paths (:mod:`~repro.telemetry.plane`), scraped by the
parent into a :class:`MetricsRegistry` (:mod:`~repro.telemetry.
registry`) that exports Prometheus text (:mod:`~repro.telemetry.prom`).
"""

from repro.telemetry.plane import (
    NULL_WRITER,
    MetricSample,
    NullWriter,
    TelemetryPlane,
    TelemetryWriter,
    bind,
    writer,
)
from repro.telemetry.prom import CONTENT_TYPE, to_prometheus
from repro.telemetry.registry import MetricsRegistry, snapshot_samples
from repro.telemetry import schema

__all__ = [
    "CONTENT_TYPE",
    "MetricSample",
    "MetricsRegistry",
    "NULL_WRITER",
    "NullWriter",
    "TelemetryPlane",
    "TelemetryWriter",
    "bind",
    "schema",
    "snapshot_samples",
    "to_prometheus",
    "writer",
]
