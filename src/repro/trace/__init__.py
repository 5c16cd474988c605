"""Distributed tracing: shared-memory ring buffers, Perfetto export.

The timeline half of the observability subsystem: per-rank ring
buffers of fixed-width binary records (:mod:`~repro.trace.schema`)
appended lock-free from the hot paths (:mod:`~repro.trace.plane`),
scraped by the parent and assembled into Chrome trace-event JSON —
spans, instants and cross-rank message flow arrows, Perfetto-loadable
(:mod:`~repro.trace.assemble`).  A flight-recorder mode keeps rings
small so every crash ships the last moments of every rank as a black
box.
"""

from repro.trace import schema
from repro.trace.assemble import (
    TraceAssembler,
    TraceCollector,
    validate_chrome_trace,
)
from repro.trace.plane import (
    NULL_TRACER,
    NullTracer,
    TracePlane,
    TraceWriter,
    bind,
    tracer,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "TraceAssembler",
    "TraceCollector",
    "TracePlane",
    "TraceWriter",
    "bind",
    "schema",
    "tracer",
    "validate_chrome_trace",
]
