"""The shared-memory trace plane: per-rank ring buffers.

One :class:`TracePlane` is a :class:`~repro.dsm.shmplane.RankPlane`
whose regions are fixed-layout **rings** (see
:mod:`repro.trace.schema`): segment naming, the EMPTY/ACTIVE/FROZEN
ring lifecycle, the single-writer discipline, the bounded seqlock read
and the thread-local tracer binding all live in the primitive.  What
lives here is the schema half:

* every record carries a generation-stamped seqlock commit word: the
  writer stores ``2g+1`` (odd), fills the payload, stores ``2g+2``
  (even), then publishes the cursor.  A scraper that sees anything but
  the exact even stamp for generation ``g`` knows the slot is torn or
  lapped and drops it — live rings can be scraped mid-run and a
  half-written record can never escape;
* the ring wraps overwrite-oldest: record ``g`` lives in slot
  ``g % capacity``, so the newest ``capacity`` records always survive
  — which is the entire point of the flight-recorder mode.

Instrumented code calls :func:`tracer`.  All timestamps are wall-side
(``perf_counter``, CLOCK_MONOTONIC on Linux — one epoch for every
process on the host, so cross-rank timestamps are directly comparable),
and results are bit-identical with tracing on or off.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.dsm import shmplane
from repro.dsm.shmplane import HEADER_WORDS
from repro.trace.schema import (
    DEFAULT_CAPACITY,
    KIND_INSTANT,
    KIND_RECV,
    KIND_SEND,
    KIND_SPAN,
    RECORD_WORDS,
    RECV,
    RING_CURSOR,
    RING_SEQ,
    SEND,
    ring_words,
)


class NullTracer(shmplane.NullWriter):
    """The disabled hot path: every operation is a no-op.

    ``send`` returns sequence 0 — the "untraced" message id, which the
    receive side recognises and skips, so barrier plumbing and traced
    payload traffic coexist on one :class:`~repro.dsm.mailbox.Message`
    field.
    """

    def instant(self, code: int, a: float = 0.0, b: float = 0.0,
                c: float = 0.0, d: float = 0.0) -> None:
        pass

    def span(self, code: int, t0: float, a: float = 0.0, b: float = 0.0,
             c: float = 0.0, d: float = 0.0) -> None:
        pass

    def send(self, dst: int, tag: int, epoch: int = 0) -> int:
        return 0

    def recv(self, src: int, tag: int, epoch: int, seq: int,
             t0: float) -> None:
        pass


NULL_TRACER = NullTracer()

#: ``tracer()`` is the trace writer bound to the calling thread
#: (:data:`NULL_TRACER` outside an instrumented rank, or with tracing
#: disabled); ``bind(w)`` binds ``w`` as this thread's hot-path tracer
#: (``None`` unbinds).
tracer, bind = shmplane.binder(NULL_TRACER)


class TraceWriter(shmplane.RegionWriter):
    """One rank's lock-free append handle onto its own ring.

    Re-binding after a park / un-park cycle resumes from the published
    cursor and sequence counter in the ring header, so a rank's record
    generations and message ids stay monotonic across its whole life.
    """

    def __init__(self, ring: np.ndarray, rank: int, capacity: int) -> None:
        super().__init__(ring, rank)
        self._cap = capacity
        self._next = int(ring[RING_CURSOR])
        self._seq = int(ring[RING_SEQ])

    # -- the seqlocked append (single writer: this rank) ---------------
    def _record(self, kind: float, code: int, t0: float, dur: float,
                a: float, b: float, c: float, d: float) -> None:
        buf, g = self._region, self._next
        s = HEADER_WORDS + (g % self._cap) * RECORD_WORDS
        buf[s] = 2.0 * g + 1.0   # odd: write in progress
        buf[s + 1] = g
        buf[s + 2] = kind
        buf[s + 3] = code
        buf[s + 4] = t0
        buf[s + 5] = dur
        buf[s + 6] = a
        buf[s + 7] = b
        buf[s + 8] = c
        buf[s + 9] = d
        buf[s] = 2.0 * g + 2.0   # even, generation-stamped: committed
        self._next = g + 1
        buf[RING_CURSOR] = float(g + 1)

    # -- the instrumentation API ---------------------------------------
    def instant(self, code: int, a: float = 0.0, b: float = 0.0,
                c: float = 0.0, d: float = 0.0) -> None:
        self._record(KIND_INSTANT, code, perf_counter(), 0.0, a, b, c, d)

    def span(self, code: int, t0: float, a: float = 0.0, b: float = 0.0,
             c: float = 0.0, d: float = 0.0) -> None:
        """Close a span opened at wall time ``t0`` (caller-measured)."""
        self._record(KIND_SPAN, code, t0, perf_counter() - t0, a, b, c, d)

    def send(self, dst: int, tag: int, epoch: int = 0) -> int:
        """Stamp one outgoing message; returns its sequence id.

        The id is unique per sending rank (single writer), so
        ``(src, seq)`` names the message globally — the flow-edge key
        the assembler pairs with the matching receive record.
        """
        s = self._seq + 1
        self._seq = s
        self._region[RING_SEQ] = float(s)
        self._record(KIND_SEND, SEND, perf_counter(), 0.0,
                     float(dst), float(tag), float(epoch), float(s))
        return s

    def recv(self, src: int, tag: int, epoch: int, seq: int,
             t0: float) -> None:
        """Record one matched receive; ``t0`` is when the wait began,
        so the record's duration is exactly who-waited-on-whom."""
        self._record(KIND_RECV, RECV, t0, perf_counter() - t0,
                     float(src), float(tag), float(epoch), float(seq))


def _read_ring(ring: np.ndarray, capacity: int) -> list[tuple]:
    """Scrape one ring: every committed record still in its slot.

    Reads the published cursor, then seqlock-validates each of the last
    ``min(cursor, capacity)`` generations.  A slot whose commit word is
    not the exact even stamp of the expected generation is in one of
    two benign states — mid-write (odd) or lapped by a newer generation
    (the writer wrapped past our cursor snapshot) — and is dropped, so
    the scraper never yields a torn record and, once the writer is
    quiescent, yields exactly the newest ``min(cursor, capacity)``
    records.
    """
    cursor = int(ring[RING_CURSOR])
    out: list[tuple] = []
    for g in range(max(0, cursor - capacity), cursor):
        s = HEADER_WORDS + (g % capacity) * RECORD_WORDS
        vals, ok = shmplane.read_stable(ring, s, s + 1, s + RECORD_WORDS,
                                        want=2.0 * g + 2.0)
        if ok and int(vals[0]) == g:
            out.append(tuple(vals.tolist()))
    return out


class TracePlane(shmplane.RankPlane):
    """All rings of one world, plus the parent's scrape path."""

    kind = "trace"

    def __init__(self, max_ranks: int, capacity: int = DEFAULT_CAPACITY,
                 backend: str = "", **where) -> None:
        self.capacity = capacity
        super().__init__(max_ranks, ring_words(capacity), backend, **where)

    def writer(self, rank: int) -> TraceWriter:
        """This rank's append handle; activates (or thaws) its ring."""
        return TraceWriter(self.region(rank), rank, self.capacity)

    def scrape(self, include_frozen: bool = False
               ) -> dict[int, list[tuple]]:
        """Committed records of every live ring, keyed by rank.

        Empty rings (never bound) and frozen rings (parked workers) are
        skipped; pass ``include_frozen`` for the drain-time scrape that
        folds a finished world's parked rings in as well.
        """
        out: dict[int, list[tuple]] = {}
        for rank in self.live(include_frozen):
            recs = _read_ring(self.region(rank), self.capacity)
            if recs:
                out[rank] = recs
        return out
