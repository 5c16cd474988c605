"""The shared-memory telemetry plane: per-rank metric pages.

One :class:`TelemetryPlane` is a :class:`~repro.dsm.shmplane.RankPlane`
whose regions are fixed-layout **pages** (see
:mod:`repro.telemetry.schema`): segment naming, the
EMPTY/ACTIVE/FROZEN page lifecycle, the single-writer discipline, the
bounded seqlock read and the thread-local writer binding all live in
the primitive.  What lives here is the schema half:

* every slot is guarded by its own sequence word: the writer bumps it
  to odd, mutates the payload words, bumps it back to even, so a
  cross-process scraper can never see a torn multi-word value (the
  histogram count/sum/bucket triple is the case that matters);
* the scrape decodes each live page into :class:`MetricSample` rows.

Instrumented library code (the data plane, mailboxes, the safe-point
protocol) calls :func:`writer`.  All timestamps are wall-side
(``perf_counter``), so results are bit-identical with telemetry on or
off.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterator

import numpy as np

from repro.dsm import shmplane
from repro.telemetry.schema import (
    COUNTER,
    HISTOGRAM,
    PAGE_WORDS,
    SCHEMA,
    VTIME_SECONDS,
    WALL_SECONDS,
)


@dataclass
class MetricSample:
    """One scraped (or directly registered) metric value.

    ``labels`` is a sorted tuple of ``(key, value)`` pairs — hashable,
    picklable, and already in Prometheus emission order.  Histograms
    carry ``(count, sum, per-bucket counts)`` in ``hist`` with the
    bucket bounds alongside; scalar kinds carry ``value``.
    """

    name: str
    kind: str
    labels: tuple[tuple[str, str], ...]
    value: float = 0.0
    hist: tuple[float, float, tuple[float, ...]] | None = None
    buckets: tuple[float, ...] = ()
    help: str = ""

    def labeled(self, extra: dict[str, str]) -> "MetricSample":
        merged = dict(self.labels)
        merged.update({k: str(v) for k, v in extra.items()})
        return MetricSample(self.name, self.kind,
                            tuple(sorted(merged.items())), self.value,
                            self.hist, self.buckets, self.help)


class NullWriter(shmplane.NullWriter):
    """The disabled hot path: every operation is a no-op."""

    def inc(self, slot: int, value: float = 1.0) -> None:
        pass

    def set(self, slot: int, value: float) -> None:
        pass

    def observe(self, slot: int, value: float) -> None:
        pass

    def clocks(self, vtime: float) -> None:
        pass


NULL_WRITER = NullWriter()

#: ``writer()`` is the telemetry writer bound to the calling thread
#: (:data:`NULL_WRITER` outside an instrumented rank, or with telemetry
#: disabled); ``bind(w)`` binds ``w`` as this thread's hot-path writer
#: (``None`` unbinds).
writer, bind = shmplane.binder(NULL_WRITER)


class TelemetryWriter(shmplane.RegionWriter):
    """One rank's lock-free write handle onto its own page.

    Slot stores go through a ``memoryview`` of the page, which reads and
    writes plain floats where numpy would box a scalar per access.  The
    view pins the page's mapping, so it dies with the writer: the
    owning thread unbinds before its plane closes.
    """

    def __init__(self, page: np.ndarray, rank: int) -> None:
        super().__init__(page, rank)
        self._words = memoryview(page).cast("B").cast("d")
        #: wall anchor for the vtime-vs-wall skew gauge.
        self.bound_at = perf_counter()

    # -- seqlocked slot mutations (single writer: this rank) -----------
    def inc(self, slot: int, value: float = 1.0) -> None:
        p = self._words
        o = SCHEMA[slot].offset
        s = p[o] + 1.0
        p[o] = s            # odd: write in progress
        p[o + 1] += value
        p[o] = s + 1.0      # even: consistent

    def set(self, slot: int, value: float) -> None:
        p = self._words
        o = SCHEMA[slot].offset
        s = p[o] + 1.0
        p[o] = s
        p[o + 1] = value
        p[o] = s + 1.0

    def observe(self, slot: int, value: float) -> None:
        spec = SCHEMA[slot]
        p = self._words
        o = spec.offset
        s = p[o] + 1.0
        p[o] = s
        p[o + 1] += 1.0                              # count
        p[o + 2] += value                            # sum
        p[o + 3 + spec.bucket_index(value)] += 1.0   # bucket
        p[o] = s + 1.0

    def clocks(self, vtime: float) -> None:
        """Stamp the vtime / wall gauge pair (skew = wall - vtime)."""
        self.set(VTIME_SECONDS, vtime)
        self.set(WALL_SECONDS, perf_counter() - self.bound_at)


class TelemetryPlane(shmplane.RankPlane):
    """All pages of one world, plus the parent's scrape path."""

    kind = "telemetry"

    def __init__(self, max_ranks: int, backend: str = "", **where) -> None:
        super().__init__(max_ranks, PAGE_WORDS, backend, **where)

    def writer(self, rank: int) -> TelemetryWriter:
        """This rank's write handle; activates (or thaws) its page."""
        return TelemetryWriter(self.region(rank), rank)

    # ------------------------------------------------------------------
    # the scrape path (parent / reader side)
    # ------------------------------------------------------------------
    def _page_samples(self, rank: int) -> Iterator[MetricSample]:
        page = self.region(rank)
        labels_extra = {"rank": str(rank)}
        if self.backend:
            labels_extra["backend"] = self.backend
        for spec in SCHEMA:
            # best-effort: a bounded-out copy is still reported.
            vals, _ = shmplane.read_stable(page, spec.offset,
                                           spec.offset + 1,
                                           spec.offset + spec.words)
            labels = tuple(sorted(
                dict(spec.labels, **labels_extra).items()))
            if spec.kind == HISTOGRAM:
                count, total = float(vals[0]), float(vals[1])
                if count == 0.0:
                    continue
                yield MetricSample(spec.name, HISTOGRAM, labels,
                                   hist=(count, total,
                                         tuple(float(v) for v in vals[2:])),
                                   buckets=spec.buckets, help=spec.help)
            else:
                if vals[0] == 0.0 and spec.kind == COUNTER:
                    continue
                yield MetricSample(spec.name, spec.kind, labels,
                                   value=float(vals[0]), help=spec.help)

    def scrape(self, include_frozen: bool = False) -> list[MetricSample]:
        """Consistent samples of every live page.

        Empty pages (never bound) and frozen pages (parked workers) are
        skipped; pass ``include_frozen`` for the drain-time scrape that
        folds a finished world's parked pages in as well.
        """
        out: list[MetricSample] = []
        for rank in self.live(include_frozen):
            out.extend(self._page_samples(rank))
        return out
