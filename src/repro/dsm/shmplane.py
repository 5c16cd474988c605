"""The per-rank single-writer region primitive under every shm plane.

One :class:`RankPlane` serves one world (one phase launch): a flat
``float64`` buffer of ``max_ranks`` fixed-width **regions**, backed by
one dedicated shared-memory segment for process substrates
(``ppshm-<launch id>-<kind>``, removed by the creating parent like
every other segment of the launch) or a plain process-local array for
thread substrates — the scrape path is identical either way.  The
telemetry pages and the trace rings are both instances: each adds only
its schema-specific writer and decoder on top of what lives here.

**Writer discipline** (mpmetrics-style, single writer per region):

* each rank writes *only its own region*, so no write ever races
  another write — a plane needs no locks at all;
* multi-word values are guarded by a sequence word the writer leaves
  odd while it stores and even once consistent; :func:`read_stable` is
  the one reader loop that brackets a payload copy with it;
* word 0 of every region is its lifecycle state: ``EMPTY`` (never
  bound), ``ACTIVE`` (a rank is writing), ``FROZEN`` (the rank is
  parked or dead — its words stay in the segment, live scrapes skip
  them, the drain-time scrape folds them in).

The writer the hot paths see is bound **thread-locally**
(:func:`binder`): in-process backends run ranks as threads of one
interpreter, so a module global would collide.  Instrumented code gets
either the bound rank's writer or the plane's shared null object — a
disabled plane costs one attribute load and a branch.  Nothing here
ever touches a virtual clock.

``repro.dsm.shm`` imports the telemetry writer at module top, so this
module reaches it lazily, only where a segment is actually opened.
"""

from __future__ import annotations

import threading
from time import sleep
from typing import Callable, Iterator

import numpy as np

#: region lifecycle states (word 0 of each region).
EMPTY, ACTIVE, FROZEN = 0.0, 1.0, 2.0
#: words reserved at the head of each region (state flag + per-plane
#: header words + padding).
HEADER_WORDS = 8
#: failed polls :func:`read_stable` tolerates before giving up.
SEQLOCK_POLLS = 4096


def read_stable(buf: np.ndarray, seq: int, lo: int, hi: int,
                want: float | None = None) -> tuple[np.ndarray | None, bool]:
    """Seqlock read: copy ``buf[lo:hi]`` bracketed by the word at ``seq``.

    With ``want`` unset any even, unchanged sequence brackets a
    consistent copy (the per-slot seqlock of a metrics page).  With
    ``want`` set only that exact stamp commits the payload, and a
    larger one means the slot was lapped by a newer generation — the
    copy is ``None`` (a ring record's generation-stamped commit word).
    Returns ``(copy, consistent)``.

    Every failed poll yields the interpreter (``sleep(0)``): with
    in-process writers a reader that spins without yielding burns its
    whole GIL slice observing one preempted writer frozen mid-store —
    the yield is what lets the writer's few remaining bytecodes run, so
    the retry actually samples a *new* state.  Bounded all the same — a
    wedged writer (a rank killed mid-store) must not hang the scraper;
    the final best-effort copy is then no worse than what a lock would
    have left behind, and is flagged inconsistent.
    """
    for _ in range(SEQLOCK_POLLS):
        s1 = buf[seq]
        if want is None:
            ready = s1 % 2.0 == 0.0
        elif s1 > want:
            return None, False
        else:
            ready = s1 == want
        if ready:
            vals = buf[lo:hi].copy()
            if buf[seq] == s1:
                return vals, True
        sleep(0.0)
    return buf[lo:hi].copy(), False


def binder(null) -> tuple[Callable, Callable]:
    """One thread-local writer binding with ``null`` as its unbound
    value: returns ``(current, bind)``.  ``current()`` is the hot-path
    accessor; ``bind(w)`` binds ``w`` on the calling thread (``None``
    unbinds)."""
    tl = threading.local()

    def current():
        return getattr(tl, "w", null)

    def bind(w) -> None:
        tl.w = null if w is None else w

    return current, bind


class NullWriter:
    """The disabled hot path's lifecycle half: inert, never active."""

    active = False

    def freeze(self) -> None:
        pass


class RegionWriter:
    """One rank's write handle onto its own region.  Creating one
    activates the region — or thaws it, when the rank is un-parked."""

    active = True

    def __init__(self, region: np.ndarray, rank: int) -> None:
        self._region = region
        self.rank = rank
        region[0] = ACTIVE

    def freeze(self) -> None:
        """Mark the region parked: words stay, live scrapes skip it."""
        self._region[0] = FROZEN


class RankPlane:
    """All regions of one world, plus the lifecycle half of a scrape.

    Subclasses name their segment ``kind``, fix ``region_words`` and
    add ``writer(rank)`` / ``scrape()``.  With a ``launch_id`` the
    buffer is the launch's segment of that kind (``create`` allocates
    and zeroes it — the parent; otherwise it is mapped — a rank
    process); without one it is process-local.
    """

    kind = "plane"

    def __init__(self, max_ranks: int, region_words: int, backend: str = "",
                 launch_id: str | None = None, create: bool = False) -> None:
        self.max_ranks = max_ranks
        self.region_words = region_words
        self.backend = backend
        self._seg = None
        words = max_ranks * region_words
        if launch_id is None:
            self._buf = np.zeros(words, dtype=np.float64)
            return
        from repro.dsm import shm

        open_ = shm.ShmSegment.allocate if create else shm.ShmSegment.attach
        self._seg = open_(shm.segment_name(launch_id, self.kind),
                          (words,), np.float64)
        self._buf = self._seg.ndarray()
        if create:
            self._buf[:] = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def local(cls, max_ranks: int, **schema):
        """A process-local plane (thread substrates; no segment)."""
        return cls(max_ranks, **schema)

    @classmethod
    def create(cls, launch_id: str, max_ranks: int, **schema):
        """Allocate the launch's segment of this kind (parent side)."""
        return cls(max_ranks, launch_id=launch_id, create=True, **schema)

    @classmethod
    def attach(cls, launch_id: str, max_ranks: int, **schema):
        """Map the launch's existing segment (rank-process side)."""
        return cls(max_ranks, launch_id=launch_id, **schema)

    # ------------------------------------------------------------------
    def region(self, rank: int) -> np.ndarray:
        if not (0 <= rank < self.max_ranks):
            raise ValueError(f"rank {rank} outside {self.kind} plane of "
                             f"{self.max_ranks} regions")
        return self._buf[rank * self.region_words:
                         (rank + 1) * self.region_words]

    def live(self, include_frozen: bool = False) -> Iterator[int]:
        """Ranks a scrape covers: active regions, plus frozen ones for
        the drain-time scrape of a finished world.  Empty regions
        (never bound) are always skipped."""
        wanted = (ACTIVE, FROZEN) if include_frozen else (ACTIVE,)
        for rank in range(self.max_ranks):
            if float(self._buf[rank * self.region_words]) in wanted:
                yield rank

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._buf = np.zeros(0, dtype=np.float64)
        if self._seg is not None:
            self._seg.close()

    def unlink(self) -> None:
        if self._seg is not None:
            self._seg.unlink()
