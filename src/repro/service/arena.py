"""Shared-memory segment arena: reuse field segments across jobs.

A one-shot launch allocates a shared segment per partitioned field and
unlinks it in its ``finally`` — correct, but for a service running
hundreds of short jobs the allocate/zero/unlink cycle is pure overhead
on every one of them.  The arena keeps the segments instead: each lease
rounds the field's byte size up to a power-of-two **capacity class** and
hands out a free segment of that class (allocating only when the class's
free list is empty), and a release returns the job's segments to the
free lists intact.  Field arrays of different shapes and dtypes share a
class as long as they round to the same capacity — an ndarray view maps
the first ``nbytes`` of the segment, the tail is slack.

Nothing is unlinked until :meth:`SegmentArena.unlink_all` at fleet
shutdown, so the steady-state segment population is the high-water mark
of concurrent demand, not the job count.  Correctness does not depend on
segment freshness: rank 0 seeds every placed field from its
authoritative constructor copy (the same scatter-from-root convention a
cold launch uses), so a recycled segment's stale bytes are never read.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from repro.dsm import shm


def _capacity(nbytes: int) -> int:
    """The smallest power-of-two capacity holding ``nbytes``."""
    return 1 << max(0, int(nbytes) - 1).bit_length()


class SegmentArena:
    """Capacity-classed free lists of fleet-scoped shared segments.

    Thread-safe: leases arrive on the fleet funnel's serving thread while
    releases arrive on per-job service threads.
    """

    def __init__(self, fleet_id: str) -> None:
        self.fleet_id = fleet_id
        self._seq = itertools.count()
        self._lock = threading.Lock()
        #: capacity -> names of free segments of that capacity.
        self._free: dict[int, list[str]] = {}
        #: job tag -> [(name, capacity), ...] currently leased.
        self._leased: dict[str, list[tuple[str, int]]] = {}
        #: every name this arena ever created (for unlink_all).
        self._all: list[str] = []

    # ------------------------------------------------------------------
    def lease(self, job: str, specs: list[tuple[str, tuple, np.dtype]]
              ) -> dict[str, str]:
        """Lease one segment per ``(field, shape, dtype)`` spec.

        Returns ``{field: segment_name}``; the caller attaches each
        name with the field's own shape/dtype (capacity >= nbytes by
        construction).
        """
        out: dict[str, str] = {}
        with self._lock:
            held = self._leased.setdefault(job, [])
            for field, shape, dtype in specs:
                nbytes = int(np.dtype(dtype).itemsize
                             * np.prod(shape, dtype=np.int64))
                cap = _capacity(nbytes)
                free = self._free.get(cap)
                if free:
                    name = free.pop()
                else:
                    name = (f"{shm.SHM_PREFIX}-{self.fleet_id}"
                            f"-arena-{next(self._seq):x}")
                    seg = shm.ShmSegment.allocate(name, (cap,), np.uint8)
                    seg.close()  # the parent holds no mapping, only names
                    self._all.append(name)
                held.append((name, cap))
                out[field] = name
        return out

    def release(self, job: str) -> None:
        """Return every segment the job holds to its free list."""
        with self._lock:
            for name, cap in self._leased.pop(job, []):
                self._free.setdefault(cap, []).append(name)

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            free = sum(len(v) for v in self._free.values())
            leased = sum(len(v) for v in self._leased.values())
            return {"segments": len(self._all), "free": free,
                    "leased": leased}

    def unlink_all(self) -> None:
        """Remove every arena segment (fleet shutdown)."""
        with self._lock:
            for name in self._all:
                shm.unlink_by_name(name)
            self._all.clear()
            self._free.clear()
            self._leased.clear()
