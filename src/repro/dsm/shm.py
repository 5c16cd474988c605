"""Shared-memory segments: zero-copy partitioned fields across processes.

The multiprocessing execution backend places each ``Partitioned`` field
in one ``multiprocessing.shared_memory`` segment: the creating rank
copies its constructor-initialised array in once, every rank maps a
full-size numpy view onto the same physical pages, and from then on
scatter / gather / halo data movement degenerates to synchronisation
(see ``Capabilities.shared_fields``).  This module owns the segment
lifecycle — allocate / attach / unlink — and the numpy views, with
explicit name tracking so tests can assert that no ``/dev/shm`` entry
outlives a launch.

It also owns the **message data plane** (:class:`BufferPool`,
:class:`DataPlane`): large array payloads between processes travel
through pooled shared-memory slabs instead of being pickled through
the rank channels' pipes.  Three tiers, picked per payload:

* **inline** — payloads under :data:`SHM_THRESHOLD` are pickled through
  the channel as before (a descriptor round-trip costs more than it
  saves for small envelopes);
* **slab**   — the sender copies the array once into a leased slab from
  its per-rank ring and the channel carries only a tiny
  :class:`ShmRef` descriptor; the receiver copies out of the slab and
  recycles it.  Two memcpys replace pickle + pipe write + pipe read +
  unpickle;
* **direct** — when the payload is itself a contiguous view of a
  registered shared segment (and the surrounding protocol bounds the
  borrow with a synchronisation point), the descriptor references the
  *source* segment region and the receiver's landing assignment is a
  single segment-to-segment region copy: **zero** intermediate copies.
  Opt-in (:meth:`DataPlane.register_borrow`) for movement code that can
  prove the bound — stock backend runs take only the first two tiers,
  because the fields whose movements could borrow are the very fields
  the multiprocessing backend already aliases into one shared segment,
  where scatter/halo degenerate to barriers and move no bytes at all.

Ownership discipline (one unlinker, no resource-tracker noise):

* worker processes *create* or *attach* segments but never unlink them;
  both sides unregister from their process's ``resource_tracker``
  immediately, so a worker exiting (cleanly or not) cannot trigger the
  tracker's leak warnings or a premature unlink;
* the parent (the execution backend) unlinks every segment of a launch
  in its ``finally`` — by deterministic name, so it works even when a
  worker died before reporting what it created.

Segment names are ``ppshm-<launch id>-<field>``: deterministic given
the launch id, which is what lets the parent compute the cleanup set
without hearing back from any worker.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.telemetry import schema as _ts
from repro.telemetry.plane import writer as telemetry_writer

#: distinctive prefix for every segment this package creates; the
#: lifecycle tests scan ``/dev/shm`` for it.
SHM_PREFIX = "ppshm"

# ---------------------------------------------------------------------------
# process-local name tracking (the test-visible lifecycle ledger)
# ---------------------------------------------------------------------------
_live_lock = threading.Lock()
_live: set[str] = set()
_launch_seq = itertools.count()
#: serialises the resource-tracker monkeypatch: concurrent patchers
#: would capture each other's no-op lambdas as "originals" and leave
#: tracking disabled for the whole process.
_tracker_patch_lock = threading.Lock()


def _hold_for_fork() -> None:
    _tracker_patch_lock.acquire()
    _live_lock.acquire()


def _release_after_fork() -> None:
    _live_lock.release()
    _tracker_patch_lock.release()


# A fork while another thread holds either lock (one parent launching
# two worlds from two threads) would give the child a lock nobody in it
# ever releases — its first segment attach then hangs — and possibly a
# half-patched resource tracker.  Holding both across the fork hands
# the child free locks and the real tracker functions.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_hold_for_fork,
                        after_in_parent=_release_after_fork,
                        after_in_child=_release_after_fork)


def live_segments() -> list[str]:
    """Names of segments this process has created/attached and not yet
    released — empty whenever no launch is in flight."""
    with _live_lock:
        return sorted(_live)


def _track(name: str) -> None:
    with _live_lock:
        _live.add(name)


def _untrack(name: str) -> None:
    with _live_lock:
        _live.discard(name)


def new_launch_id(ns: str = "") -> str:
    """A name component unique to one phase launch of this process.

    ``ns`` embeds a caller-chosen namespace (e.g. a service job id) in
    the component, so the deterministic segment/slab/heap names of two
    worlds constructed by one parent can never alias each other — the
    pid+sequence pair alone already guarantees that within a process,
    but the namespace keeps the grid disjoint *by construction* and
    makes ``/dev/shm`` listings attributable to a job.
    """
    tag = "".join(c for c in ns if c.isalnum())[:16]
    mid = f"{tag}-" if tag else ""
    return f"{os.getpid():x}-{mid}{next(_launch_seq):x}"


def segment_name(launch_id: str, field: str) -> str:
    return f"{SHM_PREFIX}-{launch_id}-{field}"


@contextmanager
def _no_resource_tracking():
    """Keep this mapping out of the resource tracker's unlink chain.

    ``SharedMemory`` registers every mapping with the process tree's
    shared tracker, which (a) warns about "leaks" the parent cleans up
    on purpose and (b) breaks on the interleaved register/unregister
    traffic of several ranks mapping one segment.  Exactly one party
    unlinks — the parent, by name — so worker mappings are simply never
    registered.  (Python 3.13 exposes this as ``track=False``; this is
    the portable equivalent for 3.10–3.12.)
    """
    with _tracker_patch_lock:
        originals = resource_tracker.register, resource_tracker.unregister
        resource_tracker.register = lambda *a, **k: None
        resource_tracker.unregister = lambda *a, **k: None
        try:
            yield
        finally:
            resource_tracker.register, resource_tracker.unregister = \
                originals


class ShmSegment:
    """One shared segment holding one numpy array."""

    def __init__(self, name: str, shape: tuple, dtype,
                 shm: shared_memory.SharedMemory) -> None:
        self.name = name
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self._shm = shm
        self._view: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def allocate(cls, name: str, shape: tuple, dtype) -> "ShmSegment":
        """Create the segment (fails if the name already exists)."""
        nbytes = max(1, int(np.dtype(dtype).itemsize
                            * np.prod(shape, dtype=np.int64)))
        with _no_resource_tracking():
            shm = shared_memory.SharedMemory(create=True, size=nbytes,
                                             name=name)
        _track(name)
        return cls(name, shape, dtype, shm)

    @classmethod
    def attach(cls, name: str, shape: tuple, dtype) -> "ShmSegment":
        """Map an existing segment created by a peer."""
        with _no_resource_tracking():
            shm = shared_memory.SharedMemory(name=name)
        _track(name)
        return cls(name, shape, dtype, shm)

    # ------------------------------------------------------------------
    def ndarray(self) -> np.ndarray:
        """The full-size array view onto the shared pages (cached: every
        call returns the same object, so rebinding a field is stable)."""
        if self._view is None:
            self._view = np.ndarray(self.shape, dtype=self.dtype,
                                    buffer=self._shm.buf)
        return self._view

    def close(self) -> None:
        """Drop the mapping (not the segment); idempotent, best-effort.

        A still-exported view makes the underlying ``memoryview``
        un-releasable; the mapping then dies with the process, which is
        fine — the *segment* is reclaimed by the parent's unlink either
        way (POSIX allows unlink while mapped).
        """
        self._view = None
        try:
            self._shm.close()
        except BufferError:
            pass  # a live view still pins the buffer; process exit unmaps
        _untrack(self.name)

    def unlink(self) -> None:
        """Remove the segment from the system; idempotent."""
        self.close()
        try:
            with _no_resource_tracking():
                self._shm.unlink()
        except FileNotFoundError:
            pass


def unlink_by_name(name: str) -> bool:
    """Best-effort unlink of a segment this process never mapped.

    The parent's crash-path cleanup: returns True when a segment was
    actually removed, False when none existed.
    """
    try:
        with _no_resource_tracking():
            shm = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        _untrack(name)
        return False
    shm.close()
    try:
        with _no_resource_tracking():
            shm.unlink()
    except FileNotFoundError:
        pass
    _untrack(name)
    return True


class SegmentManager:
    """The segments of one launch, keyed by field name.

    Worker-side convenience over :class:`ShmSegment`: deterministic
    names from the launch id, collective close.  The manager never
    unlinks — that is the parent's job (`unlink_by_name` over the same
    deterministic names).
    """

    def __init__(self, launch_id: str) -> None:
        self.launch_id = launch_id
        self._segments: dict[str, ShmSegment] = {}

    # ------------------------------------------------------------------
    def allocate(self, field: str, shape: tuple, dtype) -> ShmSegment:
        seg = ShmSegment.allocate(segment_name(self.launch_id, field),
                                  shape, dtype)
        self._segments[field] = seg
        return seg

    def attach(self, field: str, shape: tuple, dtype,
               name: str | None = None) -> ShmSegment:
        """``name`` overrides the derived segment name — the service
        arena leases pre-existing capacity-classed segments whose names
        are arena-scoped, not launch-scoped."""
        seg = ShmSegment.attach(name or segment_name(self.launch_id, field),
                                shape, dtype)
        self._segments[field] = seg
        return seg

    def get(self, field: str) -> ShmSegment | None:
        return self._segments.get(field)

    def fields(self) -> list[str]:
        return sorted(self._segments)

    def close_all(self) -> None:
        for seg in self._segments.values():
            seg.close()

    def __len__(self) -> int:
        return len(self._segments)


# ---------------------------------------------------------------------------
# the message data plane: pooled slabs + payload descriptors
# ---------------------------------------------------------------------------
#: payloads at or above this many bytes leave the queue-pickle path and
#: travel through shared memory (crossover of descriptor round-trip cost
#: vs pickle + two pipe copies; measured, not sacred).
SHM_THRESHOLD = 1 << 15

#: slots in one rank's slab ring.  Bounds both the number of in-flight
#: unreceived shm messages a rank can have outstanding and the parent's
#: deterministic cleanup set; an exhausted ring degrades to the inline
#: path rather than blocking forever.
POOL_SLOTS = 16

#: smallest slab payload capacity; slabs grow geometrically from here.
MIN_SLAB = 1 << 16

#: slab header: one int64 free/leased flag, padded to a cache line so
#: the payload starts aligned.
_SLAB_HEADER = 64
_FREE, _LEASED = 0, 1


def pool_slab_name(launch_id: str, rank: int, slot: int) -> str:
    """Deterministic name of one slab, parent-computable for cleanup."""
    return f"{SHM_PREFIX}-{launch_id}-pool-r{rank}-s{slot}"


def unlink_pool(launch_id: str, max_ranks: int) -> int:
    """Parent crash-path cleanup of every slab a launch can have grown.

    Names are deterministic (rank x slot grid), so this needs no worker
    reports; returns how many slabs actually existed.
    """
    removed = 0
    for r in range(max_ranks):
        for s in range(POOL_SLOTS):
            if unlink_by_name(pool_slab_name(launch_id, r, s)):
                removed += 1
    return removed


@dataclass(frozen=True)
class ShmRef:
    """Descriptor of an array living in a shared segment.

    This is what actually crosses the queue in place of the array: ~200
    pickled bytes regardless of payload size.  ``kind`` selects the
    receive discipline — ``"slab"`` payloads are copied out and the slot
    recycled (header word reset); ``"borrow"`` payloads are views of a
    long-lived registered segment, returned to the consumer read-only
    with no release protocol (the surrounding algorithm's
    synchronisation bounds the borrow).

    ``capacity`` is the slab's payload capacity, which only ever grows
    for a given name — so ``(name, capacity)`` identifies the segment
    *generation* and keeps receiver-side attach caches from resolving a
    stale mapping after a regrow.
    """

    name: str
    capacity: int
    offset: int
    shape: tuple
    #: the full dtype, not ``dtype.str``: the string collapses every
    #: structured dtype of one itemsize to the same ``"|Vn"`` token.
    dtype: np.dtype
    kind: str = "slab"

    @property
    def nbytes(self) -> int:
        return int(self.dtype.itemsize
                   * np.prod(self.shape, dtype=np.int64))


class _Slab:
    """One slab of a rank's ring: header flag + payload area."""

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        with _no_resource_tracking():
            self.shm = shared_memory.SharedMemory(
                create=True, size=_SLAB_HEADER + capacity, name=name)
        _track(name)
        self._flag = np.ndarray((1,), dtype=np.int64, buffer=self.shm.buf)
        self._flag[0] = _FREE

    @property
    def free(self) -> bool:
        return int(self._flag[0]) == _FREE

    def mark(self, state: int) -> None:
        self._flag[0] = state

    def view(self, shape: tuple, dtype) -> np.ndarray:
        nbytes = int(np.dtype(dtype).itemsize
                     * np.prod(shape, dtype=np.int64))
        return np.ndarray(shape, dtype=dtype,
                          buffer=self.shm.buf[_SLAB_HEADER:
                                              _SLAB_HEADER + nbytes])

    def close(self) -> None:
        self._flag = None
        try:
            self.shm.close()
        except BufferError:
            pass
        _untrack(self.name)

    def unlink(self) -> None:
        self.close()
        try:
            with _no_resource_tracking():
                self.shm.unlink()
        except FileNotFoundError:
            pass


class BufferPool:
    """One rank's ring of message slabs: allocate / lease / recycle.

    Only the owning rank's process calls :meth:`lease`; any peer that
    received a descriptor recycles the slot by resetting the header
    word through its own mapping (:class:`PoolClient`).  The owner only
    ever flips a header free -> leased and a receiver leased -> free, so
    the single-writer-per-transition discipline needs no lock; a stale
    read can only make the owner skip a just-freed slot for one scan.

    Slabs are created lazily and grow geometrically: a free slot whose
    capacity is too small is unlinked and re-created (same name,
    strictly larger capacity — receivers key attach caches by
    ``(name, capacity)`` so a regrown generation can never be confused
    with a stale mapping).  The pool survives elastic park / un-park
    cycles — it belongs to the process, not the membership — and the
    parent unlinks the whole deterministic name grid in its launch
    ``finally`` (:func:`unlink_pool`), so a crashed rank leaks nothing.
    """

    def __init__(self, launch_id: str, rank: int,
                 slots: int = POOL_SLOTS, min_slab: int = MIN_SLAB,
                 lease_timeout: float = 2.0) -> None:
        if not (1 <= slots <= POOL_SLOTS):
            # the parent's crash sweep (unlink_pool) only covers the
            # POOL_SLOTS name grid; a wider ring would leak segments.
            raise ValueError(
                f"slots must be in 1..{POOL_SLOTS}, got {slots}")
        self.launch_id = launch_id
        self.rank = rank
        self.slots = slots
        self.min_slab = min_slab
        self.lease_timeout = lease_timeout
        self._slabs: list[_Slab | None] = [None] * self.slots
        #: ring statistics (leases served / ring-exhausted fallbacks).
        self.leases = 0
        self.fallbacks = 0

    # ------------------------------------------------------------------
    def _capacity_for(self, nbytes: int) -> int:
        cap = self.min_slab
        while cap < nbytes:
            cap <<= 1
        return cap

    def _provision(self, slot: int, nbytes: int) -> _Slab:
        old = self._slabs[slot]
        cap = self._capacity_for(nbytes)
        if old is not None:
            cap = max(cap, old.capacity << 1)  # strictly grow: new gen
            old.unlink()
        slab = _Slab(pool_slab_name(self.launch_id, self.rank, slot), cap)
        self._slabs[slot] = slab
        return slab

    def lease(self, nbytes: int, wait: bool = True) -> "ShmLease | None":
        """Claim a slab able to hold ``nbytes``; None when the ring is
        exhausted (caller falls back to inline).

        ``wait`` bounds exhaustion with ``lease_timeout`` — worthwhile
        only when other slots are held by receivers of *earlier*
        messages, who will recycle them.  A caller that has leased the
        whole ring for one still-unshipped payload passes ``wait=False``
        (nothing can free a slot until the payload ships, so waiting is
        a deterministic stall).
        """
        deadline = time.monotonic() + self.lease_timeout
        while True:
            grow_slot = empty_slot = None
            for i, slab in enumerate(self._slabs):
                if slab is None:
                    if empty_slot is None:
                        empty_slot = i
                    continue
                if slab.free:
                    if slab.capacity >= nbytes:
                        slab.mark(_LEASED)
                        self._count_lease()
                        return ShmLease(self, i, slab)
                    if grow_slot is None:
                        grow_slot = i
            if empty_slot is not None or grow_slot is not None:
                slot = empty_slot if empty_slot is not None else grow_slot
                slab = self._provision(slot, nbytes)
                slab.mark(_LEASED)
                self._count_lease()
                return ShmLease(self, slot, slab)
            if not wait or time.monotonic() >= deadline:
                self.fallbacks += 1
                telemetry_writer().inc(_ts.POOL_FALLBACKS)
                return None
            time.sleep(2e-4)  # every slot in flight: wait for a recycle

    def _count_lease(self) -> None:
        self.leases += 1
        tele = telemetry_writer()
        if tele.active:
            tele.inc(_ts.POOL_LEASES)
            tele.set(_ts.POOL_IN_FLIGHT, float(self.in_flight()))

    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        """Slots currently leased (0 on a quiesced, leak-free pool)."""
        return sum(1 for s in self._slabs
                   if s is not None and not s.free)

    def close(self) -> None:
        """Drop the owner's mappings (segments stay for the parent)."""
        for slab in self._slabs:
            if slab is not None:
                slab.close()
        self._slabs = [None] * self.slots

    def unlink_all(self) -> None:
        """Owner-side teardown for pools outside a backend launch
        (benchmarks, tests) where no parent sweeps the name grid.
        Name-based, so it works after :meth:`close` too."""
        for slab in self._slabs:
            if slab is not None:
                slab.unlink()
        self._slabs = [None] * self.slots
        for s in range(self.slots):
            unlink_by_name(pool_slab_name(self.launch_id, self.rank, s))


def _raw(arr: np.ndarray) -> np.ndarray:
    """``arr`` as opaque items of its itemsize.  Assigning these copies
    every byte; a structured dtype's own assignment copies its fields
    and leaves the padding behind."""
    return arr.view(np.dtype((np.void, arr.dtype.itemsize)))


class ShmLease:
    """A claimed slab slot; write the payload, then ship the ref."""

    def __init__(self, pool: BufferPool, slot: int, slab: _Slab) -> None:
        self._slab = slab
        self.slot = slot

    def fill(self, arr: np.ndarray) -> ShmRef:
        """Copy ``arr`` into the slab (the one send-side copy) and
        return the descriptor to put on the channel."""
        _raw(self._slab.view(arr.shape, arr.dtype))[...] = _raw(arr)
        return ShmRef(name=self._slab.name, capacity=self._slab.capacity,
                      offset=_SLAB_HEADER, shape=tuple(arr.shape),
                      dtype=arr.dtype)

    def cancel(self) -> None:
        """Release an unused lease (send aborted before the put)."""
        self._slab.mark(_FREE)


class PoolClient:
    """Receiver-side attach cache over peers' slabs and borrowed segments.

    Maps ``(name, capacity)`` — the segment generation — to a live
    mapping, so repeated traffic through the same ring re-uses the mmap
    instead of paying an attach per message.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple[str, int], shared_memory.SharedMemory] = {}

    # ------------------------------------------------------------------
    def _mapping(self, ref: ShmRef) -> shared_memory.SharedMemory:
        key = (ref.name, ref.capacity)
        shm = self._cache.get(key)
        if shm is None:
            with _no_resource_tracking():
                shm = shared_memory.SharedMemory(name=ref.name)
            self._cache[key] = shm
            _track(ref.name)
        return shm

    def view(self, ref: ShmRef) -> np.ndarray:
        """Read-only view of the referenced region (no copy)."""
        shm = self._mapping(ref)
        v = np.ndarray(ref.shape, dtype=ref.dtype,
                       buffer=shm.buf[ref.offset:ref.offset + ref.nbytes])
        v.flags.writeable = False
        return v

    def release(self, ref: ShmRef) -> None:
        """Recycle a slab slot (reset its header word); borrows no-op."""
        if ref.kind != "slab":
            return
        shm = self._mapping(ref)
        np.ndarray((1,), dtype=np.int64, buffer=shm.buf)[0] = _FREE

    def fetch(self, ref: ShmRef) -> np.ndarray:
        """Materialise the payload: copy out, recycle, return the copy."""
        view = self.view(ref)
        arr = np.empty(view.shape, view.dtype)
        _raw(arr)[...] = _raw(view)
        self.release(ref)
        return arr

    def close_all(self) -> None:
        for (name, _), shm in self._cache.items():
            try:
                shm.close()
            except BufferError:
                pass
            _untrack(name)
        self._cache.clear()


# ---------------------------------------------------------------------------
# the symmetric heap: one-sided windows over shared segments
# ---------------------------------------------------------------------------
#: default payload capacity of one rank's symmetric heap segment.
HEAP_BYTES = 1 << 22

#: heap allocations are aligned to a cache line, like slab payloads.
_HEAP_ALIGN = 64


def heap_name(launch_id: str, rank: int) -> str:
    """Deterministic name of one rank's heap, parent-computable."""
    return f"{SHM_PREFIX}-{launch_id}-heap-r{rank}"


def unlink_heaps(launch_id: str, max_ranks: int) -> int:
    """Parent crash-path cleanup of every heap a launch can have created
    (deterministic name grid, no worker reports needed)."""
    removed = 0
    for r in range(max_ranks):
        if unlink_by_name(heap_name(launch_id, r)):
            removed += 1
    return removed


class SymmetricHeap:
    """One rank's half of an OpenSHMEM-style symmetric heap.

    Every rank creates its own segment (``ppshm-<launch>-heap-r<rank>``)
    and runs the same deterministic bump allocator over it: because the
    one-sided API is SPMD (:meth:`~repro.dsm.comm.Communicator.win_alloc`
    is collective with identical arguments), every rank's ``name`` lands
    at the *same offset* in every rank's segment — which is the whole
    trick: a peer's window is reachable by attaching the peer's segment
    and reading at one's own locally-computed offset, no metadata
    exchange.  Co-located communicators use :meth:`peer_view` for direct
    one-sided loads/stores; remote windows are served by the owner's
    progress thread instead (the segment is not reachable off-node).

    Like the slab pool, the heap belongs to the process, not the
    membership, and the parent unlinks the deterministic name grid in
    its launch ``finally`` (:func:`unlink_heaps`).
    """

    def __init__(self, launch_id: str, rank: int,
                 nbytes: int = HEAP_BYTES) -> None:
        self.launch_id = launch_id
        self.rank = rank
        self.nbytes = nbytes
        name = heap_name(launch_id, rank)
        with _no_resource_tracking():
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes,
                                                   name=name)
        _track(name)
        self.name = name
        self._cursor = 0
        #: window name -> (offset, shape, dtype); identical on every
        #: rank by the SPMD allocation discipline.  The full dtype, not
        #: ``dtype.str``, which collapses every structured dtype of one
        #: itemsize to the same ``"|Vn"`` token.
        self._alloc: dict[str, tuple[int, tuple, np.dtype]] = {}
        self._peers: dict[int, shared_memory.SharedMemory] = {}

    # ------------------------------------------------------------------
    def has(self, name: str) -> bool:
        return name in self._alloc

    def alloc(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Bump-allocate window ``name`` (idempotent for an identical
        re-allocation — a protocol re-entering a phase keeps its
        offset; contents are whatever the last epoch left there).

        Fresh segments are zero pages, so a first allocation is
        zero-initialised without touching the memory.
        """
        spec = (tuple(shape), np.dtype(dtype))
        if name in self._alloc:
            off, got_shape, got_dtype = self._alloc[name]
            if (got_shape, got_dtype) != spec:
                raise ValueError(
                    f"heap window {name!r} re-allocated with a different "
                    f"spec: {spec} vs {(got_shape, got_dtype)}")
            return self.window(name)
        nb = int(np.dtype(dtype).itemsize * np.prod(shape, dtype=np.int64))
        off = self._cursor
        if off + nb > self.nbytes:
            raise MemoryError(
                f"symmetric heap exhausted: {name!r} needs {nb} bytes at "
                f"offset {off} of {self.nbytes}")
        self._cursor = (off + nb + _HEAP_ALIGN - 1) & ~(_HEAP_ALIGN - 1)
        self._alloc[name] = (off, spec[0], spec[1])
        return self.window(name)

    def _view(self, buf, name: str) -> np.ndarray:
        off, shape, dtype = self._alloc[name]
        nb = int(dtype.itemsize * np.prod(shape, dtype=np.int64))
        return np.ndarray(shape, dtype=dtype, buffer=buf[off:off + nb])

    def window(self, name: str) -> np.ndarray:
        """This rank's instance of window ``name``."""
        return self._view(self._shm.buf, name)

    def peer_view(self, peer: int, name: str) -> np.ndarray:
        """Window ``name`` in ``peer``'s segment (same offset — the
        symmetry invariant).  Co-located peers only: the attach maps
        the peer's shared pages into this address space."""
        if peer == self.rank:
            return self.window(name)
        shm = self._peers.get(peer)
        if shm is None:
            pname = heap_name(self.launch_id, peer)
            with _no_resource_tracking():
                shm = shared_memory.SharedMemory(name=pname)
            self._peers[peer] = shm
            _track(pname)
        return self._view(shm.buf, name)

    def close(self) -> None:
        """Drop mappings (the parent unlinks the segments by name)."""
        try:
            self._shm.close()
        except BufferError:
            pass
        _untrack(self.name)
        for peer, shm in self._peers.items():
            try:
                shm.close()
            except BufferError:
                pass
            _untrack(heap_name(self.launch_id, peer))
        self._peers.clear()

    def unlink_all(self) -> None:
        """Owner-side teardown for heaps outside a backend launch
        (tests, benchmarks) where no parent sweeps the name grid."""
        self.close()
        unlink_by_name(self.name)


class DataPlane:
    """Payload packing policy over one rank's pool + attach client.

    ``outbound`` turns a payload into what actually crosses the queue
    (inline copy, slab ref, or borrowed ref); ``inbound`` resolves it
    back on the receiving side.  Containers (tuples / lists / dicts)
    are walked recursively, so collective payloads like
    ``(meta, part)`` keep their shape while their arrays ride the
    slabs.  The vtime cost model never sees any of this — senders
    charge ``nbytes_of`` of the *logical* payload before packing, so
    virtual time is transport-independent by construction.
    """

    def __init__(self, pool: BufferPool, threshold: int | None = None,
                 heap: SymmetricHeap | None = None) -> None:
        self.pool = pool
        self.client = PoolClient()
        self.threshold = SHM_THRESHOLD if threshold is None else threshold
        #: the rank's symmetric heap, when the backend provisions one —
        #: communicators route heap-backed one-sided windows through it.
        self.heap = heap
        #: overrides the name component of a lazily provisioned heap.
        #: The service fleet keys one pool per *worker* (arena-scoped,
        #: reused across jobs) but heaps are *rank*-addressed, so two
        #: concurrent jobs sharing the arena launch id would collide on
        #: ``heap_name`` — each job activation pins its own id here.
        self.heap_launch_id: str | None = None
        #: id(array) -> (segment name, capacity, base view) of arrays a
        #: caller declared borrowable (direct path; see register_borrow).
        self._borrow: dict[int, tuple[str, int, np.ndarray]] = {}
        #: slabs leased for the payload currently being packed (one
        #: outbound/pack call): once it reaches the ring size, further
        #: leases stop waiting — every slot is held by *this* unshipped
        #: payload, so no receiver can recycle one.
        self._pack_leases = 0
        self.slab_msgs = 0
        self.borrow_msgs = 0
        self.inline_msgs = 0

    # ------------------------------------------------------------------
    def register_borrow(self, arr: np.ndarray, name: str,
                        nbytes: int | None = None) -> None:
        """Declare ``arr`` (a view over shared segment ``name``) safe to
        send by reference.

        The caller asserts the protocol invariant: between a send of any
        view into ``arr`` and the next write to the sent region there is
        a synchronisation point that happens-after every matching
        receive (a barrier, a blocking ack, a paired exchange).  Only
        opt-in movement code uses this — the generic send path never
        borrows.
        """
        total = int(arr.nbytes) if nbytes is None else nbytes
        self._borrow[id(arr)] = (name, total, arr)

    def _borrow_ref(self, arr: np.ndarray) -> ShmRef | None:
        base = arr.base if arr.base is not None else arr
        entry = self._borrow.get(id(base)) or self._borrow.get(id(arr))
        if entry is None or not arr.flags.c_contiguous:
            return None
        name, capacity, base_view = entry
        off = (arr.__array_interface__["data"][0]
               - base_view.__array_interface__["data"][0])
        if off < 0 or off + arr.nbytes > base_view.nbytes:
            return None
        return ShmRef(name=name, capacity=capacity, offset=int(off),
                      shape=tuple(arr.shape), dtype=arr.dtype,
                      kind="borrow")

    # ------------------------------------------------------------------
    def pack_lease(self, nbytes: int) -> "ShmLease | None":
        """Lease one slab for the payload currently being packed.

        Waiting on an exhausted ring is only useful while slots may be
        recycled by receivers of earlier messages; once this payload
        alone holds the whole ring, the wait could never be satisfied
        (nothing ships until packing finishes), so the lease degrades
        to the inline path immediately instead of stalling out the
        timeout per remaining array.
        """
        lease = self.pool.lease(
            nbytes, wait=self._pack_leases < self.pool.slots)
        if lease is not None:
            self._pack_leases += 1
        return lease

    def start_pack(self) -> None:
        """Reset the lease budget for one new multi-part payload (for
        callers that pack values one by one, like the checkpoint
        funnel; :meth:`outbound` resets it itself)."""
        self._pack_leases = 0

    def pack_exact(self, value):
        """Slab-pack one value iff the receiver reproduces it
        *byte-exactly*; otherwise return it unchanged (inline).

        The slab round-trip always yields a C-order copy, so only
        C-contiguous non-object arrays qualify — a Fortran-order field
        would come back value-equal but encode differently
        (``np.save`` records ``fortran_order``), which the checkpoint
        funnel's byte-parity contract cannot tolerate.  Shares
        :meth:`outbound`'s lease budget and fallback policy.
        """
        if (isinstance(value, np.ndarray) and value.flags.c_contiguous
                and not value.dtype.hasobject
                and value.nbytes >= self.threshold):
            lease = self.pack_lease(value.nbytes)
            if lease is not None:
                self.slab_msgs += 1
                self._count_tier(_ts.SEND_BYTES_SLAB, _ts.SEND_MSGS_SLAB,
                                 value.nbytes)
                return lease.fill(value)
        return value

    @staticmethod
    def _count_tier(bytes_slot: int, msgs_slot: int, nbytes: int) -> None:
        tele = telemetry_writer()
        if tele.active:
            tele.inc(bytes_slot, float(nbytes))
            tele.inc(msgs_slot)

    def _pack_array(self, arr: np.ndarray, owned: bool):
        if arr.dtype.hasobject or arr.nbytes < self.threshold:
            self.inline_msgs += 1
            self._count_tier(_ts.SEND_BYTES_INLINE, _ts.SEND_MSGS_INLINE,
                             arr.nbytes)
            return arr if owned else arr.copy()
        ref = self._borrow_ref(arr)
        if ref is not None:
            self.borrow_msgs += 1
            self._count_tier(_ts.SEND_BYTES_BORROW, _ts.SEND_MSGS_BORROW,
                             arr.nbytes)
            return ref
        lease = self.pack_lease(arr.nbytes)
        if lease is None:  # ring exhausted: degrade, don't block forever
            self.inline_msgs += 1
            self._count_tier(_ts.SEND_BYTES_INLINE, _ts.SEND_MSGS_INLINE,
                             arr.nbytes)
            return arr if owned else arr.copy()
        self.slab_msgs += 1
        self._count_tier(_ts.SEND_BYTES_SLAB, _ts.SEND_MSGS_SLAB,
                         arr.nbytes)
        return lease.fill(arr)

    def _pack(self, obj, owned: bool):
        if isinstance(obj, np.ndarray):
            return self._pack_array(obj, owned)
        if isinstance(obj, (list, tuple)):
            return type(obj)(self._pack(x, owned) for x in obj)
        if isinstance(obj, dict):
            return {k: self._pack(v, owned) for k, v in obj.items()}
        return obj  # scalars / immutables: exactly the inline semantics

    def outbound(self, obj, owned: bool = False):
        """What to put on the queue in place of ``obj``."""
        self._pack_leases = 0  # a fresh payload: its lease budget resets
        return self._pack(obj, owned)

    def inbound(self, obj):
        """Resolve a received payload back into arrays.

        Slab refs are copied out and recycled immediately; borrowed
        refs come back as read-only views, so the consumer's landing
        assignment *is* the single segment-to-segment region copy.
        """
        if isinstance(obj, ShmRef):
            if obj.kind == "borrow":
                return self.client.view(obj)
            return self.client.fetch(obj)
        if isinstance(obj, (list, tuple)):
            return type(obj)(self.inbound(x) for x in obj)
        if isinstance(obj, dict):
            return {k: self.inbound(v) for k, v in obj.items()}
        return obj

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {"slab": self.slab_msgs, "borrow": self.borrow_msgs,
                "inline": self.inline_msgs,
                "fallbacks": self.pool.fallbacks}

    def close(self) -> None:
        self.client.close_all()
        self.pool.close()
        if self.heap is not None:
            self.heap.close()
