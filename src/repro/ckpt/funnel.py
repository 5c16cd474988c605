"""Cross-process checkpoint funnel: worker writes through the master store.

Worker processes must not write checkpoint files themselves: the master
:class:`~repro.ckpt.store.CheckpointStore` carries state that has to
stay consistent across phases — the CAS chunk index, async-writer
queues, byte accounting — and it lives in
the parent process, where the :class:`~repro.exec.driver.PhaseDriver`
reads checkpoints back for restarts and adaptations.

So checkpoint traffic is funnelled: a worker-side :class:`FunnelStore`
(the ``store`` its :class:`~repro.core.context.ExecutionContext` sees)
sends each request over its *link* — an ``mp.Pipe`` end, or a TCP
connection to the funnel's listener for a rank on another node — and
blocks on the reply.  The parent-side :class:`CheckpointFunnel` serves
every link from one :class:`~repro.dsm.links.LinkLoop` thread and
replies on the link each request came in on; a worker that dies or
stalls mid-frame costs only its own link.  Writes route by job
to a registered store (a launch's master store under ``""``, one
namespaced store per service job) or its per-rank shard sub-store for
``STRATEGY_LOCAL``; the reply carries the bytes written so the worker's
virtual-time accounting matches a single-process run.  The bytes on
disk are produced by the same store object under every backend.

A snapshot crosses as one :class:`WireSnapshot`.  On a pipe link a
field that is a shared-field view crosses as a *borrowed region of its
own segment* (a ``ShmRef`` of kind ``"borrow"``; placement lends the
store its segments, :meth:`FunnelStore.lend`), so its bytes are not
copied at all before the parent's store reads them.  With a data plane
(:class:`~repro.dsm.shm.DataPlane`) the other large arrays — or the one
buffer of missing CAS chunk payloads, packed straight from the pieces —
ride leased slabs, copied once.  The request carries only descriptors;
the parent writes straight from read-only views and recycles the slabs
in a ``finally``.  The RPC is synchronous and the save is fenced until
it returns, so both borrows are bounded; checkpoint bytes are
bit-identical with and without the plane, over either link.

When the master store is a :class:`~repro.ckpt.cas.CasCheckpointStore`
the funnel speaks **chunk refs** instead of snapshots: the worker
cuts and hashes its fields locally, straight from their memory
(:func:`~repro.ckpt.chunker.field_chunks`), asks the parent which
digests its CAS lacks
(``_OP_MISSING`` — the presence handshake), and ships *only those
chunk payloads* with the recipe.  Replicated SafeData and halo/stale
regions other ranks already funnelled are never transferred at all —
cross-rank dedup happens on the wire, not just on the disk.  The
parent digest-verifies every shipped chunk before storing it; if a
referenced chunk vanished between handshake and write (a GC race) the
reply carries a ``CAS_CHUNK_MISSING`` marker and the worker retries
once with every chunk payload inline.
"""

from __future__ import annotations

import multiprocessing as mp
import traceback
from dataclasses import dataclass
from multiprocessing.connection import Connection
from time import perf_counter
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.ckpt.cas import CasCheckpointStore
from repro.ckpt.chunker import field_chunks
from repro.ckpt.snapshot import KIND_FULL, KIND_RECIPE, Snapshot
from repro.dsm.links import LinkLoop, dial
from repro.dsm.shm import PoolClient, ShmRef, borrow_ref, count_tier
from repro.telemetry import schema as _ts
from repro.trace import schema as _tc
from repro.trace.plane import tracer as trace_writer

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckpt.store import CheckpointStore
    from repro.dsm.shm import DataPlane
    from repro.service.arena import SegmentArena

_OP_WRITE = "write"
_OP_FLUSH = "flush"
_OP_MISSING = "missing"
_OP_ARENA = "arena"

#: marker the parent's ChunkCorrupt carries when a handshake raced GC;
#: the worker sees it in the error reply and retries with all chunks.
CAS_CHUNK_MISSING = "CAS_CHUNK_MISSING"

#: how long a worker waits for the parent's reply to one request.
ACK_TIMEOUT_SECONDS = 120.0
#: how long ``CheckpointFunnel.stop`` waits for the serving thread.
STOP_TIMEOUT_SECONDS = 30.0


def funnel_shape(store: "CheckpointStore") -> dict:
    """What a worker-side :class:`FunnelStore` must mirror of the
    master store, as its keyword arguments: the async writer's view
    for the cost model, and whether the master is a chunk store (writes
    then speak the chunk-ref protocol)."""
    return {"is_async": store.is_async,
            "depth": store.writer.depth if store.is_async else 0,
            "cas": isinstance(store, CasCheckpointStore)}


@dataclass
class WireSnapshot:
    """One checkpoint as it crosses the funnel.

    A full write carries ``fields``: each value inline, or a
    :class:`~repro.dsm.shm.ShmRef` when borrowed from a lent segment or
    slab-packed (only C-contiguous non-object arrays are either, so the
    parent's views encode to bit-identical bytes).  A CAS write carries
    ``refs``, the complete recipe (field -> ordered ``(digest, length)``
    refs), plus only the chunks the presence handshake reported absent:
    one ``chunks`` buffer (inline or a ``ShmRef``) that ``index`` —
    ordered ``(digest, length)`` — slices back apart.
    """

    app: str
    safepoint_count: int
    mode: str
    meta: dict[str, Any]
    fields: dict[str, Any] | None = None
    refs: dict[str, list] | None = None
    chunks: Any = None
    index: list | None = None


@dataclass
class _WriterShim:
    """Enough of ``AsyncCheckpointWriter`` for the cost model's view."""

    depth: int


class CheckpointFunnel:
    """Parent side: one thread serves every worker link into the stores.

    ``arena`` is the service fleet's
    :class:`~repro.service.arena.SegmentArena`: the ``arena`` op (rank
    0's field-segment lease at job start) is served only with one.
    """

    def __init__(self, arena: "SegmentArena | None" = None) -> None:
        self.arena = arena
        #: job tag -> the store that job's writes land in.
        self._stores: dict[str, CheckpointStore] = {}
        #: serves every worker link: pipe ends and accepted TCP links.
        self._loop = LinkLoop("ckpt-funnel")
        self._address: tuple[str, int] | None = None
        #: attach cache over the workers' slab rings (the parent writes
        #: from views through it).
        self._client = PoolClient()
        #: ``(op, shard rank)`` of the request being served, else None.
        self._busy: tuple | None = None

    # ------------------------------------------------------------------
    def register(self, job: str, store: "CheckpointStore") -> None:
        self._stores[job] = store

    def unregister(self, job: str) -> None:
        self._stores.pop(job, None)

    def pipe(self) -> Connection:
        """A new pipe link; returns the worker's end.  The caller hands
        it to one worker process and closes its own copy as soon as that
        process has started, so the worker's exit reaches us as EOF."""
        ours, theirs = mp.Pipe()
        self._loop.add(ours, self._handle)
        return theirs

    def tcp(self, host: str) -> tuple[str, int]:
        """Accept TCP links on ``host``, bound on the first call (before
        :meth:`start`); returns the ``(host, port)`` workers dial."""
        if self._address is None:
            self._address = self._loop.bind(host, self._handle)
        return self._address

    def start(self) -> None:
        """Begin serving; call *after* worker processes are spawned so a
        fork cannot duplicate the serving thread into a child."""
        self._loop.start()

    def stop(self) -> None:
        """Stop serving once every worker has exited; idempotent.

        Raises :class:`TimeoutError` if the serving thread is still busy
        after :data:`STOP_TIMEOUT_SECONDS` — its write may be reading
        slab views, so the mappings are left alone rather than closed
        under it.
        """
        if not self._loop.stop(STOP_TIMEOUT_SECONDS):
            busy = self._busy
            doing = ("not yet at the stop request" if busy is None else
                     f"serving {busy[0]!r} (shard {busy[1]!r})")
            raise TimeoutError(
                f"checkpoint funnel {self._loop.name!r}: drain thread "
                f"{doing} after {STOP_TIMEOUT_SECONDS:.0f}s")
        self._client.close_all()

    # ------------------------------------------------------------------
    def _handle(self, _link, request: tuple) -> tuple:
        """Perform one funnel request against the job's store.

        Never raises — errors travel back to the worker in the reply.
        """
        op, job, shard_rank, payload = request
        self._busy = (op, shard_rank)
        try:
            if op == _OP_ARENA:
                if self.arena is None:
                    raise LookupError("this funnel serves no segment arena")
                return ("ok", self.arena.lease(job, payload), None, None)
            base = self._stores.get(job)
            if base is None:
                raise LookupError(f"no store registered for job {job!r}")
            if op == _OP_WRITE:
                target = (base if shard_rank is None
                          else base.shard(shard_rank))
                self._write(target, payload)
                return ("ok", target.last_write_nbytes,
                        target.last_write_kind,
                        getattr(target, "last_write_stats", None))
            if op == _OP_MISSING:
                # the CAS presence handshake: which digests must ship?
                return ("ok", base.cas.missing(payload), KIND_FULL, None)
            if op == _OP_FLUSH:
                base.flush()
                return ("ok", 0, KIND_FULL, None)
            raise ValueError(f"unknown funnel op {op!r}")
        except Exception:  # noqa: BLE001 - worker must not hang on us
            return ("error", traceback.format_exc(), None, None)
        finally:
            self._busy = None

    def _write(self, target: "CheckpointStore", wire: WireSnapshot) -> None:
        """Write straight from read-only slab views, then recycle their
        slots — whether or not the write succeeded."""
        held: list[ShmRef] = []

        def local(value):
            if isinstance(value, ShmRef):
                held.append(value)
                return self._client.view(value)
            return value

        try:
            fields = wire.refs  # a recipe header lists the recipe's fields
            if fields is None:
                fields = {name: local(v) for name, v in wire.fields.items()}
            snap = Snapshot(app=wire.app, safepoint_count=wire.safepoint_count,
                            fields=fields, mode=wire.mode, meta=wire.meta)
            if wire.refs is None:
                target.write(snap)
                return
            # chunk payloads are memoryview slices of the one buffer
            buf = memoryview(b"" if wire.chunks is None
                             else local(wire.chunks))
            chunks, off = {}, 0
            for digest, length in wire.index:
                chunks[digest] = buf[off:off + length]
                off += length
            target.write_chunked(snap.header(KIND_RECIPE), wire.refs, chunks)
        finally:
            for ref in held:
                self._client.release(ref)


class FunnelStore:
    """Worker side: the minimal ``CheckpointStore`` surface a context uses.

    ``link`` is the worker's pipe end, or the funnel listener's
    ``(host, port)``, dialled on first use (after fork).  ``write`` /
    ``flush`` round-trip through the parent; ``shard(rank)`` returns a
    view whose writes land in the job store's shard sub-store over the
    same link.  Reads are parent-only by design — the driver performs
    them — so they raise here.
    """

    def __init__(self, rank: int, link, is_async: bool, depth: int,
                 shard_rank: int | None = None, cas: bool = False,
                 job: str = "") -> None:
        self.rank = rank
        self.job = job
        #: a ``Connection``, or the address to dial into one.
        self._link = link
        #: a TCP peer may sit on another node: no slab descriptors.
        self._tcp = not isinstance(link, Connection)
        #: the store whose link a shard view rides.
        self._root = self
        self._shard_rank = shard_rank
        # shard sub-stores are synchronous in the master implementation;
        # mirror that so the worker's cost accounting branches match.
        self.is_async = is_async and shard_rank is None
        self.writer = _WriterShim(depth) if self.is_async else None
        self.last_write_nbytes = 0
        self.last_write_kind = KIND_FULL
        self.last_write_stats: dict | None = None
        #: the master store is a CAS store: writes go through the
        #: chunk-ref protocol.
        self.chunked = cas
        self._shard_cache: dict[int, FunnelStore] = {}
        #: the rank's shared-memory data plane, wired post-fork by the
        #: worker; honoured only on a pipe link.
        self.plane: "DataPlane | None" = None
        #: the shared segments placement lent this store, as
        #: ``id(view) -> (name, size, view)`` (see :meth:`lend`).
        self._lent: dict = {}

    # ------------------------------------------------------------------
    def shard(self, rank: int) -> "FunnelStore":
        if self._shard_rank is not None:
            raise ValueError("shard stores cannot be sharded again")
        # cached like the master store's shard sub-stores.
        sub = self._shard_cache.get(rank)
        if sub is None:
            sub = FunnelStore(rank=self.rank, link=self._link, is_async=False,
                              depth=0, shard_rank=rank,
                              cas=self.chunked, job=self.job)
            sub._root = self
            self._shard_cache[rank] = sub
        sub.plane = self.plane
        return sub

    def lend(self, segments: list) -> None:
        """Let writes ship views of these
        :class:`~repro.dsm.shm.ShmSegment` objects as borrowed regions
        instead of copies; ``lend([])`` takes them back.

        Placement lends a rank's shared-field segments and takes them
        back when it closes, so the store never pins a mapping past its
        placement (a re-parked rank keeps its store across membership
        segments).  A borrowed ref names the segment's whole size, so
        the parent's attach cache keeps one mapping per segment whatever
        array a job places in it.
        """
        self._lent = {}
        for seg in segments:
            view = seg.ndarray()
            self._lent[id(view)] = (seg.name, seg.size, view)

    def lease_fields(self, specs: list) -> dict[str, str]:
        """Lease one service-arena segment per ``(field, shape, dtype)``
        spec for this store's job; ``{field: segment name}``."""
        return self._rpc(_OP_ARENA, specs)[0]

    # ------------------------------------------------------------------
    def _slabs(self) -> "DataPlane | None":
        """The data plane, if the link can carry slab descriptors."""
        return None if self._root._tcp else self.plane

    def _rpc(self, op: str, payload) -> tuple:
        root = self._root
        if not isinstance(root._link, Connection):  # dial after fork
            root._link = dial(root._link)
        conn = root._link
        conn.send((op, self.job, self._shard_rank, payload))
        if not conn.poll(ACK_TIMEOUT_SECONDS):
            of_job = f" of job {self.job!r}" if self.job else ""
            raise TimeoutError(
                f"checkpoint funnel: no reply to {op!r} for rank "
                f"{self.rank!r}{of_job} within {ACK_TIMEOUT_SECONDS:.0f}s "
                f"(is the parent's funnel thread serving?)")
        status, a, b, stats = conn.recv()
        if status != "ok":
            raise RuntimeError(f"checkpoint funnel failed in parent:\n{a}")
        return a, b, stats

    def _send_write(self, snap: "Snapshot", **body) -> int:
        nbytes, kind, stats = self._rpc(_OP_WRITE, WireSnapshot(
            app=snap.app, safepoint_count=snap.safepoint_count,
            mode=snap.mode, meta=snap.meta, **body))
        self.last_write_nbytes = nbytes
        self.last_write_kind = kind
        self.last_write_stats = stats
        return nbytes

    def write(self, snap: "Snapshot") -> None:
        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        if self.chunked:
            nbytes = self._write_chunked(snap)
        else:
            plane = self._slabs()
            if plane is not None:
                plane.start_pack()  # one snapshot = one lease budget
            fields = {name: self._wire_value(value, plane)
                      for name, value in snap.fields.items()}
            nbytes = self._send_write(snap, fields=fields)
        # the funnel round-trip is the worker's real checkpoint-write
        # cost (pack + ship + parent write + reply), over either link.
        if tr.active:
            tr.span(_tc.CKPT_FUNNEL, tw0, a=float(nbytes))

    def _wire_value(self, value, plane: "DataPlane | None"):
        """What crosses the link for one field: a borrowed region of a
        lent segment, else a slab copy (large arrays, with a plane),
        else the value inline.  The synchronous reply bounds both
        borrows (the parent recycles slabs before replying)."""
        lent = self._root._lent
        if lent and isinstance(value, np.ndarray):
            ref = borrow_ref(lent, value)
            if ref is not None:
                count_tier(_ts.SEND_BYTES_BORROW, _ts.SEND_MSGS_BORROW,
                           value.nbytes)
                return ref
        return value if plane is None else plane.pack_exact(value)

    # ------------------------------------------------------------------
    # the chunk-ref write protocol (CAS master store)
    # ------------------------------------------------------------------
    def _write_chunked(self, snap: "Snapshot") -> int:
        tr = trace_writer()
        # 1. cut + hash locally, straight from the fields' memory.
        tc0 = perf_counter() if tr.active else 0.0
        field_refs: dict[str, list] = {}
        payloads: dict[str, memoryview] = {}
        for name, value in snap.fields.items():
            refs = field_refs[name] = []
            for digest, piece in field_chunks(value):
                refs.append((digest, len(piece)))
                payloads.setdefault(digest, piece)
        if tr.active:
            tr.span(_tc.CKPT_CHUNK, tc0,
                    a=float(sum(len(r) for r in field_refs.values())))
        # 2. presence handshake: which digests must actually travel?
        tp0 = perf_counter() if tr.active else 0.0
        ordered = list(payloads)
        missing, _, _ = self._rpc(_OP_MISSING, ordered)
        try:
            nbytes = self._ship(snap, field_refs, payloads, missing)
        except RuntimeError as exc:
            if CAS_CHUNK_MISSING not in str(exc):
                raise
            # the handshake raced a GC in the parent: one retry with
            # every chunk payload aboard settles it.
            nbytes = self._ship(snap, field_refs, payloads, ordered)
        if tr.active:
            tr.span(_tc.CKPT_PACK, tp0, a=float(len(missing)))
        return nbytes

    def _ship(self, snap: "Snapshot", field_refs: dict, payloads: dict,
              needed: list) -> int:
        """One chunked-write RPC carrying the payloads of ``needed``:
        packed straight into one leased slab, or joined inline when no
        slab takes them."""
        chunks: Any = None
        if needed:
            pieces = [payloads[d] for d in needed]
            plane = self._slabs()
            if plane is not None:
                plane.start_pack()
                chunks = plane.pack_pieces(
                    pieces, sum(len(p) for p in pieces))
            if chunks is None:
                chunks = b"".join(pieces)
        return self._send_write(
            snap, refs=field_refs, chunks=chunks,
            index=[(d, len(payloads[d])) for d in needed])

    def flush(self) -> None:
        self._rpc(_OP_FLUSH, None)

    # ------------------------------------------------------------------
    def read(self, *args):
        raise NotImplementedError(
            "checkpoint reads happen in the parent process (PhaseDriver)")

    read_latest = counts = read
