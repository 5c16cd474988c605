"""Cross-process checkpoint funnel: worker writes through the master store.

Worker processes must not write checkpoint files themselves: the master
:class:`~repro.ckpt.store.CheckpointStore` carries state that has to
stay consistent across phases — incremental delta baselines, adaptive
anchor policies, async-writer queues, byte accounting — and it lives in
the parent process, where the :class:`~repro.exec.driver.PhaseDriver`
reads checkpoints back for restarts and adaptations.

So checkpoint traffic is funnelled: a worker-side :class:`FunnelStore`
(the ``store`` its :class:`~repro.core.context.ExecutionContext` sees)
ships each snapshot over a request queue and blocks on a per-rank ack;
the parent-side :class:`CheckpointFunnel` drains requests on a thread
and performs the real ``write``/``flush`` against the master store (or
its per-rank shard sub-store for ``STRATEGY_LOCAL``), acking the bytes
written so the worker's virtual-time accounting matches what a
single-process run would charge.  Restart and adaptation chains then
work identically under every backend: the bytes on disk are produced by
the same store object either way.

Snapshot *bytes* ride the shared-memory data plane when the worker has
one (:class:`~repro.dsm.shm.DataPlane`): large array fields are copied
into leased slabs and the request queue carries only descriptors — the
parent builds the snapshot from read-only views of the slabs, writes
the image straight from them, and recycles the slots once the write has
returned (no store keeps a field value past ``write``).  The write RPC
is synchronous (the worker blocks on the ack), so the slab borrow is
bounded and the field values the parent encodes are exactly the
captured ones; checkpoint bytes are bit-identical with and without the
plane.

When the master store is a :class:`~repro.ckpt.cas.CasCheckpointStore`
the funnel speaks **chunk refs** instead of snapshots: the worker
chunks and hashes its fields locally (skipping unchanged fields via a
value-hash baseline), asks the parent which digests its CAS lacks
(``_OP_MISSING`` — the presence handshake), and ships *only those
chunk payloads* with the recipe.  Replicated SafeData and halo/stale
regions other ranks already funnelled are never transferred at all —
cross-rank dedup happens on the wire, not just on the disk.  The
parent digest-verifies every shipped chunk before storing it; if a
referenced chunk vanished between handshake and write (a GC race) the
ack carries a ``CAS_CHUNK_MISSING`` marker and the worker retries once
with every chunk payload inline.
"""

from __future__ import annotations

import queue as _queue
import threading
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any

from repro.ckpt.snapshot import FORMAT_VERSION, KIND_FULL, KIND_RECIPE, Snapshot
from repro.dsm.shm import PoolClient, ShmRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckpt.chunker import ChunkParams
    from repro.ckpt.store import CheckpointStore
    from repro.dsm.shm import DataPlane

_OP_WRITE = "write"
_OP_FLUSH = "flush"
_OP_STOP = "stop"
_OP_MISSING = "missing"

#: marker the parent's ChunkCorrupt carries when a handshake raced GC;
#: the worker sees it in the error ack and retries with all chunks.
CAS_CHUNK_MISSING = "CAS_CHUNK_MISSING"

#: how long the drain thread blocks on an empty request queue before
#: polling again.  An idle funnel is not an orphaned one — a service
#: can sit between jobs for hours — so the thread only ever leaves on
#: ``_OP_STOP``.
IDLE_POLL_SECONDS = 600.0
#: how long a worker waits for the parent's reply to one request.
ACK_TIMEOUT_SECONDS = 120.0
#: how long ``CheckpointFunnel.stop`` waits for the drain thread.
STOP_TIMEOUT_SECONDS = 30.0


def funnel_shape(store: "CheckpointStore") -> dict:
    """What a worker-side :class:`FunnelStore` must mirror of the
    master store, as its keyword arguments: the async writer's view
    for the cost model, and the CAS boundary policy when the master
    is a chunk store (writes then speak the chunk-ref protocol)."""
    return {"is_async": store.is_async,
            "depth": store.writer.depth if store.is_async else 0,
            "chunk_params": getattr(store, "chunk_params", None)}


@dataclass
class PackedSnapshot:
    """A snapshot whose large array fields travelled as slab refs.

    Only C-contiguous non-object arrays are packed — everything else
    stays inline — so the parent's views of the slabs encode to
    bit-identical checkpoint bytes.
    """

    app: str
    safepoint_count: int
    mode: str
    meta: dict[str, Any]
    fields: dict[str, Any] = field(default_factory=dict)

    @staticmethod
    def pack(snap: Snapshot, plane: "DataPlane") -> "PackedSnapshot":
        plane.start_pack()  # one snapshot = one lease budget
        fields = {name: plane.pack_exact(value)
                  for name, value in snap.fields.items()}
        return PackedSnapshot(app=snap.app,
                              safepoint_count=snap.safepoint_count,
                              mode=snap.mode, meta=snap.meta, fields=fields)


@dataclass
class ChunkedSnapshot:
    """A worker-chunked checkpoint: recipe refs + missing chunk payloads.

    ``field_refs`` is the complete recipe (field -> ordered
    ``(digest, length)`` refs); only the chunks the parent's presence
    handshake reported absent travel with it.  Inline transport carries
    them as ``chunks`` (digest -> bytes); with a data plane they ride
    one concatenated slab buffer (``chunk_data`` + the ``chunk_index``
    that slices it back apart).
    """

    app: str
    safepoint_count: int
    mode: str
    meta: dict[str, Any]
    field_refs: dict[str, list]
    chunks: dict[str, bytes] | None = None
    chunk_index: list | None = None
    chunk_data: Any = None

    def header(self) -> dict:
        return {
            "version": FORMAT_VERSION,
            "kind": KIND_RECIPE,
            "app": self.app,
            "safepoint_count": self.safepoint_count,
            "mode": self.mode,
            "meta": self.meta,
            "fields": list(self.field_refs),
        }

    def resolve_chunks(self, client: PoolClient) -> dict[str, bytes]:
        """The shipped chunk payloads, whichever way they travelled."""
        if self.chunks is not None:
            return self.chunks
        if not self.chunk_index:
            return {}
        data = self.chunk_data
        if isinstance(data, ShmRef):
            data = client.fetch(data)
        buf = data.tobytes() if hasattr(data, "tobytes") else bytes(data)
        out, off = {}, 0
        for digest, length in self.chunk_index:
            out[digest] = buf[off:off + length]
            off += length
        return out


@dataclass
class _WriterShim:
    """Enough of ``AsyncCheckpointWriter`` for the cost model's view."""

    depth: int


class CheckpointFunnel:
    """Parent side: drains worker checkpoint requests into the store."""

    def __init__(self, store: "CheckpointStore", mpctx, nranks: int) -> None:
        self.store = store
        self.requests = mpctx.Queue()
        self.acks = [mpctx.Queue() for _ in range(nranks)]
        self._thread: threading.Thread | None = None
        #: attach cache over the workers' slab rings (the parent writes
        #: from views through it).
        self._client = PoolClient()
        #: ``(op, shard rank)`` of the request being served, else None.
        self._busy: tuple | None = None

    # ------------------------------------------------------------------
    def client(self, rank: int) -> "FunnelStore":
        """The store stand-in to hand to worker ``rank``."""
        return FunnelStore(rank=rank, requests=self.requests,
                           ack=self.acks[rank], **funnel_shape(self.store))

    def start(self) -> None:
        """Begin serving; call *after* worker processes are spawned so a
        fork cannot duplicate the drain thread into a child."""
        self._thread = threading.Thread(target=self._serve, daemon=True,
                                        name="ckpt-funnel")
        self._thread.start()

    def stop(self) -> None:
        """Stop serving once every worker has exited; idempotent.

        Raises :class:`TimeoutError` if the drain thread is still busy
        after :data:`STOP_TIMEOUT_SECONDS` — its write may be reading
        slab views, so the mappings are left alone rather than closed
        under it.
        """
        if self._thread is None:
            return
        self.requests.put((_OP_STOP, 0, None, None))
        self._thread.join(timeout=STOP_TIMEOUT_SECONDS)
        if self._thread.is_alive():
            busy = self._busy
            doing = ("not yet at the stop request" if busy is None else
                     f"serving {busy[0]!r} (shard {busy[1]!r})")
            raise TimeoutError(
                f"checkpoint funnel {self._thread.name!r}: drain thread "
                f"{doing} after {STOP_TIMEOUT_SECONDS:.0f}s")
        self._thread = None
        self._client.close_all()

    # ------------------------------------------------------------------
    def _handle(self, op: str, shard_rank, payload,
                store: "CheckpointStore | None" = None) -> tuple:
        """Perform one funnel request against the master store.

        Transport-independent: the queue drain below and the framed-TCP
        drain in :class:`SocketCheckpointFunnel` both feed it.  Never
        raises — errors travel back to the worker in the reply.

        ``store`` substitutes another destination for this one request —
        the service's fleet funnel routes each job's traffic to that
        job's namespaced sub-store through here.
        """
        base = self.store if store is None else store
        self._busy = (op, shard_rank)
        try:
            if op == _OP_WRITE:
                target = (base if shard_rank is None
                          else base.shard(shard_rank))
                if isinstance(payload, ChunkedSnapshot):
                    target.write_chunked(payload.header(),
                                         payload.field_refs,
                                         payload.resolve_chunks(self._client))
                elif isinstance(payload, PackedSnapshot):
                    self._write_from_slabs(target, payload)
                else:
                    target.write(payload)
                return ("ok", target.last_write_nbytes,
                        target.last_write_kind,
                        getattr(target, "last_write_stats", None))
            if op == _OP_MISSING:
                # the CAS presence handshake: which digests must ship?
                cas = getattr(base, "cas", None)
                if cas is None:
                    return ("error", "master store has no CAS", None, None)
                return ("ok", cas.missing(payload), KIND_FULL, None)
            if op == _OP_FLUSH:
                base.flush()
                return ("ok", 0, KIND_FULL, None)
            return ("error", f"unknown funnel op {op!r}", None, None)
        except Exception:  # noqa: BLE001 - worker must not hang on us
            return ("error", traceback.format_exc(), None, None)
        finally:
            self._busy = None

    def _write_from_slabs(self, target: "CheckpointStore",
                          packed: PackedSnapshot) -> None:
        """Write a packed snapshot straight from read-only slab views,
        then recycle its slots — whether or not the write succeeded."""
        refs = [v for v in packed.fields.values() if isinstance(v, ShmRef)]
        try:
            fields = {name: self._client.view(v) if isinstance(v, ShmRef)
                      else v for name, v in packed.fields.items()}
            target.write(Snapshot(app=packed.app,
                                  safepoint_count=packed.safepoint_count,
                                  fields=fields, mode=packed.mode,
                                  meta=packed.meta))
        finally:
            for ref in refs:
                self._client.release(ref)

    def _pending(self):
        """Every request up to ``_OP_STOP`` — however long the queue
        sits idle in between (``stop()`` is in every owner's
        ``finally``, and the thread is a daemon)."""
        while True:
            try:
                req = self.requests.get(timeout=IDLE_POLL_SECONDS)
            except _queue.Empty:
                continue
            if req[0] == _OP_STOP:
                return
            yield req

    def _serve(self) -> None:
        for op, rank, shard_rank, payload in self._pending():
            self.acks[rank].put(self._handle(op, shard_rank, payload))


class FunnelStore:
    """Worker side: the minimal ``CheckpointStore`` surface a context uses.

    ``write``/``flush`` round-trip through the parent; ``shard(rank)``
    returns a view whose writes land in the master store's shard
    sub-store.  Reads are parent-only by design — the driver performs
    them — so they raise here.
    """

    def __init__(self, rank: int, requests, ack, is_async: bool,
                 depth: int, shard_rank: int | None = None,
                 chunk_params: "ChunkParams | None" = None) -> None:
        self.rank = rank
        self._requests = requests
        self._ack = ack
        self._shard_rank = shard_rank
        # shard sub-stores are synchronous in the master implementation;
        # mirror that so the worker's cost accounting branches match.
        self._is_async = is_async and shard_rank is None
        self.writer = _WriterShim(depth) if self._is_async else None
        self.last_write_nbytes = 0
        self.last_write_kind = KIND_FULL
        self.last_write_stats: dict | None = None
        #: when the master store is a CAS store this is its boundary
        #: policy and writes go through the chunk-ref protocol.
        self.chunk_params = chunk_params
        #: worker-side change-detection baseline, mirroring the CAS
        #: store's: field -> (value hash, refs).  Skips re-chunking and
        #: re-hashing fields that didn't move between checkpoints.
        self._cas_base: dict[str, tuple[bytes, list]] = {}
        self._shard_cache: dict[int, FunnelStore] = {}
        #: the rank's shared-memory data plane, wired post-fork by the
        #: worker (the client objects themselves are built pre-fork).
        self.plane: "DataPlane | None" = None

    # ------------------------------------------------------------------
    @property
    def is_async(self) -> bool:
        return self._is_async

    def shard(self, rank: int) -> "FunnelStore":
        if self._shard_rank is not None:
            raise ValueError("shard stores cannot be sharded again")
        # cached so the shard's chunk baseline survives across
        # checkpoints, like the master store's cached shard sub-stores.
        sub = self._shard_cache.get(rank)
        if sub is None:
            sub = self._make_shard(rank)
            self._shard_cache[rank] = sub
        sub.plane = self.plane
        return sub

    def _make_shard(self, rank: int) -> "FunnelStore":
        return FunnelStore(rank=self.rank, requests=self._requests,
                           ack=self._ack, is_async=False, depth=0,
                           shard_rank=rank, chunk_params=self.chunk_params)

    # ------------------------------------------------------------------
    def _rpc(self, op: str, payload) -> tuple:
        self._requests.put((op, self.rank, self._shard_rank, payload))
        try:
            status, a, b, stats = self._ack.get(timeout=ACK_TIMEOUT_SECONDS)
        except _queue.Empty:
            raise TimeoutError(
                f"checkpoint funnel: no reply to {op!r} for "
                f"{self.rank!r} within {ACK_TIMEOUT_SECONDS:.0f}s (is the "
                f"parent's drain thread serving?)") from None
        if status != "ok":
            raise RuntimeError(f"checkpoint funnel failed in parent:\n{a}")
        return a, b, stats

    def write(self, snap: "Snapshot") -> None:
        from repro.trace import schema as _tc
        from repro.trace.plane import tracer as trace_writer

        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        if self.chunk_params is not None:
            nbytes = self._write_chunked(snap)
            if tr.active:
                tr.span(_tc.CKPT_FUNNEL, tw0, a=float(nbytes))
            return
        payload: "Snapshot | PackedSnapshot" = snap
        if self.plane is not None:
            # large array fields ride slabs; the synchronous ack below
            # bounds the lease (the parent recycles before replying).
            payload = PackedSnapshot.pack(snap, self.plane)
        nbytes, kind, stats = self._rpc(_OP_WRITE, payload)
        self.last_write_nbytes = nbytes
        self.last_write_kind = kind
        self.last_write_stats = stats
        # the funnel round-trip is the worker's real checkpoint-write
        # cost (pack + ship + parent write + ack); covers the framed-TCP
        # variant too, which only overrides ``_rpc``.
        if tr.active:
            tr.span(_tc.CKPT_FUNNEL, tw0, a=float(nbytes))

    # ------------------------------------------------------------------
    # the chunk-ref write protocol (CAS master store)
    # ------------------------------------------------------------------
    def _write_chunked(self, snap: "Snapshot") -> int:
        from repro.ckpt.chunker import chunk_refs
        from repro.ckpt.delta import content_hash_value
        from repro.trace import schema as _tc
        from repro.trace.plane import tracer as trace_writer
        from repro.util.serialization import dumps_portable

        tr = trace_writer()
        # 1. chunk + hash locally, skipping unchanged fields.
        tc0 = perf_counter() if tr.active else 0.0
        field_refs: dict[str, list] = {}
        blobs: dict[str, bytes] = {}
        new_base: dict[str, tuple[bytes, list]] = {}
        for name, value in snap.fields.items():
            vhash = content_hash_value(value)
            cached = self._cas_base.get(name)
            if cached is not None and cached[0] == vhash:
                refs = cached[1]
            else:
                blob = dumps_portable(value)
                blobs[name] = blob
                refs = [(d, b - a)
                        for d, a, b in chunk_refs(blob, self.chunk_params)]
            field_refs[name] = refs
            new_base[name] = (vhash, refs)
        if tr.active:
            tr.span(_tc.CKPT_CHUNK, tc0,
                    a=float(sum(len(r) for r in field_refs.values())))
        # 2. presence handshake: which digests must actually travel?
        tp0 = perf_counter() if tr.active else 0.0
        ordered: list[str] = []
        seen: set[str] = set()
        for refs in field_refs.values():
            for d, _ in refs:
                if d not in seen:
                    seen.add(d)
                    ordered.append(d)
        missing, _, _ = self._rpc(_OP_MISSING, ordered)
        try:
            nbytes, kind, stats = self._ship(snap, field_refs, blobs,
                                             set(missing))
        except RuntimeError as exc:
            if CAS_CHUNK_MISSING not in str(exc):
                raise
            # the handshake raced a GC in the parent: one retry with
            # every chunk payload aboard settles it.
            nbytes, kind, stats = self._ship(snap, field_refs, blobs, seen)
        if tr.active:
            tr.span(_tc.CKPT_PACK, tp0, a=float(len(missing)))
        self.last_write_nbytes = nbytes
        self.last_write_kind = kind
        self.last_write_stats = stats
        self._cas_base = new_base
        return nbytes

    def _ship(self, snap: "Snapshot", field_refs: dict, blobs: dict,
              needed: set) -> tuple:
        """One chunked-write RPC carrying the payloads in ``needed``."""
        from repro.util.serialization import dumps_portable

        payloads: dict[str, bytes] = {}
        for name, refs in field_refs.items():
            if not any(d in needed and d not in payloads for d, _ in refs):
                continue
            blob = blobs.get(name)
            if blob is None:
                # an unchanged (baseline-cached) field whose chunk the
                # parent nonetheless lacks: re-encode to slice it out.
                blob = dumps_portable(snap.fields[name])
            mv, off = memoryview(blob), 0
            for d, ln in refs:
                if d in needed and d not in payloads:
                    payloads[d] = bytes(mv[off:off + ln])
                off += ln
        cs = ChunkedSnapshot(app=snap.app,
                             safepoint_count=snap.safepoint_count,
                             mode=snap.mode, meta=snap.meta,
                             field_refs=field_refs)
        if self.plane is not None and payloads:
            import numpy as np

            # missing chunks ride the slab plane as one packed buffer.
            self.plane.start_pack()
            index = [(d, len(p)) for d, p in payloads.items()]
            buf = np.frombuffer(b"".join(payloads[d] for d, _ in index),
                                dtype=np.uint8)
            cs.chunk_index = index
            cs.chunk_data = self.plane.pack_exact(buf)
        else:
            cs.chunks = payloads
        return self._rpc(_OP_WRITE, cs)

    def flush(self) -> None:
        self._rpc(_OP_FLUSH, None)

    # ------------------------------------------------------------------
    def read(self, count: int):
        raise NotImplementedError(
            "checkpoint reads happen in the parent process (PhaseDriver)")

    def read_latest(self):
        raise NotImplementedError(
            "checkpoint reads happen in the parent process (PhaseDriver)")

    def counts(self) -> list[int]:
        raise NotImplementedError(
            "checkpoint listings happen in the parent process (PhaseDriver)")


# ---------------------------------------------------------------------------
# the framed-TCP funnel variant (sockets backend)
# ---------------------------------------------------------------------------
class SocketCheckpointFunnel(CheckpointFunnel):
    """Checkpoint funnel over length-prefixed TCP frames.

    The sockets backend's workers model ranks on *other physical
    nodes*, so their checkpoint traffic rides the same wire fabric as
    their collectives: each worker keeps one lazy connection to the
    parent's listener (bound pre-fork, so the address is picklable into
    the task) and exchanges framed request/reply pickles.  Requests
    from different ranks arrive on different connections; a lock
    serialises them into the (single-threaded) master store exactly as
    the queue drain does, so the bytes on disk are identical.
    """

    def __init__(self, store: "CheckpointStore", mpctx, nranks: int,
                 bind_host: str = "127.0.0.1") -> None:
        import socket

        self.store = store
        self._client = PoolClient()  # kept for interface parity (unused:
        # socket payloads are always inline, never slab descriptors)
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((bind_host, 0))
        self._listener.listen()
        # bounded accept wait: stop() cannot count on a cross-thread
        # listener close interrupting a blocking accept().
        self._listener.settimeout(0.25)
        #: (host, port) the workers' stores dial.
        self.address: tuple[str, int] = self._listener.getsockname()
        self._thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []
        self._conns: list = []

    def client(self, rank: int) -> "SocketFunnelStore":
        return SocketFunnelStore(rank=rank, address=self.address,
                                 **funnel_shape(self.store))

    def start(self) -> None:
        self._thread = threading.Thread(target=self._accept_loop,
                                        daemon=True, name="ckpt-funnel-sk")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in self._conns:  # unblock serve threads parked in recv
            try:
                conn.shutdown(2)  # SHUT_RDWR
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self._thread.join(timeout=10.0)
        self._thread = None
        for t in self._conn_threads:
            t.join(timeout=5.0)
        self._client.close_all()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        import socket as _socket

        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except _socket.timeout:
                continue
            except OSError:
                return  # listener closed: shutdown
            self._conns.append(conn)
            t = threading.Thread(target=self._serve_conn, args=(conn,),
                                 daemon=True, name="ckpt-funnel-conn")
            t.start()
            self._conn_threads.append(t)

    def _serve_conn(self, conn) -> None:
        import pickle

        from repro.dsm.socketmail import _LEN, _recv_exact

        with conn:
            while not self._stopping.is_set():
                head = _recv_exact(conn, _LEN.size)
                if head is None:
                    return  # worker exited; its connection died with it
                blob = _recv_exact(conn, _LEN.unpack(head)[0])
                if blob is None:
                    return
                op, _rank, shard_rank, payload = pickle.loads(blob)
                with self._lock:  # the master store is single-threaded
                    reply = self._handle(op, shard_rank, payload)
                out = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
                try:
                    conn.sendall(_LEN.pack(len(out)) + out)
                except OSError:
                    return


class SocketFunnelStore(FunnelStore):
    """Worker side of the framed-TCP funnel: ``_rpc`` over one socket.

    Checkpoint payloads always travel inline — a shared-memory slab
    descriptor is meaningless on another physical node, so the
    ``plane`` attach the worker performs post-fork is deliberately
    swallowed (the property below).  Checkpoint bytes stay identical:
    plane on/off parity is a proven invariant of the queue funnel.
    """

    def __init__(self, rank: int, address: tuple[str, int], is_async: bool,
                 depth: int, shard_rank: int | None = None,
                 chunk_params: "ChunkParams | None" = None) -> None:
        super().__init__(rank=rank, requests=None, ack=None,
                         is_async=is_async, depth=depth,
                         shard_rank=shard_rank, chunk_params=chunk_params)
        self._address = address
        self._conn = None  # lazy: dialled post-fork on first RPC

    @property
    def plane(self) -> "DataPlane | None":
        return None

    @plane.setter
    def plane(self, value) -> None:  # noqa: ARG002 - see class docstring
        pass

    def _make_shard(self, rank: int) -> "SocketFunnelStore":
        return SocketFunnelStore(rank=self.rank, address=self._address,
                                 is_async=False, depth=0, shard_rank=rank,
                                 chunk_params=self.chunk_params)

    def _rpc(self, op: str, payload) -> tuple:
        import pickle
        import socket

        from repro.dsm.socketmail import _LEN, _recv_exact

        if self._conn is None:
            self._conn = socket.create_connection(self._address,
                                                  timeout=30.0)
            self._conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        blob = pickle.dumps((op, self.rank, self._shard_rank, payload),
                            protocol=pickle.HIGHEST_PROTOCOL)
        self._conn.sendall(_LEN.pack(len(blob)) + blob)
        head = _recv_exact(self._conn, _LEN.size)
        body = None if head is None \
            else _recv_exact(self._conn, _LEN.unpack(head)[0])
        if body is None:
            raise RuntimeError("checkpoint funnel connection closed")
        status, a, b, stats = pickle.loads(body)
        if status != "ok":
            raise RuntimeError(f"checkpoint funnel failed in parent:\n{a}")
        return a, b, stats
