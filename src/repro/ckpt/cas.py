"""The checkpoint object store: chunk recipes over a dedup CAS.

:class:`CasCheckpointStore` keeps checkpoint *payloads* out of the
checkpoint *files*.  Each field's portable encoding is cut into a
header chunk and fixed 4 KiB data blocks (:mod:`repro.ckpt.chunker`),
hashed straight from the field's memory, and the pieces land in a
:class:`ChunkStore`, keyed by content digest.  The checkpoint
file itself becomes a **recipe**: the ordinary checkpoint container
with no sections, whose header maps every field to its ordered
``(digest, length)`` chunk refs.

What that buys over the delta store:

* **sub-field writes** — touch one array element and only the block
  holding it gets a new digest; the rest of the field re-references bytes
  already on disk.  The delta store's unit of change is a whole field.
* **cross-everything dedup** — the CAS is shared by the master store,
  its per-rank shards, and every job namespace in the directory.  A
  STRATEGY_LOCAL save writes one full-shape array per rank; the
  regions a rank doesn't own are byte-identical across shards and
  store once.  A second job checkpointing the same state stores almost
  nothing.
* **self-contained restores** — a recipe needs no chain: any recipe
  plus the CAS is a complete state, so corruption never cascades.

Every write hashes every block once; there is no separate
change-detection pass.  A value hash of an unchanged field would cost
as much as hashing its blocks, and the CAS index already drops every
block it holds, so unchanged bytes are never stored twice.

On disk the CAS is a directory of **packs**: everything one checkpoint
write adds goes out as a single self-describing file — an entry table
(digest, storage flags, stored length per entry) followed by the stored
payloads — through one :func:`~repro.ckpt.writer.atomic_write_bytes`.
One durable write per checkpoint, not one per chunk.

Durability ordering: the pack is durable before the recipe that
references it is published, so a crash can orphan entries but never
publish a recipe with missing bytes.  Orphans are reclaimed by
:meth:`CasCheckpointStore.gc` — mark (scan every recipe file in the
directory, namespaces and shards included) and sweep (unlink packs
nothing references, rewrite partly-live ones).  One store-wide lock,
owned by the shared :class:`ChunkStore`, is held across "pack durable →
recipe published" and across "mark → sweep": a GC from one namespace
can never sweep the entries another namespace has made durable but not
yet referenced.  The in-memory refcounts are bookkeeping for the stats
surface; the disk scan is authoritative, so GC is correct across
process restarts and crashes.  GC runs on anchor retirement
(:meth:`prune`/:meth:`clear`) and on service job-namespace teardown.

Restores copy once (:class:`RecipeRecord`): an array field's header
chunk sizes the restored array, and its data blocks are read with
``os.preadv`` straight into their slices of it, pack by pack in disk
order.  Every chunk is digest-verified where it lands (after
decompression, for a compressed entry), so a flipped bit on disk is
detected *per chunk* and named per field (:meth:`verify`);
``read_latest`` then degrades to the previous checkpoint exactly as it
does for a torn full snapshot.
"""

from __future__ import annotations

import hashlib
import os
import re
import struct
import threading
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable

import numpy as np

from repro.ckpt.chunker import DIGEST_SIZE, chunk_digest, field_chunks
from repro.ckpt.restore import (
    MemoryRecord,
    Record,
    overlaps,
    preadv_all,
    sized_header,
)
from repro.ckpt.snapshot import (
    KIND_FULL,
    KIND_RECIPE,
    Snapshot,
    SnapshotCorrupt,
    decode_envelope,
    encode_container,
    image_nbytes,
)
from repro.ckpt.store import CheckpointStore
from repro.ckpt.writer import atomic_write_bytes
from repro.util.serialization import (
    loads_portable,
    pack_section,
    unpack_section,
)

#: any recipe/checkpoint file in a shared directory — master, namespaced
#: and sharded forms alike.  GC's mark phase scans them all: the CAS
#: under a directory is one store for every sub-store above it.
_ANY_PCR_RE = re.compile(r"^ckpt_\d{9}(\.j\w+)?(\.r\d+)?\.pcr$")

#: pack file: head (magic, entry count), then ``count`` table entries
#: (binary digest, storage flags, stored length), then the stored
#: payloads back to back in table order.  The table sits at the head so
#: opening a store reads tables, never payloads.
_PACK_MAGIC = b"PPK1"
_PACK_HEAD = struct.Struct("<4sI")
_PACK_ENTRY = struct.Struct(f"<{DIGEST_SIZE}sBI")
_PACK_SUFFIX = ".pack"


class ChunkCorrupt(SnapshotCorrupt):
    """A chunk is missing, torn, or fails its content digest."""


def _absent(digest: str) -> ChunkCorrupt:
    return ChunkCorrupt(f"chunk {digest} missing from CAS")


def _disk_runs(entries: list) -> Iterable[list]:
    """Group offset-ordered ``(offset, length, flags, ...)`` pack entries
    into runs read back to back (:func:`preadv_all`): raw entries that
    are contiguous on disk; a compressed entry is a run of its own."""
    run: list = []
    end = -1
    for entry in entries:
        if run and (entry[2] or run[0][2] or entry[0] != end):
            yield run
            run = []
        run.append(entry)
        end = entry[0] + entry[1]
    if run:
        yield run


class ChunkStore:
    """Content-addressed chunks in append-only pack files under ``<dir>``.

    A batch of new chunks (:meth:`put_many` — one checkpoint write)
    becomes one pack, written atomically; a pack is never modified
    afterwards, only unlinked or superseded by :meth:`sweep`.  The
    ``digest -> (pack, offset, length, flags)`` index lives in memory
    and is rebuilt from the pack tables on first use, so presence
    checks and dedup hits are dict lookups.  An entry a truncated pack
    no longer fully holds is simply absent.  Reads are digest-verified
    after undoing the storage transform.

    Thread-safe: every method takes :attr:`lock`, the one in-process
    lock the recipe stores above also hold across publish and GC.  One
    store object per directory per process is the supported shape.
    """

    def __init__(self, directory: str | os.PathLike,
                 compress_min_bytes: int | None = None) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.compress_min_bytes = compress_min_bytes
        #: store-wide lock (re-entrant: the recipe store holds it around
        #: calls back into this class).
        self.lock = threading.RLock()
        #: digest -> (pack file name, payload offset, stored length,
        #: flags); None until first use.
        self._index: dict[str, tuple[str, int, int, int]] | None = None
        #: pack file name -> entries in its table (live or not).
        self._packs: dict[str, int] = {}
        #: live references: digest -> times referenced by written
        #: recipes.  Advisory (rebuilt by every GC mark phase).
        self._refs: Counter[str] = Counter()
        # cumulative traffic counters (the telemetry surface).
        self.chunks_stored = 0
        self.bytes_stored = 0
        self.chunks_deduped = 0
        self.bytes_deduped = 0
        self.chunks_swept = 0
        self.bytes_swept = 0

    # ------------------------------------------------------------------
    # the index
    # ------------------------------------------------------------------
    def _entries(self) -> dict[str, tuple[str, int, int, int]]:
        """The index, built on first use.  Caller holds :attr:`lock`."""
        if self._index is None:
            self._index = {}
            self._scan()
        return self._index

    def _scan(self) -> None:
        """Index every pack on disk this object has not seen yet."""
        for name in sorted(os.listdir(self.dir)):
            if name.endswith(_PACK_SUFFIX) and name not in self._packs:
                self._load_pack(name)

    def _load_pack(self, name: str) -> None:
        """Read one pack's table (not its payloads) into the index.

        A pack whose head or table does not parse holds nothing
        fetchable: it registers with zero entries, so the next sweep
        unlinks it.
        """
        self._packs[name] = 0
        try:
            with open(self.dir / name, "rb") as fh:
                size = os.fstat(fh.fileno()).st_size
                head = fh.read(_PACK_HEAD.size)
                if len(head) < _PACK_HEAD.size:
                    return
                magic, count = _PACK_HEAD.unpack(head)
                table_nbytes = count * _PACK_ENTRY.size
                if magic != _PACK_MAGIC \
                        or _PACK_HEAD.size + table_nbytes > size:
                    return
                table = fh.read(table_nbytes)
        except OSError:
            return
        self._packs[name] = count
        offset = _PACK_HEAD.size + table_nbytes
        for raw, flags, length in _PACK_ENTRY.iter_unpack(table):
            if offset + length <= size:  # a torn tail is an absent entry
                self._index[raw.hex()] = (name, offset, length, flags)
            offset += length

    def _write_pack(self, entries: list[tuple[str, int, Any]]) -> int:
        """One durable pack of ``(digest, flags, stored)``; its size.

        Named by its table's hash, so identical batches race to
        identical files.  Caller holds :attr:`lock`.
        """
        table = b"".join(
            _PACK_ENTRY.pack(bytes.fromhex(digest), flags, len(stored))
            for digest, flags, stored in entries)
        name = hashlib.blake2b(table, digest_size=8).hexdigest() \
            + _PACK_SUFFIX
        atomic_write_bytes(self.dir / name,
                           [_PACK_HEAD.pack(_PACK_MAGIC, len(entries)), table,
                            *(stored for _, _, stored in entries)])
        offset = _PACK_HEAD.size + len(table)
        for digest, flags, stored in entries:
            self._index[digest] = (name, offset, len(stored), flags)
            offset += len(stored)
        self._packs[name] = len(entries)
        return offset

    # ------------------------------------------------------------------
    def has(self, digest: str) -> bool:
        with self.lock:
            return digest in self._entries()

    def missing(self, digests: Iterable[str]) -> list[str]:
        """The subset of ``digests`` not yet stored (order kept, deduped)."""
        with self.lock:
            index = self._entries()
            return [d for d in dict.fromkeys(digests) if d not in index]

    def locate(self, digest: str) -> tuple[Path, int, int]:
        """``(file, offset, length)`` of one chunk's stored payload."""
        with self.lock:
            try:
                name, offset, length, _ = self._entries()[digest]
            except KeyError:
                raise _absent(digest) from None
            return self.dir / name, offset, length

    def digests(self) -> set[str]:
        """Every chunk currently stored."""
        with self.lock:
            return set(self._entries())

    # ------------------------------------------------------------------
    def put_many(self, chunks: Iterable[tuple[str, Any]]
                 ) -> list[tuple[bool, int]]:
        """Store a batch as one durable pack.

        Returns ``(newly_stored, stored_nbytes)`` per chunk, in order.
        A digest the index already holds — or an earlier item of this
        batch carries — is a dedup hit: it is dropped, never appended,
        and its raw length counts as bytes saved.  ``stored_nbytes`` is
        the entry's on-disk footprint (table entry + stored payload).
        """
        with self.lock:
            index = self._entries()
            out: list[tuple[bool, int]] = []
            fresh: dict[str, int] = {}
            entries: list[tuple[str, int, Any]] = []
            for digest, payload in chunks:
                known = index.get(digest)
                length = fresh.get(digest) if known is None else known[2]
                if length is not None:
                    self.chunks_deduped += 1
                    self.bytes_deduped += len(payload)
                    out.append((False, _PACK_ENTRY.size + length))
                    continue
                flags, stored = pack_section(payload, self.compress_min_bytes)
                fresh[digest] = len(stored)
                entries.append((digest, flags, stored))
                out.append((True, _PACK_ENTRY.size + len(stored)))
            if entries:
                self.chunks_stored += len(entries)
                self.bytes_stored += \
                    self._write_pack(entries) - _PACK_HEAD.size
            return out

    def put(self, digest: str, payload) -> tuple[bool, int]:
        """Store one chunk (a durable one-entry pack); see :meth:`put_many`."""
        return self.put_many([(digest, payload)])[0]

    def fetch_many(self, digests: Iterable[str]
                   ) -> dict[str, tuple[bytes, int] | ChunkCorrupt]:
        """``digest -> (payload, stored_nbytes)``, read in disk order.

        Each pack is opened once and read by ascending offset.  A chunk
        that is absent, torn, or whose decoded bytes no longer hash to
        its digest maps to the :class:`ChunkCorrupt` instead of raising,
        so one bad chunk poisons only what references it — the caller
        decides.  Holds :attr:`lock` throughout: a concurrent sweep
        cannot unlink a pack between lookup and read.
        """
        out: dict[str, Any] = {}
        with self.lock:
            index = self._entries()
            wanted = set(digests)
            if not wanted <= index.keys():
                self._scan()  # another store object may have published
            by_pack: dict[str, list[tuple[int, str]]] = {}
            for digest in wanted:
                loc = index.get(digest)
                if loc is None:
                    out[digest] = _absent(digest)
                else:
                    by_pack.setdefault(loc[0], []).append((loc[1], digest))
            for name in sorted(by_pack):
                try:
                    fd = os.open(self.dir / name, os.O_RDONLY)
                except OSError:
                    out.update((d, _absent(d)) for _, d in by_pack[name])
                    continue
                try:
                    for _, digest in sorted(by_pack[name]):
                        out[digest] = self._read_entry(fd, digest)
                finally:
                    os.close(fd)
        return out

    def _read_entry(self, fd: int, digest: str):
        _, offset, length, flags = self._index[digest]
        try:
            stored = os.pread(fd, length, offset)
        except OSError:
            return _absent(digest)
        try:
            payload = unpack_section(flags, stored)
        except Exception as exc:  # zlib.error on a flipped bit
            return ChunkCorrupt(f"chunk {digest} failed to decode: {exc}")
        if chunk_digest(payload) != digest:
            return ChunkCorrupt(f"chunk {digest} failed content verification")
        return payload, _PACK_ENTRY.size + length

    def fetch(self, digest: str) -> tuple[bytes, int]:
        """One chunk's payload and its stored (on-disk) size.

        Raises :class:`ChunkCorrupt` when the chunk is absent, torn, or
        its decompressed bytes no longer hash to ``digest``.
        """
        got = self.fetch_many([digest])[digest]
        if isinstance(got, ChunkCorrupt):
            raise got
        return got

    def fetch_into(self, targets: list[tuple[str, memoryview]]
                   ) -> dict[str, int | ChunkCorrupt]:
        """Read chunks straight into caller buffers, one ``(digest,
        buffer)`` per destination (a digest may repeat), each buffer the
        chunk's raw length.

        Entries that sit back to back in one pack are read by one
        ``os.preadv``, in disk order; each buffer is then
        digest-verified in place.  A compressed entry is decompressed
        and copied.  Returns ``digest -> stored_nbytes``, or the
        :class:`ChunkCorrupt` of a chunk that is absent, torn or fails
        verification (its buffers then hold garbage).  Holds
        :attr:`lock` throughout, as :meth:`fetch_many` does.
        """
        out: dict[str, Any] = {}
        with self.lock:
            index = self._entries()
            if not all(d in index for d, _ in targets):
                self._scan()  # another store object may have published
            by_pack: dict[str, list] = {}
            for digest, buf in targets:
                loc = index.get(digest)
                if loc is None:
                    out[digest] = _absent(digest)
                else:  # (offset, stored length, flags, digest, buffer)
                    by_pack.setdefault(loc[0], []).append(
                        (loc[1], loc[2], loc[3], digest, buf))
            for name in sorted(by_pack):
                try:
                    fd = os.open(self.dir / name, os.O_RDONLY)
                except OSError:
                    out.update((e[3], _absent(e[3])) for e in by_pack[name])
                    continue
                try:
                    by_pack[name].sort(key=lambda e: e[0])
                    for run in _disk_runs(by_pack[name]):
                        self._read_run(fd, run, out)
                finally:
                    os.close(fd)
        return out

    def _read_run(self, fd: int, run: list, out: dict) -> None:
        """Read one run into its buffers and verify each in place."""
        offset, _, flags, digest, buf = run[0]
        if flags:  # compressed: decode, verify, copy
            got = self._read_entry(fd, digest)
            if not isinstance(got, ChunkCorrupt) and len(got[0]) != len(buf):
                got = ChunkCorrupt(f"chunk {digest} has the wrong length")
            if not isinstance(got, ChunkCorrupt):
                buf[:] = got[0]
                got = got[1]
            out.setdefault(digest, got)
            return
        if any(len(e[4]) != e[1] for e in run):
            for e in run:  # the recipe and the pack disagree
                out.setdefault(e[3], ChunkCorrupt(
                    f"chunk {e[3]} has the wrong length"))
            return
        try:
            whole = preadv_all(fd, [e[4] for e in run], offset)
        except OSError:
            whole = False
        for _, length, _, digest, buf in run:
            if not whole:
                out[digest] = _absent(digest)
            elif chunk_digest(buf) != digest:
                out[digest] = ChunkCorrupt(
                    f"chunk {digest} failed content verification")
            else:
                out.setdefault(digest, _PACK_ENTRY.size + length)

    # ------------------------------------------------------------------
    def incref(self, digests: Iterable[str]) -> None:
        with self.lock:
            self._refs.update(digests)

    def decref(self, digests: Iterable[str]) -> None:
        with self.lock:
            self._refs.subtract(digests)
            self._refs += Counter()  # drop keys at zero

    def refcount(self, digest: str) -> int:
        with self.lock:
            return self._refs[digest]

    # ------------------------------------------------------------------
    def sweep(self, live: set[str]) -> tuple[int, int]:
        """Drop every chunk not in ``live``; ``(chunks, bytes)`` freed.

        A pack with no live entry is unlinked; a partly-live one is
        compacted — its survivors go out as a new durable pack *before*
        the old file is unlinked, so a crash in between leaves a
        duplicate the next sweep removes, never a gap.  The refcounts
        are reset to the mark result — the disk scan, not the counter,
        decides what dies, so a counter lost to a restart can never
        leak or over-free chunks.
        """
        with self.lock:
            index = self._entries()
            held: dict[str, list[str]] = {name: [] for name in self._packs}
            for digest, loc in index.items():
                held[loc[0]].append(digest)
            n = nbytes = 0
            for name in list(held):
                keep = [d for d in held[name] if d in live]
                if keep and len(keep) == self._packs[name]:
                    continue
                path = self.dir / name
                try:
                    fd = os.open(path, os.O_RDONLY)
                except OSError:
                    keep = []  # the file is gone, and its entries with it
                else:
                    try:
                        nbytes += os.fstat(fd).st_size
                        survivors = []
                        for digest in sorted(keep, key=index.__getitem__):
                            _, offset, length, flags = index[digest]
                            survivors.append(
                                (digest, flags, os.pread(fd, length, offset)))
                    finally:
                        os.close(fd)
                if keep:
                    nbytes -= self._write_pack(survivors)
                    # the survivors now live in the new pack, which may
                    # be a file this loop has yet to visit.
                    held[index[keep[0]][0]] = keep
                try:
                    path.unlink()
                except OSError:
                    pass
                del self._packs[name]
                for digest in held[name]:
                    if index[digest][0] == name:
                        del index[digest]
                        n += 1
            self._refs = Counter({d: c for d, c in self._refs.items()
                                  if d in live and c > 0})
            self.chunks_swept += n
            self.bytes_swept += nbytes
            return n, nbytes


class RecipeRecord(Record):
    """A recipe checkpoint opened for a copy-once restore.

    An array field's first chunk carries its ``.npy`` header; the array
    is allocated from it and every data block that lies wholly inside a
    wanted range is read straight into its slice of the array
    (:meth:`ChunkStore.fetch_into`) and digest-verified there.  Blocks
    that straddle a range's edge — or a header chunk that also holds
    data, as older recipes cut — are fetched and their overlap copied.
    Each distinct chunk read counts once in :attr:`fetches`.
    """

    def __init__(self, store: "CasCheckpointStore", header: dict,
                 count: int, nbytes: int) -> None:
        super().__init__(header, nbytes)
        self.store = store
        self.count = count
        self.recipe: dict = header["recipe"]
        self._stored: set[str] = set()
        self._first: dict[str, bytes] = {}
        self._t0 = perf_counter()

    def close(self) -> None:
        st = self.store
        st.last_restore_fetches = self.fetches
        st.restore_fetches_total += self.fetches
        st.restore_seconds_total += perf_counter() - self._t0

    def _lost(self, name: str, exc: Exception) -> SnapshotCorrupt:
        return SnapshotCorrupt(f"field {name!r} of checkpoint {self.count} "
                               f"lost a chunk: {exc}")

    def _refs(self, name: str) -> list:
        refs = self.recipe.get(name)
        if not refs:
            raise SnapshotCorrupt(
                f"field {name!r} missing from recipe {self.count}")
        return refs

    def _account(self, name: str, got: dict) -> None:
        """Raise for a lost chunk; count each chunk's first read."""
        for digest, stored in got.items():
            if isinstance(stored, ChunkCorrupt):
                raise self._lost(name, stored) from stored
            if digest not in self._stored:
                self._stored.add(digest)
                self.nbytes_read += stored
                self.fetches += 1

    def _fetch(self, name: str, digests: set[str]) -> dict[str, bytes]:
        """Payloads of ``digests`` (the first chunk from the cache)."""
        out = {d: self._first[name] for d in digests
               if d == self.recipe[name][0][0] and name in self._first}
        got = self.store.cas.fetch_many(digests - out.keys())
        self._account(name, {d: g if isinstance(g, ChunkCorrupt) else g[1]
                             for d, g in got.items()})
        out.update((d, g[0]) for d, g in got.items())
        return out

    def _head(self, name: str):
        """An array field whose header lies in its first chunk."""
        refs = self._refs(name)
        first = refs[0][0]
        if name not in self._first:
            self._first[name] = self._fetch(name, {first})[first]
        return sized_header(self._first[name], sum(n for _, n in refs),
                            f"field {name!r} of checkpoint {self.count}")

    def _whole(self, name: str) -> Any:
        refs = self._refs(name)
        parts = self._fetch(name, {d for d, _ in refs})
        try:
            return loads_portable(b"".join(parts[d] for d, _ in refs))
        except Exception as exc:
            raise SnapshotCorrupt(
                f"field {name!r} of checkpoint {self.count} failed to "
                f"decode: {exc}") from exc

    def _read_data(self, name: str, start: int, raw: np.ndarray,
                   ranges: list[tuple[int, int]]) -> None:
        """Blocks wholly inside ``ranges`` straight into ``raw``; blocks
        that only overlap them fetched, and the overlap copied."""
        if not ranges:
            return
        refs = self._refs(name)
        hi = np.cumsum([n for _, n in refs]) - start  # data coordinates
        lo = hi - [n for _, n in refs]
        a, b = np.array(ranges).T
        j = np.minimum(np.searchsorted(b, lo, side="right"), len(b) - 1)
        touched = (b[j] > lo) & (a[j] < hi) & (hi > 0)
        inside = touched & (a[j] <= lo) & (b[j] >= hi)
        dest = memoryview(raw)
        los, his = lo.tolist(), hi.tolist()
        self._account(name, self.store.cas.fetch_into(
            [(refs[k][0], dest[los[k]:his[k]])
             for k in np.flatnonzero(inside).tolist()]))
        partial = np.flatnonzero(touched & ~inside).tolist()
        blobs = self._fetch(name, {refs[k][0] for k in partial})
        for k in partial:
            src = np.frombuffer(blobs[refs[k][0]], dtype=np.uint8)
            for p, q in overlaps(ranges, los[k], his[k]):
                raw[p:q] = src[p - los[k]:q - los[k]]


class CasCheckpointStore(CheckpointStore):
    """Checkpoint store writing chunk recipes against a shared CAS.

    Drop-in for :class:`~repro.ckpt.store.CheckpointStore`: same file
    naming, pruning, shard and namespace mechanics — but ``write``
    emits a recipe plus one pack of the chunks the CAS lacks, and
    ``read`` fetches and verifies chunks in disk order.  Shards and
    namespaces share the parent's :class:`ChunkStore`, which is where
    the cross-rank and cross-job dedup comes from — and whose lock
    orders every publish against every GC.
    """

    def __init__(self, directory: str | os.PathLike,
                 compress_min_bytes: int | None = None,
                 shard_suffix: str = "", ns_suffix: str = "",
                 cas: ChunkStore | None = None) -> None:
        super().__init__(directory, compress_min_bytes=compress_min_bytes,
                         shard_suffix=shard_suffix, ns_suffix=ns_suffix)
        self.cas = cas if cas is not None \
            else ChunkStore(self.dir / "cas",
                            compress_min_bytes=compress_min_bytes)
        #: per-write stats (mirrored into telemetry by the context).
        self.last_write_stats: dict[str, int] | None = None
        #: restore-side counters (scraped as runtime gauges).
        self.last_restore_fetches = 0
        self.restore_fetches_total = 0
        self.restore_seconds_total = 0.0

    # ------------------------------------------------------------------
    def _make_shard(self, rank: int) -> "CasCheckpointStore":
        return CasCheckpointStore(
            self.dir, compress_min_bytes=self.compress_min_bytes,
            shard_suffix=f".r{rank}", ns_suffix=self.ns_suffix,
            cas=self.cas)

    def _make_namespace(self, ns_suffix: str) -> "CasCheckpointStore":
        return CasCheckpointStore(
            self.dir, compress_min_bytes=self.compress_min_bytes,
            ns_suffix=ns_suffix, cas=self.cas)

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def write(self, snap: Snapshot) -> Path:
        from repro.trace import schema as _tc
        from repro.trace.plane import tracer as trace_writer

        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        stats = {"chunks_new": 0, "chunks_dedup": 0, "dedup_saved_bytes": 0}
        recipe: dict[str, list[list]] = {}
        chunks: list[tuple[str, memoryview]] = []
        for name, value in snap.fields.items():
            pieces = field_chunks(value)
            recipe[name] = [[d, len(p)] for d, p in pieces]
            chunks += pieces
        with self.cas.lock:
            new_bytes = 0
            for (new, stored), (_, piece) in zip(self.cas.put_many(chunks),
                                                 chunks):
                if new:
                    stats["chunks_new"] += 1
                    new_bytes += stored
                else:
                    stats["chunks_dedup"] += 1
                    stats["dedup_saved_bytes"] += len(piece)
            path = self._commit_recipe(snap.header(KIND_RECIPE), recipe,
                                       snap.safepoint_count, new_bytes, stats)
        if tr.active:
            tr.span(_tc.CKPT_CHUNK, tw0,
                    a=float(stats["chunks_new"]),
                    b=float(stats["chunks_dedup"]))
        return path

    def _commit_recipe(self, header: dict, recipe: dict,
                       count: int, new_chunk_bytes: int,
                       stats: dict[str, int]) -> Path:
        """Persist one recipe + accounting.

        The caller holds the CAS lock since before its pack went out, so
        no sweep can run between "pack durable" and "recipe published".
        """
        header["recipe"] = recipe
        header["fields"] = list(recipe)
        image = encode_container(header, {}, None)
        self.cas.incref(d for refs in recipe.values() for d, _ in refs)
        # what this checkpoint actually cost the disk: the recipe plus
        # only the pack entries that weren't already stored.
        self.last_write_nbytes = image_nbytes(image) + new_chunk_bytes
        self.last_write_kind = KIND_RECIPE
        self.total_bytes_written += self.last_write_nbytes
        self.last_write_stats = dict(stats)
        self._put(self.path_for(count), image)
        return self.path_for(count)

    def write_chunked(self, header: dict, recipe: dict,
                      chunks: dict[str, bytes]) -> Path:
        """Funnel ingest: a worker-chunked recipe + the missing chunks.

        ``chunks`` carries only the payloads the worker's presence
        handshake found absent; each is digest-verified before storage
        (the funnel crosses process/wire boundaries).  Handshakes of
        concurrent ranks race, so some arrive already stored — those
        are dropped against the index, not stored twice.  A referenced
        digest that is neither stored nor shipped — the handshake lost
        a race against GC — raises :class:`ChunkCorrupt`, which the
        worker answers by resending everything.
        """
        stats = {"chunks_new": 0, "chunks_dedup": 0, "dedup_saved_bytes": 0}
        for digest, payload in chunks.items():
            if chunk_digest(payload) != digest:
                raise ChunkCorrupt(
                    f"funnelled chunk {digest} failed content verification")
        with self.cas.lock:
            new_bytes = 0
            for new, stored in self.cas.put_many(chunks.items()):
                if new:
                    stats["chunks_new"] += 1
                    new_bytes += stored
            for name, refs in recipe.items():
                for digest, length in refs:
                    if digest in chunks:
                        continue
                    if not self.cas.has(digest):
                        raise ChunkCorrupt(
                            f"CAS_CHUNK_MISSING: chunk {digest} of field "
                            f"{name!r} vanished between handshake and write")
                    stats["chunks_dedup"] += 1
                    stats["dedup_saved_bytes"] += length
            return self._commit_recipe(header, recipe,
                                       int(header["safepoint_count"]),
                                       new_bytes, stats)

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def open(self, count: int) -> Record:
        data = self.path_for(count).read_bytes()
        header, _sections = decode_envelope(data)
        if header.get("kind", KIND_FULL) != KIND_RECIPE:
            # plain files (a store switched to CAS mid-directory) still
            # read; their payload is inline, not chunked.
            snap = Snapshot.decode(data)
            snap.meta["disk_nbytes"] = len(data)
            return MemoryRecord(snap)
        if not isinstance(header.get("recipe"), dict):
            raise SnapshotCorrupt(f"recipe missing from checkpoint {count}")
        return RecipeRecord(self, header, count, len(data))

    def read(self, count: int) -> Snapshot:
        from repro.trace import schema as _tc
        from repro.trace.plane import tracer as trace_writer

        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        with self.open(count) as rec:
            snap = rec.snapshot()
        if rec.fetches:
            snap.meta["cas_fetches"] = rec.fetches
        if tr.active:
            tr.span(_tc.CKPT_FETCH, tw0, a=float(rec.fetches),
                    b=float(count))
        return snap

    # ------------------------------------------------------------------
    def verify(self, count: int) -> list[str]:
        """Names of fields whose chunks fail verification at ``count``.

        The corruption-isolation contract: damaging one stored chunk
        damages exactly the fields referencing that chunk — everything
        else still restores.
        """
        header, _ = decode_envelope(self.path_for(count).read_bytes())
        if header.get("kind", KIND_FULL) != KIND_RECIPE:
            return []
        recipe = header["recipe"]
        chunks = self.cas.fetch_many(
            d for refs in recipe.values() for d, _ in refs)
        return sorted(
            name for name, refs in recipe.items()
            if any(isinstance(chunks[d], ChunkCorrupt) for d, _ in refs))

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def live_digests(self) -> set[str]:
        """Mark phase: every digest any recipe in the directory needs.

        Scans *all* checkpoint files — other namespaces' and shards'
        included — because the CAS is shared by all of them; a digest is
        dead only when nobody at all references it.
        """
        live: set[str] = set()
        for name in os.listdir(self.dir):
            if not _ANY_PCR_RE.match(name):
                continue
            try:
                header, _ = decode_envelope((self.dir / name).read_bytes())
            except (SnapshotCorrupt, OSError):
                continue  # torn recipe: its refs die with it
            for refs in header.get("recipe", {}).values():
                live.update(d for d, _ in refs)
        return live

    def gc(self) -> tuple[int, int]:
        """Mark-and-sweep unreferenced chunks; ``(chunks, bytes)`` freed.

        Mark and sweep run under the CAS lock, so every write is either
        wholly before (its recipe is marked) or wholly after (its pack
        is not yet on disk) — never pack-durable-but-unreferenced.
        """
        from repro.trace import schema as _tc
        from repro.trace.plane import tracer as trace_writer

        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        with self.cas.lock:
            self.flush()  # recipes queued on an async writer must count
            swept = self.cas.sweep(self.live_digests())
        if tr.active:
            tr.span(_tc.CKPT_GC, tw0, a=float(swept[0]), b=float(swept[1]))
        return swept

    def unreferenced(self) -> set[str]:
        """Stored chunks no recipe references (empty unless GC is due)."""
        with self.cas.lock:
            return self.cas.digests() - self.live_digests()

    def prune(self, keep: int = 1) -> None:
        super().prune(keep)
        self.gc()

    def clear(self) -> None:
        super().clear()
        self.gc()
