"""Copy-once restore: checkpoint bytes land straight in the restored arrays.

A :class:`Record` is a checkpoint whose header has been read and whose
field payloads are still on disk.  ``value(name)`` restores one field.
For a plain array it parses the ``.npy`` header from the payload's first
bytes, allocates the array ``np.load`` would return, reads the data
bytes straight into that array's memory and verifies them there: the
section CRC for a container file (:class:`FileRecord`, with
``os.preadv``), each block's digest for a CAS recipe
(:class:`~repro.ckpt.cas.RecipeRecord`).  Nothing is joined, sliced or
decoded through an intermediate ``bytes``.

``fill(name, raw, ranges)`` reads only some byte ranges of a field's
array data into a caller's buffer.  That is how :func:`assemble` rebuilds
a STRATEGY_LOCAL shard set: each partitioned array is allocated once and
every rank's shard contributes just the rows that rank owned.  A CAS
shard fetches only the blocks overlapping those rows; a container shard
still streams its whole section (the CRC covers all of it), with the
rows it did not own read into a small reused scratch buffer.

zlib-flagged sections, pickled values, version 1/2 files and delta
chains take the decode path: the value is decoded whole, and ``fill``
copies out of it (:class:`MemoryRecord` and the base-class fallbacks).
"""

from __future__ import annotations

import bisect
import math
import os
import zlib
from typing import Any

import numpy as np

from repro.ckpt.snapshot import (
    _HEAD,
    _MAGIC,
    KIND_FULL,
    Snapshot,
    SnapshotCorrupt,
    container_layout,
)
from repro.util.serialization import (
    loads_portable,
    npy_empty,
    npy_header,
    portable_pieces,
    unpack_section,
)

#: bytes read from the head of a section to find its ``.npy`` header
#: (numpy pads headers to 64 bytes; a plain dtype's is 128).
PEEK = 4096

#: largest read of bytes a shard restore verifies but does not keep.
SCRATCH = 1 << 20

#: most buffers one ``os.preadv`` call takes (Linux ``IOV_MAX``).
IOV_MAX = 1024


def preadv_all(fd: int, bufs: list, offset: int) -> bool:
    """Fill ``bufs`` back to back from ``offset``; False at end of file."""
    i = 0
    while i < len(bufs):
        n = os.preadv(fd, bufs[i:i + IOV_MAX], offset)
        if n <= 0:
            return False
        offset += n
        while i < len(bufs) and n >= len(bufs[i]):
            n -= len(bufs[i])
            i += 1
        if n:
            bufs[i] = bufs[i][n:]
    return True


def overlaps(ranges: list[tuple[int, int]], lo: int, hi: int
             ) -> list[tuple[int, int]]:
    """The parts of sorted, disjoint ``ranges`` inside ``[lo, hi)``."""
    k = max(bisect.bisect_right(ranges, (lo, math.inf)) - 1, 0)
    out = []
    while k < len(ranges) and ranges[k][0] < hi:
        a, b = ranges[k]
        if b > lo:
            out.append((max(a, lo), min(b, hi)))
        k += 1
    return out


def sized_header(prefix, nbytes: int, what: str):
    """:func:`~repro.util.serialization.npy_header` of an encoding that
    must be ``nbytes`` long, checked before anything is allocated: a
    malformed header, or one describing another size, is
    :class:`SnapshotCorrupt` (``what`` names the field)."""
    try:
        head = npy_header(prefix)
    except ValueError as exc:
        raise SnapshotCorrupt(f"{what} is corrupt: {exc}") from exc
    if head is not None:
        dtype, shape, _, start = head
        if start + math.prod(shape) * dtype.itemsize != nbytes:
            raise SnapshotCorrupt(f"{what} is corrupt: its header does not "
                                  f"describe its {nbytes} bytes")
    return head


class Record:
    """An opened checkpoint: header read, field payloads still on disk.

    A subclass finds an array field's header (:meth:`_head`) and reads
    data byte ranges straight into a buffer (:meth:`_read_data`); any
    field it cannot do that for is decoded whole (:meth:`_whole`) and
    copied from.  ``nbytes_read`` counts the bytes taken off the disk so
    far (what the restore cost model charges); ``fetches`` counts CAS
    chunks read.
    """

    def __init__(self, header: dict, nbytes_read: int = 0) -> None:
        self.header = header
        self.fields: list[str] = list(header["fields"])
        self.nbytes_read = nbytes_read
        self.fetches = 0
        self._decoded: dict[str, Any] = {}

    def __enter__(self) -> "Record":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        pass

    # ------------------------------------------------------------------
    def _head(self, name: str) -> tuple[np.dtype, tuple, bool, int] | None:
        """``npy_header`` of a field whose data :meth:`_read_data` reads,
        checked against its stored size; None for the decode path."""
        return None

    def _read_data(self, name: str, start: int, raw: np.ndarray,
                   ranges: list[tuple[int, int]]) -> None:
        """Data byte ``ranges`` (the encoding's data starting at
        ``start``) straight into the same ranges of ``raw``, verified."""
        raise NotImplementedError

    def _whole(self, name: str) -> Any:
        """The decode path: field ``name`` decoded from its whole payload."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def value(self, name: str) -> Any:
        """Field ``name``, restored into memory of its own."""
        head = self._head(name)
        if head is None:
            return self._whole(name)
        arr, raw = npy_empty(*head[:3])
        self._read_data(name, head[3], raw, [(0, raw.nbytes)])
        return arr

    def spec(self, name: str) -> tuple[np.dtype, tuple, bool] | None:
        """``(dtype, shape, fortran_order)`` of a plain-array field, None
        for any other value."""
        head = self._head(name)
        if head is not None:
            return head[:3]
        value = self._decode(name)
        if type(value) is not np.ndarray or value.dtype.hasobject:
            return None
        return (value.dtype, value.shape,
                value.flags.f_contiguous and not value.flags.c_contiguous)

    def fill(self, name: str, raw: np.ndarray,
             ranges: list[tuple[int, int]]) -> None:
        """Byte ranges of field ``name``'s array data (in its memory
        order) into the same ranges of ``raw``; ``ranges`` are sorted and
        disjoint, and the field must match ``raw``'s :meth:`spec`."""
        head = self._head(name)
        if head is not None:
            self._read_data(name, head[3], raw, ranges)
            return
        pieces = portable_pieces(self._decode(name))[1:]
        if pieces:
            src = np.frombuffer(pieces[0], dtype=np.uint8)
            for a, b in ranges:
                raw[a:b] = src[a:b]

    def _decode(self, name: str) -> Any:
        """:meth:`_whole`, kept for the decode-path ``spec``/``fill``."""
        if name not in self._decoded:
            self._decoded[name] = self._whole(name)
        return self._decoded[name]

    def snapshot(self) -> Snapshot:
        """Every field restored: the checkpoint as a :class:`Snapshot`."""
        h = self.header
        fields = {name: self.value(name) for name in self.fields}
        snap = Snapshot(app=h["app"], safepoint_count=h["safepoint_count"],
                        fields=fields, mode=h["mode"], meta=h["meta"])
        snap.meta["disk_nbytes"] = self.nbytes_read
        return snap


class MemoryRecord(Record):
    """A checkpoint already decoded in memory (version 1/2 files, delta
    chains, plain files in a CAS directory)."""

    def __init__(self, snap: Snapshot) -> None:
        super().__init__(snap.header(), int(snap.meta.get("disk_nbytes", 0)))
        self._snap = snap

    def _whole(self, name: str) -> Any:
        return self._snap.fields[name]

    def snapshot(self) -> Snapshot:
        return self._snap


class FileRecord(Record):
    """A version 3 full container, read field by field from its file."""

    def __init__(self, fd: int, header: dict, layout: dict,
                 nbytes_read: int) -> None:
        super().__init__(header, nbytes_read)
        self._fd = fd
        self._layout = layout
        self._peeks: dict[str, bytes] = {}
        self._counted: set[str] = set()

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def _section(self, name: str) -> tuple[int, int, int, int]:
        try:
            return self._layout[name]
        except KeyError:
            raise SnapshotCorrupt(f"missing section {name!r}") from None

    def _account(self, name: str) -> None:
        """Charge one section's bytes to :attr:`nbytes_read`, once."""
        if name not in self._counted:
            self._counted.add(name)
            self.nbytes_read += self._layout[name][2]

    def _peek(self, name: str) -> bytes:
        """The first bytes of one section, read once."""
        if name not in self._peeks:
            _, offset, nbytes, _ = self._section(name)
            self._peeks[name] = os.pread(self._fd, min(nbytes, PEEK), offset)
        return self._peeks[name]

    def _head(self, name: str):
        flags, _, nbytes, _ = self._section(name)
        if flags:  # zlib: the decode path
            return None
        return sized_header(self._peek(name), nbytes, f"field {name!r}")

    def _whole(self, name: str) -> Any:
        flags, offset, nbytes, crc = self._section(name)
        stored = os.pread(self._fd, nbytes, offset)
        self._account(name)
        if len(stored) != nbytes or zlib.crc32(stored) != crc:
            raise SnapshotCorrupt(f"checksum mismatch in field {name!r}")
        try:
            return loads_portable(unpack_section(flags, stored))
        except Exception as exc:
            raise SnapshotCorrupt(
                f"field {name!r} failed to decode: {exc}") from exc

    def _read_data(self, name: str, start: int, raw: np.ndarray,
                   ranges: list[tuple[int, int]]) -> None:
        """Stream the section once: wanted data bytes straight into
        ``raw``, the rest through a scratch buffer, the CRC chained over
        both in order."""
        _, offset, nbytes, want = self._section(name)
        peek = self._peek(name)
        crc = zlib.crc32(peek)
        pos = len(peek) - start  # data bytes the peek already holds
        for a, b in overlaps(ranges, 0, pos):
            raw[a:b] = np.frombuffer(peek, np.uint8, b - a, start + a)
        dest, scratch = memoryview(raw), None
        for a, b in overlaps(ranges, pos, nbytes - start) \
                + [(nbytes - start, nbytes - start)]:
            while pos < a:  # bytes no range wants: verify, drop
                if scratch is None:
                    scratch = memoryview(bytearray(min(SCRATCH, a - pos)))
                piece = scratch[:min(len(scratch), a - pos)]
                if not preadv_all(self._fd, [piece], offset + start + pos):
                    raise SnapshotCorrupt(f"field {name!r} is truncated")
                crc = zlib.crc32(piece, crc)
                pos += len(piece)
            if a < b:
                if not preadv_all(self._fd, [dest[a:b]], offset + start + a):
                    raise SnapshotCorrupt(f"field {name!r} is truncated")
                crc = zlib.crc32(dest[a:b], crc)
                pos = b
        self._account(name)
        if crc != want:
            raise SnapshotCorrupt(f"checksum mismatch in field {name!r}")


def open_file(path: str | os.PathLike) -> Record:
    """Open one checkpoint file for a copy-once restore.

    A version 3 full container becomes a :class:`FileRecord` holding the
    open file; anything else (a version 1/2 envelope) is decoded in
    memory.  Raises :class:`SnapshotCorrupt` for a malformed container
    and ``OSError`` when the file cannot be read.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        head = os.pread(fd, _HEAD.size, 0)
        if head[:4] != _MAGIC:
            data = head + os.pread(fd, size, len(head))
            snap = Snapshot.decode(data)
            snap.meta["disk_nbytes"] = len(data)
            os.close(fd)
            return MemoryRecord(snap)
        header, layout = container_layout(
            head, lambda n: os.pread(fd, n, _HEAD.size), size)
        if header.get("kind", KIND_FULL) != KIND_FULL:
            raise SnapshotCorrupt(
                f"a {header.get('kind')!r} record cannot be restored "
                "standalone")
        first = min((at for _, at, _, _ in layout.values()), default=size)
        return FileRecord(fd, header, layout, first)
    except BaseException:
        os.close(fd)
        raise


# ---------------------------------------------------------------------------
# shard reassembly (STRATEGY_LOCAL)
# ---------------------------------------------------------------------------
def owned_ranges(shape: tuple, itemsize: int, fortran: bool, axis: int,
                 idx: np.ndarray) -> list[tuple[int, int]]:
    """Byte ranges, in the array's memory order, of the elements whose
    index along ``axis`` is in ``idx`` (sorted, disjoint, merged)."""
    dims = shape[::-1] if fortran else shape
    ax = len(shape) - 1 - axis if fortran else axis
    inner = math.prod(dims[ax + 1:]) * itemsize
    n = dims[ax]
    idx = np.asarray(idx, dtype=np.int64)
    if not len(idx) or not inner:
        return []
    cut = np.flatnonzero(np.diff(idx) != 1) + 1
    runs = list(zip(idx[np.r_[0, cut]].tolist(),
                    (idx[np.r_[cut - 1, len(idx) - 1]] + 1).tolist()))
    out: list[tuple[int, int]] = []
    for i in range(math.prod(dims[:ax])):
        for s, e in runs:
            a, b = (i * n + s) * inner, (i * n + e) * inner
            if out and out[-1][1] == a:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    return out


def assemble(records: list[Record], partitioned: dict) -> Snapshot:
    """Recombine one same-shape shard per rank (``records[r]`` is rank
    ``r``'s) into a master-format snapshot.

    A partitioned array is allocated once; each rank's shard fills in
    the rows that rank owned, and rank 0's every row no other rank owned.
    Any other field is rank 0's copy.  A shard whose array disagrees
    with rank 0's in dtype, shape or order is :class:`SnapshotCorrupt`.
    """
    root, nranks = records[0], len(records)
    fields: dict[str, Any] = {}
    for name in root.fields:
        part = partitioned.get(name)
        if part is None or part.whole_at_safepoints:
            fields[name] = root.value(name)
            continue
        spec = root.spec(name)
        if spec is None:
            fields[name] = _assemble_values(records, name, part)
            continue
        dtype, shape, fortran = spec
        whole, raw = npy_empty(dtype, shape, fortran)
        n = shape[part.layout.axis]
        rest = np.ones(n, dtype=bool)
        for r in range(1, nranks):
            rest[part.layout.owned(n, r, nranks)] = False
        for r, rec in enumerate(records):
            got = spec if r == 0 else rec.spec(name)
            if got != spec:
                raise SnapshotCorrupt(
                    f"shard {r} holds field {name!r} as {got}, shard 0 "
                    f"as {spec}")
            idx = np.flatnonzero(rest) if r == 0 \
                else part.layout.owned(n, r, nranks)
            rec.fill(name, raw, owned_ranges(
                shape, dtype.itemsize, fortran, part.layout.axis, idx))
        fields[name] = whole
    meta = dict(root.header["meta"])
    meta.pop("shard", None)
    meta["assembled_from_shards"] = nranks
    meta["disk_nbytes"] = sum(rec.nbytes_read for rec in records)
    fetches = sum(rec.fetches for rec in records)
    if fetches:
        meta["cas_fetches"] = fetches
    h = root.header
    return Snapshot(app=h["app"], safepoint_count=h["safepoint_count"],
                    fields=fields, mode=h["mode"], meta=meta)


def _assemble_values(records: list[Record], name: str, part) -> Any:
    """The decode path of :func:`assemble`: a field that is not a plain
    array (an object array, say) is recombined from decoded values."""
    value = records[0].value(name)
    if not isinstance(value, np.ndarray):
        return value  # replicated: any shard's copy is it
    whole = value.copy()
    axis = part.layout.axis
    n = whole.shape[axis]
    sl: list = [slice(None)] * whole.ndim
    for r, rec in enumerate(records):
        idx = part.layout.owned(n, r, len(records))
        sl[axis] = idx
        whole[tuple(sl)] = np.take(rec.value(name), idx, axis=axis)
    return whole
