"""Snapshots: the data saved at a checkpoint.

A snapshot records the values of the programmer-declared ``SafeData``
fields plus the number of executed safe points.  The encoded form is
deliberately mode-independent (Section IV.A: "the checkpoint data is the
same in all environments"), which is what lets a run checkpointed under
MPI-style execution restart as a sequential or threaded run.

Capture copies each field once into memory the snapshot owns (a plain
array directly, anything else through its portable encoding), and a
full save then hands the disk views of those copies: an encoded image is
a *list of buffers*, never one ``bytes``.

Container format (version 3)::

    b"PCR3" | u32 table length | pickled {header, sections} | payloads

``sections`` maps each name to ``(flags, nbytes, crc32)`` in payload
order; each payload is the field's portable encoding
(:func:`~repro.util.serialization.dumps_portable`) byte for byte, which
a plain array contributes as two buffers (tag + ``.npy`` header, then a
read-only view of its data).  ``flags`` carries per-section transforms
(today: ``SEC_ZLIB`` for transparent zlib compression, negotiated by
size threshold at encode time); the CRC is chained over the *stored*
pieces, so corruption is detected before decompression.  In-memory
decodes slice a ``memoryview`` of the image; only the small table is
unpickled.  Stores read files through :mod:`repro.ckpt.restore`, which
lands each array's bytes straight in the restored array.  Version
1 and 2 files (a ``PKL4``-tagged pickled envelope carrying the stored
blobs inline) are still readable; nothing writes them.  The same
container also carries incremental *delta* records (``header["kind"] ==
"delta"``, produced and resolved by :mod:`repro.ckpt.delta`; decoding one
directly raises :class:`SnapshotCorrupt` because a delta alone is not a
restorable state) and CAS chunk recipes (no sections).
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.util.serialization import (
    PICKLE_PROTOCOL,
    crc32_of,
    dumps_portable,
    loads_portable,
    nbytes_of,
    pack_section,
    portable_copy,
    portable_pieces,
    unpack_section,
)

FORMAT_VERSION = 3

_MAGIC = b"PCR3"
_HEAD = struct.Struct("<4sI")

#: container kinds: a full restorable state, an incremental delta, or a
#: chunk recipe (a manifest of CAS chunk refs — see :mod:`repro.ckpt.cas`).
KIND_FULL = "full"
KIND_DELTA = "delta"
KIND_RECIPE = "recipe"


class SnapshotCorrupt(RuntimeError):
    """A section failed its checksum or the container is malformed."""


# ---------------------------------------------------------------------------
# container helpers (shared with repro.ckpt.delta and repro.ckpt.cas)
# ---------------------------------------------------------------------------
def encode_container(header: dict, sections: dict[str, list],
                     compress_min_bytes: int | None = None) -> list:
    """The on-disk image of pre-encoded sections (name -> buffers), as
    a list of buffers to write back to back."""
    table, payloads = {}, []
    for name, pieces in sections.items():
        flags = 0
        if compress_min_bytes is not None \
                and image_nbytes(pieces) >= compress_min_bytes:
            flags, stored = pack_section(b"".join(pieces), compress_min_bytes)
            pieces = [stored]
        crc = 0
        for piece in pieces:
            crc = zlib.crc32(piece, crc)
        table[name] = (flags, image_nbytes(pieces), crc)
        payloads += pieces
    blob = pickle.dumps({"header": header, "sections": table},
                        protocol=PICKLE_PROTOCOL)
    return [_HEAD.pack(_MAGIC, len(blob)) + blob, *payloads]


def image_nbytes(image: list) -> int:
    """Total size of a list of byte buffers (what the disk receives)."""
    return sum(len(piece) for piece in image)


def container_layout(head: bytes, read_table, size: int
                     ) -> tuple[dict, dict[str, tuple[int, int, int, int]]]:
    """Header and section layout of a version 3 container of ``size``
    bytes: ``name -> (flags, offset, nbytes, crc32)`` in payload order.

    ``head`` is the container's first bytes; ``read_table(n)`` returns
    the ``n`` table bytes that follow them.  Raises
    :class:`SnapshotCorrupt` unless the payloads end exactly at ``size``.
    """
    try:
        magic, table_nbytes = _HEAD.unpack_from(head)
        if magic != _MAGIC:
            raise ValueError(f"magic {magic!r}")
        start = _HEAD.size + table_nbytes
        table = pickle.loads(read_table(table_nbytes))
        header, layout = table["header"], {}
        for name, (flags, nbytes, crc) in table["sections"].items():
            layout[name] = (flags, start, nbytes, crc)
            start += nbytes
        if start != size:
            raise ValueError(f"table describes {start} bytes, the "
                             f"container holds {size}")
        version = header.get("version")
    except Exception as exc:
        raise SnapshotCorrupt(f"malformed snapshot container: {exc}") from exc
    if version != FORMAT_VERSION:
        raise SnapshotCorrupt(f"unsupported snapshot version {version!r}")
    return header, layout


def decode_envelope(data) -> tuple[dict, dict]:
    """Parse and version-check a container; returns ``(header, sections)``
    with sections ``name -> (flags, stored, crc32)`` (version 1 entries:
    ``(stored, crc32)``), ``stored`` a zero-copy slice of ``data``."""
    view = memoryview(data)
    if bytes(view[:4]) == _MAGIC:
        header, layout = container_layout(
            view[:_HEAD.size],
            lambda n: view[_HEAD.size:_HEAD.size + n], len(view))
        return header, {name: (flags, view[at:at + n], crc)
                        for name, (flags, at, n, crc) in layout.items()}
    try:  # version 1/2: a pickled envelope
        envelope = loads_portable(data)
        header, sections = envelope["header"], envelope["sections"]
        version = header.get("version")
    except Exception as exc:
        raise SnapshotCorrupt(f"malformed snapshot container: {exc}") from exc
    if version not in (1, 2):
        raise SnapshotCorrupt(f"unsupported snapshot version {version!r}")
    return header, sections


def decode_section(sections: dict, name: str) -> bytes | memoryview:
    """Checksum-verify one section and undo its storage transforms."""
    try:
        entry = sections[name]
    except KeyError as exc:
        raise SnapshotCorrupt(f"missing section {name!r}") from exc
    if len(entry) == 2:  # version-1 layout: (blob, crc), never compressed
        blob, crc = entry
        flags = 0
    else:
        flags, blob, crc = entry
    if crc32_of(blob) != crc:
        raise SnapshotCorrupt(f"checksum mismatch in field {name!r}")
    return unpack_section(flags, blob)


@dataclass
class Snapshot:
    """In-memory checkpoint: SafeData field values + safe-point count."""

    app: str
    safepoint_count: int
    fields: dict[str, Any]
    mode: str = "sequential"
    meta: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def capture(cls, instance: Any, field_names: list[str], count: int,
                app: str | None = None, mode: str = "sequential",
                **meta: Any) -> "Snapshot":
        """Snapshot ``field_names`` of ``instance`` at safe point ``count``.

        Each value is copied once, immediately, into memory the snapshot
        owns — equal to its portable round trip — so later mutation of
        the live object cannot corrupt a pending checkpoint.
        """
        missing = [f for f in field_names if not hasattr(instance, f)]
        if missing:
            raise AttributeError(
                f"SafeData fields not present on instance: {missing}")
        fields = {f: portable_copy(getattr(instance, f)) for f in field_names}
        return cls(app=app or type(instance).__name__,
                   safepoint_count=count, fields=fields, mode=mode,
                   meta=dict(meta))

    def restore_into(self, instance: Any) -> None:
        """Write the saved field values back onto ``instance``."""
        for name, value in self.fields.items():
            setattr(instance, name, value)

    @property
    def nbytes(self) -> int:
        """Payload size — what the disk/network cost models charge."""
        return sum(nbytes_of(v) for v in self.fields.values())

    # ------------------------------------------------------------------
    def field_blobs(self) -> dict[str, bytes]:
        """Portable (uncompressed) encoding of every field."""
        return {name: dumps_portable(value)
                for name, value in self.fields.items()}

    def header(self, kind: str = KIND_FULL) -> dict:
        return {
            "version": FORMAT_VERSION,
            "kind": kind,
            "app": self.app,
            "safepoint_count": self.safepoint_count,
            "mode": self.mode,
            "meta": self.meta,
            "fields": list(self.fields),
        }

    def image(self, compress_min_bytes: int | None = None) -> list:
        """The full record as the buffers a store writes back to back
        (plain arrays as views of the captured copies, not copies)."""
        pieces = {name: portable_pieces(value)
                  for name, value in self.fields.items()}
        return encode_container(self.header(KIND_FULL), pieces,
                                compress_min_bytes)

    def encode(self, compress_min_bytes: int | None = None) -> bytes:
        """Serialise to the portable container format (a full record)."""
        return b"".join(self.image(compress_min_bytes))

    @classmethod
    def decode(cls, data: bytes) -> "Snapshot":
        header, sections = decode_envelope(data)
        if header.get("kind", KIND_FULL) != KIND_FULL:
            raise SnapshotCorrupt(
                "incremental delta record cannot be decoded standalone; "
                "resolve it through IncrementalCheckpointStore.read")
        fields: dict[str, Any] = {}
        for name in header["fields"]:
            fields[name] = loads_portable(decode_section(sections, name))
        return cls(app=header["app"], safepoint_count=header["safepoint_count"],
                   fields=fields, mode=header["mode"], meta=header["meta"])
