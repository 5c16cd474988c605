"""Fixed-block chunking: a field's portable encoding cut at fixed offsets.

The checkpoint object store (:mod:`repro.ckpt.cas`) stores field
payloads as chunks keyed by content digest.  A field's chunks are the
pieces of its :func:`~repro.util.serialization.dumps_portable` encoding,
taken from :func:`~repro.util.serialization.portable_pieces`:

* the tag plus ``.npy`` header is its own chunk;
* the array data is cut into ``BLOCK``-byte blocks at fixed offsets,
  each a memoryview slice of the array's own memory (a copy only when
  the array is not contiguous) — no encoded copy of the field is built
  and every byte is hashed once;
* a value that is not a plain array is one pickled byte string, cut the
  same way.

The pieces concatenate to exactly ``dumps_portable(value)``, so a
recipe's chunks still join into the portable encoding on restore.

Fixed offsets suit checkpoint fields: SOR grids and MolDyn particle
arrays are updated in place and never shift, so an edit changes exactly
the blocks it touches and every other block keeps its digest.
Content-defined (rolling-hash) boundaries would additionally survive
insertions, which these fields never see; on this repository's
workloads they deduplicated no better and cost several times the
chunking time (README, "Checkpoint object store").

Everything here is deterministic in the bytes alone, so every rank, the
funnel parent and a future process cut identical bytes into identical
digests.  That determinism is what the funnel's digest-presence
handshake and cross-job dedup stand on.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.util.serialization import portable_pieces

#: data block size in bytes (also the upper bound of every chunk).
BLOCK = 4096

#: digest identifying a chunk's content (hex).  BLAKE2b-160: far below
#: the disk's own undetected-error rate, short enough for filenames.
DIGEST_SIZE = 20


def chunk_digest(payload) -> str:
    """Content digest (hex) keying one chunk in the CAS."""
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).hexdigest()


def field_chunks(value: Any) -> list[tuple[str, memoryview]]:
    """``(digest, piece)`` per chunk of ``value``, in encoding order.

    ``b"".join`` of the pieces is ``dumps_portable(value)``; the data
    pieces view the array's memory, so they are valid only while the
    value is not modified.
    """
    out = []
    for piece in portable_pieces(value):
        mv = memoryview(piece)
        for a in range(0, len(mv), BLOCK):
            block = mv[a:a + BLOCK]
            out.append((chunk_digest(block), block))
    return out


def chunk_refs(blob) -> list[tuple[str, int, int]]:
    """Fixed blocks over a byte string: ``(digest, start, end)`` each."""
    mv = memoryview(blob)
    n = len(mv)
    return [(chunk_digest(mv[a:a + BLOCK]), a, min(a + BLOCK, n))
            for a in range(0, n, BLOCK)]
