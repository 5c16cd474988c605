"""Content-defined chunking: split payloads at rolling-hash boundaries.

The checkpoint object store (:mod:`repro.ckpt.cas`) stores field
payloads as chunks keyed by content digest.  For dedup to survive
*insertions* — one element appended to an array shifts every later byte
— chunk boundaries must be decided by the bytes themselves, not by
offsets: a window's rolling hash matching a mask cuts a chunk, so an
edit re-chunks only its neighbourhood and every later chunk keeps its
identity (the classic LBFS/CDC construction).

The rolling hash is a buzhash over a ``WINDOW``-byte window: each
position's hash is the XOR of its window's bytes mapped through a
fixed table and rotated by age.  The recurrence form
(``H = rotl(H,1) ^ rotl(T[out], W) ^ T[in]``) is byte-at-a-time; this
implementation evaluates it by *window doubling* instead — the hash of
a ``2s``-byte window is ``rotl(H_s[k], s) ^ H_s[k+s]``, so one table
lookup and ``log2(W)`` rotate-and-XOR passes give every position's
hash — in ``TILE``-position slices whose working set stays in cache.
Chunking a multi-megabyte field is a few vectorised passes per tile,
not ``n`` Python iterations and not ``W`` passes over ``8n`` bytes.

Boundary discipline:

* a cut is proposed wherever ``hash & (avg_size - 1) == 0`` — so chunk
  sizes are geometrically distributed around ``avg_size``;
* proposals closer than ``min_size`` to the previous cut are skipped
  (bounds the per-chunk overhead);
* a gap longer than ``max_size`` is cut at exactly ``max_size`` — on
  pathological data (constant buffers never match the mask) this
  degrades to a fixed-size split, which is also the declared fallback
  for payloads too small to roll a window over: they become a single
  chunk.

Everything here is deterministic — the table is derived from a fixed
keyed hash, never from process state — so every rank, the funnel
parent and a future process chunk identical bytes into identical
digests.  That determinism is what the funnel's digest-presence
handshake and cross-job dedup stand on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: rolling-hash window in bytes.
WINDOW = 16

#: digest identifying a chunk's content (hex).  BLAKE2b-160: far below
#: the disk's own undetected-error rate, short enough for filenames.
DIGEST_SIZE = 20


def _gear_table() -> np.ndarray:
    """The fixed byte -> 64-bit mixing table.

    Derived entry-by-entry from a keyed BLAKE2b so it is identical on
    every platform and Python/numpy version forever — unlike a seeded
    RNG stream, which is only guaranteed stable per generator version.
    """
    out = np.empty(256, dtype=np.uint64)
    for i in range(256):
        h = hashlib.blake2b(bytes([i]), digest_size=8,
                            person=b"pp-cdc-01").digest()
        out[i] = int.from_bytes(h, "little")
    return out


_TABLE = _gear_table()


#: positions hashed per slice: three ``uint64`` work buffers of this
#: many entries (768 KiB) stay cache-resident; measured best of 8-256 Ki.
TILE = 1 << 15

assert WINDOW & (WINDOW - 1) == 0, "window doubling needs a power of two"


def _cut_candidates(buf: np.ndarray, mask: int) -> np.ndarray:
    """Positions ``p`` whose preceding window hashes to ``0 mod mask+1``.

    ``H_1 = T[byte]``; ``H_2s[k] = rotl(H_s[k], s) ^ H_s[k+s]`` doubles
    the window until it is ``WINDOW`` wide — the same value the
    ``WINDOW``-term unrolled XOR gives, bit for bit, for any mask width.
    A window starting at ``k`` proposes a cut *after* it, at ``k+W``.
    """
    m = buf.size - WINDOW + 1
    x, y, z = (np.empty(min(TILE, m) + WINDOW, dtype=np.uint64)
               for _ in range(3))
    out = []
    for a in range(0, m, TILE):
        k = min(TILE, m - a) + WINDOW - 1  # bytes this slice's windows span
        np.take(_TABLE, buf[a:a + k], out=x[:k], mode="clip")
        span = 1
        while span < WINDOW:
            k2 = k - span
            np.left_shift(x[:k2], np.uint64(span), out=y[:k2])
            np.right_shift(x[:k2], np.uint64(64 - span), out=z[:k2])
            np.bitwise_or(y[:k2], z[:k2], out=y[:k2])
            np.bitwise_xor(y[:k2], x[span:k], out=x[:k2])
            k, span = k2, span * 2
        np.bitwise_and(x[:k], np.uint64(mask), out=y[:k])
        out.append(np.flatnonzero(y[:k] == 0) + (a + WINDOW))
    return np.concatenate(out)


@dataclass(frozen=True)
class ChunkParams:
    """Chunk-size policy: minimum, expected and maximum chunk bytes.

    ``avg_size`` must be a power of two (it becomes the boundary mask);
    ``min_size`` must leave room for the rolling window.  The defaults
    suit checkpoint fields from tens of kilobytes up — small enough
    that touching one array element re-writes a few kilobytes, large
    enough that recipe/ref overhead stays well under one percent.
    """

    min_size: int = 1 << 10
    avg_size: int = 1 << 12
    max_size: int = 1 << 14

    def __post_init__(self) -> None:
        if self.avg_size & (self.avg_size - 1) or self.avg_size <= 0:
            raise ValueError("avg_size must be a power of two")
        if not WINDOW <= self.min_size <= self.avg_size <= self.max_size:
            raise ValueError(
                f"need {WINDOW} <= min <= avg <= max, got "
                f"{self.min_size}/{self.avg_size}/{self.max_size}")

    @property
    def mask(self) -> int:
        return self.avg_size - 1


DEFAULT_PARAMS = ChunkParams()


def chunk_digest(payload) -> str:
    """Content digest (hex) keying one chunk in the CAS."""
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).hexdigest()


def chunk_bounds(data, params: ChunkParams = DEFAULT_PARAMS) -> list[int]:
    """Cut positions for ``data``: ``[0, ..., len(data)]``, ascending.

    Consecutive pairs delimit the chunks.  Deterministic in the bytes
    alone.  Payloads shorter than ``min_size`` (or the window) fall
    back to a single fixed chunk.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n = buf.size
    if n == 0:
        return [0]
    if n <= max(params.min_size, WINDOW):
        return [0, n]
    cand = _cut_candidates(buf, params.mask)
    bounds = [0]
    last = 0
    for p in map(int, cand):
        if p - last < params.min_size:
            continue
        while p - last > params.max_size:  # force cuts across long gaps
            last += params.max_size
            bounds.append(last)
        if p - last >= params.min_size:
            last = p
            bounds.append(p)
        if n - last <= params.min_size:
            break
    while n - last > params.max_size:
        last += params.max_size
        bounds.append(last)
    if bounds[-1] != n:
        # a sub-min tail merges into the previous chunk only if the
        # merge respects max_size; otherwise it stands alone.
        if len(bounds) > 1 and n - bounds[-2] <= params.max_size \
                and n - bounds[-1] < params.min_size:
            bounds.pop()
        bounds.append(n)
    return bounds


def chunk_refs(blob, params: ChunkParams = DEFAULT_PARAMS
               ) -> list[tuple[str, int, int]]:
    """Chunk ``blob``: ``(digest, start, end)`` per chunk, in order."""
    bounds = chunk_bounds(blob, params)
    mv = memoryview(blob)
    return [(chunk_digest(mv[a:b]), a, b)
            for a, b in zip(bounds, bounds[1:])]
