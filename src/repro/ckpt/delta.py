"""Incremental (delta) checkpointing: write only what changed.

The paper's Figure 4 cost is the synchronous write of the *whole*
application state at every checkpoint.  For workloads where much of the
SafeData is static between safe points (model parameters, topology
tables, configuration arrays) that is pure waste.
:class:`IncrementalCheckpointStore` detects unchanged fields by content
hash (BLAKE2b-128 by default, streamed straight off the array buffers —
fast, no encode round-trip, and with a collision probability far below
the disk's own undetected-error rate, so a changed field can never be
silently classified as unchanged) and writes a **delta record**
containing only the changed sections, chained by safe-point count to
its base checkpoint.

Chain discipline:

* the first checkpoint, and every ``k``-th thereafter
  (:class:`~repro.ckpt.policy.AnchorEvery`), is a **full anchor** — it
  bounds replay length and corruption blast radius;
* a delta's header names its ``base`` count and the fields it *carries*
  (unchanged, to be taken from the chain) vs. the fields it stores;
* :meth:`IncrementalCheckpointStore.read` resolves the chain from the
  anchor forward, so the result is an ordinary complete
  :class:`~repro.ckpt.snapshot.Snapshot` — restore, scatter and
  adaptation code never see deltas;
* pruning protects every file a surviving checkpoint's chain needs.

Any break in the chain (missing base, checksum failure, cycle) raises
:class:`~repro.ckpt.snapshot.SnapshotCorrupt`, which ``read_latest``
already treats as "fall back to the previous checkpoint" — so a corrupt
anchor degrades recovery by one anchor interval, never to a wrong state.
"""

from __future__ import annotations

import copy
import hashlib
import os
from typing import Any

import numpy as np

from repro.ckpt.policy import AnchorEvery, AnchorPolicy
from repro.ckpt.restore import MemoryRecord, Record
from repro.ckpt.snapshot import (
    KIND_DELTA,
    KIND_FULL,
    Snapshot,
    SnapshotCorrupt,
    decode_envelope,
    decode_section,
    encode_container,
    image_nbytes,
)
from repro.ckpt.store import CheckpointStore
from repro.util.serialization import (
    dumps_portable,
    loads_portable,
    portable_pieces,
)

#: hard cap on chain length at read time (cycle / runaway-chain guard).
MAX_CHAIN = 4096


def _pick_digest() -> str:
    """Cheapest available change-detection digest, decided once.

    blake2b is the fastest guaranteed-present algorithm in CPython's
    ``hashlib``; the fallbacks only matter on exotic builds.  Digests
    are volatile per-process state (never persisted), so the choice
    cannot affect checkpoint bytes.
    """
    for name in ("blake2b", "sha256", "md5"):
        if name in hashlib.algorithms_available:
            return name
    return "sha256"


_DIGEST = _pick_digest()


def _new_digest():
    if _DIGEST == "blake2b":
        return hashlib.blake2b(digest_size=16)
    return hashlib.new(_DIGEST)


def content_hash(blob: bytes) -> bytes:
    """Change-detection digest of one field's portable encoding."""
    h = _new_digest()
    h.update(blob)
    return h.digest()


def content_hash_value(value: Any) -> bytes:
    """Change-detection digest of one field *value*.

    Arrays are hashed straight off their buffer (dtype + shape + a
    C-contiguous memoryview) — no ``.tobytes()`` / ``np.save``
    round-trip, so an unchanged multi-megabyte field costs one
    streaming digest pass and zero allocations.  Everything else is
    hashed via its portable encoding.  Equivalent to hashing the
    portable blob for change detection: (dtype, shape, raw bytes)
    determines the ``.npy`` encoding and vice versa.
    """
    if isinstance(value, np.ndarray) and not value.dtype.hasobject:
        arr = value if value.flags.c_contiguous \
            else np.ascontiguousarray(value)
        h = _new_digest()
        h.update(b"NDARR")
        # repr, not dtype.str: the latter collapses every structured
        # dtype of one itemsize to the same "|Vn" token, so two
        # differently-typed fields with equal bytes would collide.
        h.update(repr(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        # memory order is part of the encoding identity too: np.save
        # records fortran_order, so a C->F flip with equal values must
        # hash as a change or a delta would carry the stale-order blob.
        h.update(b"F" if (value.flags.f_contiguous
                          and not value.flags.c_contiguous) else b"C")
        h.update(arr.data.cast("B") if arr.nbytes else b"")
        return h.digest()
    return content_hash(dumps_portable(value))


class IncrementalCheckpointStore(CheckpointStore):
    """Checkpoint store that writes per-field deltas between anchors."""

    def __init__(self, directory: str | os.PathLike,
                 anchor: AnchorPolicy | int = 8,
                 compress_min_bytes: int | None = None,
                 shard_suffix: str = "", ns_suffix: str = "") -> None:
        super().__init__(directory, compress_min_bytes=compress_min_bytes,
                         shard_suffix=shard_suffix, ns_suffix=ns_suffix)
        if isinstance(anchor, int):
            anchor = AnchorEvery(anchor)
        self.anchor = anchor
        # volatile baseline: hashes of the last written checkpoint's
        # fields.  Lost on process restart, which is safe — the next
        # write simply degrades to a full anchor.
        self._base_count: int | None = None
        self._base_hashes: dict[str, bytes] = {}
        self._chain_len = 0

    # ------------------------------------------------------------------
    def _make_shard(self, rank: int) -> "IncrementalCheckpointStore":
        """STRATEGY_LOCAL shards are incremental too, with their own copy
        of the anchor policy (policies hold per-store cadence state)."""
        return IncrementalCheckpointStore(
            self.dir, anchor=copy.deepcopy(self.anchor),
            compress_min_bytes=self.compress_min_bytes,
            shard_suffix=f".r{rank}", ns_suffix=self.ns_suffix)

    def _make_namespace(self, ns_suffix: str) -> "IncrementalCheckpointStore":
        """Job namespaces keep the incremental behaviour, each with its
        own anchor-policy copy and delta baseline."""
        return IncrementalCheckpointStore(
            self.dir, anchor=copy.deepcopy(self.anchor),
            compress_min_bytes=self.compress_min_bytes,
            ns_suffix=ns_suffix)

    # ------------------------------------------------------------------
    def reset_baseline(self) -> None:
        """Forget the delta baseline; the next write is a full anchor."""
        self._base_count = None
        self._base_hashes = {}
        self._chain_len = 0

    def clear(self) -> None:
        super().clear()
        self.reset_baseline()

    # ------------------------------------------------------------------
    def write(self, snap: Snapshot) -> "os.PathLike":
        # hash values straight off their buffers: unchanged fields are
        # detected without ever building their portable encoding.
        hashes = {name: content_hash_value(value)
                  for name, value in snap.fields.items()}
        count = snap.safepoint_count

        delta_ok = (
            self._base_count is not None
            # a chain base must strictly precede its delta; re-writing an
            # already-used count (deterministic re-execution after a
            # recovery) must start a fresh anchor, never self-reference.
            and self._base_count < count
            and not self.anchor.due(self._chain_len)
            # delta encoding only helps if the field *set* is stable.
            and set(hashes) == set(self._base_hashes)
        )

        if delta_ok:
            changed = {name: portable_pieces(snap.fields[name])
                       for name in snap.fields
                       if hashes[name] != self._base_hashes[name]}
            carried = [name for name in snap.fields if name not in changed]
            header = snap.header(KIND_DELTA)
            header["base"] = self._base_count
            header["fields"] = list(changed)
            header["carry"] = carried
            image = encode_container(header, changed, self.compress_min_bytes)
            self.last_write_kind = KIND_DELTA
            self._chain_len += 1
        else:
            image = snap.image(self.compress_min_bytes)
            self.last_write_kind = KIND_FULL
            self._chain_len = 0

        self.last_write_nbytes = image_nbytes(image)
        self.total_bytes_written += self.last_write_nbytes
        self._base_count = count
        self._base_hashes = hashes
        # adaptive anchor policies retarget their cadence from the
        # observed full/delta size ratio; fixed policies no-op.
        self.anchor.observe(self.last_write_kind, self.last_write_nbytes)
        self._put(self.path_for(count), image)
        return self.path_for(count)

    # ------------------------------------------------------------------
    def read(self, count: int) -> Snapshot:
        """Resolve ``count``'s delta chain into a complete snapshot."""
        chain: list[tuple[dict, dict]] = []
        disk_nbytes = 0
        cur = count
        while True:
            if len(chain) > MAX_CHAIN:
                raise SnapshotCorrupt(
                    f"delta chain exceeds {MAX_CHAIN} links at count {count}")
            data = self.path_for(cur).read_bytes()
            disk_nbytes += len(data)
            header, sections = decode_envelope(data)
            chain.append((header, sections))
            if header.get("kind", KIND_FULL) == KIND_FULL:
                break
            base = header.get("base")
            if not isinstance(base, int) or not base < cur:
                raise SnapshotCorrupt(
                    f"delta at count {cur} has invalid base {base!r}")
            cur = base

        # check the chain oldest first (every carried field must be
        # stored by an older link), then decode each field once, from
        # the newest link that stores it.
        order: dict[str, int] = {}
        for depth in range(len(chain) - 1, -1, -1):
            header = chain[depth][0]
            missing = [n for n in header.get("carry", []) if n not in order]
            if missing:
                raise SnapshotCorrupt(
                    f"delta at count {header['safepoint_count']} carries "
                    f"fields absent from its chain: {missing}")
            order.update((name, depth) for name in header["fields"])
        fields: dict[str, Any] = {
            name: loads_portable(decode_section(chain[depth][1], name))
            for name, depth in order.items()}

        top = chain[0][0]
        snap = Snapshot(app=top["app"],
                        safepoint_count=top["safepoint_count"],
                        fields=fields, mode=top["mode"], meta=top["meta"])
        snap.meta["disk_nbytes"] = disk_nbytes  # whole chain was read
        return snap

    def open(self, count: int) -> Record:
        """A delta chain restores through :meth:`read` (decoded whole)."""
        return MemoryRecord(self.read(count))

    # ------------------------------------------------------------------
    def chain_of(self, count: int) -> list[int]:
        """The counts ``count``'s restore depends on (itself included)."""
        out = [count]
        cur = count
        while len(out) <= MAX_CHAIN:
            try:
                header, _ = decode_envelope(self.path_for(cur).read_bytes())
            except (SnapshotCorrupt, OSError):
                break
            if header.get("kind", KIND_FULL) == KIND_FULL:
                break
            base = header.get("base")
            if not isinstance(base, int) or not base < cur:
                break
            out.append(base)
            cur = base
        return out

    def _protected_counts(self, kept: list[int]) -> set[int]:
        needed: set[int] = set()
        for c in kept:
            needed.update(self.chain_of(c))
        return needed
