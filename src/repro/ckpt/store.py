"""Checkpoint storage and the run-status ledger (the ``pcr`` module).

:class:`CheckpointStore` keeps numbered checkpoint files in a directory,
written atomically (temp file + fsync + rename + directory fsync) so a
crash mid-write can never leave a half-checkpoint that a restart would
trust; corrupt files are detected by the snapshot's checksums and skipped
in favour of the newest intact one.

The store has two orthogonal extensions:

* **async writes** — :meth:`attach_writer` plugs in an
  :class:`~repro.ckpt.writer.AsyncCheckpointWriter`; ``write`` then
  returns once the image is copied into the writer's queue and the
  fsync+rename runs on the worker thread.  :meth:`flush` is the
  durability barrier and MUST be called before any read that needs to
  observe the latest write.
* **incremental writes** — see
  :class:`repro.ckpt.cas.CasCheckpointStore`, a subclass that writes
  chunk recipes and stores only the 4 KiB blocks its CAS lacks.

:class:`RunLedger` implements the paper's start-up protocol: "at
application start-up, the pcr module verifies if the last execution was
concluded without failures".  A run marks itself ``running`` just before
its first checkpoint publish and ``completed`` on clean exit over
``running``; finding ``running`` on the next start means the previous
execution crashed with a checkpoint on disk and replay mode is activated.
"""

from __future__ import annotations

import json
import os
import re
import threading
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING

from repro.ckpt.restore import Record, assemble, open_file
from repro.ckpt.snapshot import (
    KIND_FULL,
    Snapshot,
    SnapshotCorrupt,
    image_nbytes,
)
from repro.ckpt.writer import atomic_write_bytes

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckpt.writer import AsyncCheckpointWriter

#: any checkpoint file name: count, ``.j<tag>`` namespace, ``.r<rank>`` shard
PCR_NAME = re.compile(r"^ckpt_(\d{9})(\.j\w+)?(\.r\d+)?\.pcr$")


def _ns_key(tag) -> str:
    return "".join(c for c in str(tag) if c.isalnum())


class CheckpointStore:
    """Directory of numbered, atomically-written checkpoint files.

    ``shard_suffix`` names a per-rank shard sub-store (files
    ``ckpt_<count>.r<rank>.pcr`` in the same directory) used by the
    STRATEGY_LOCAL checkpoint path; the master store's file listing and
    recovery only ever see master-format files, so shards never shadow a
    restartable checkpoint.

    ``ns_suffix`` names a job namespace (:meth:`namespace`): files
    ``ckpt_<count>.j<tag>[.r<rank>].pcr`` in the same directory.  The
    same mechanism as shards, one level up — a namespaced store sees
    only its own files, the master sees none of them, and a namespaced
    store can itself shard, so STRATEGY_LOCAL works inside a namespace.
    """

    def __init__(self, directory: str | os.PathLike,
                 compress_min_bytes: int | None = None,
                 shard_suffix: str = "", ns_suffix: str = "") -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        #: per-section zlib threshold (None disables compression).
        self.compress_min_bytes = compress_min_bytes
        #: bytes written by the most recent :meth:`write` (cost accounting).
        self.last_write_nbytes = 0
        #: kind of the most recent write: "full" or "recipe".
        self.last_write_kind = KIND_FULL
        #: cumulative bytes handed to the disk across the store's lifetime.
        self.total_bytes_written = 0
        #: optional async writer; when set, writes are deferred to it.
        self.writer: "AsyncCheckpointWriter | None" = None
        #: "" for the master store, ".r<rank>" for a shard sub-store.
        self.shard_suffix = shard_suffix
        #: "" outside a namespace, ".j<tag>" inside one.
        self.ns_suffix = ns_suffix
        #: ``[hook]`` called before each checkpoint publish (set by
        #: :meth:`RunLedger.begin`); shards share the cell, not the store.
        self._publish: list = [None]
        self._shards: "dict[int, CheckpointStore]" = {}
        self._shard_lock = threading.Lock()
        self._namespaces: "dict[str, CheckpointStore]" = {}

    # ------------------------------------------------------------------
    def attach_writer(self, writer: "AsyncCheckpointWriter") -> None:
        """Route subsequent writes through an asynchronous writer."""
        self.writer = writer

    @property
    def is_async(self) -> bool:
        return self.writer is not None

    def flush(self) -> None:
        """Durability barrier: no-op for sync stores, drain for async."""
        if self.writer is not None:
            self.writer.flush()

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()

    # ------------------------------------------------------------------
    def shard(self, rank: int) -> "CheckpointStore":
        """The per-rank shard sub-store for STRATEGY_LOCAL writes.

        Shards share the parent's directory, compression threshold and
        store kind (a CAS store's shards share its chunk store).  Shard
        writes are always *synchronous*: the local strategy fences every
        save between two global barriers, so an async writer would stall
        at the closing barrier anyway, and a per-rank inline write is
        exactly what the virtual-time model charges.  Cached per rank.
        """
        if self.shard_suffix:
            raise ValueError("shard stores cannot be sharded again")
        if rank < 0:
            raise ValueError("shard rank must be >= 0")
        with self._shard_lock:
            sub = self._shards.get(rank)
            if sub is None:
                sub = self._make_shard(rank)
                sub._publish = self._publish
                self._shards[rank] = sub
            return sub

    def _make_shard(self, rank: int) -> "CheckpointStore":
        return CheckpointStore(self.dir,
                               compress_min_bytes=self.compress_min_bytes,
                               shard_suffix=f".r{rank}",
                               ns_suffix=self.ns_suffix)

    # ------------------------------------------------------------------
    def namespace(self, tag: str) -> "CheckpointStore":
        """A per-job namespaced sub-store (service isolation).

        Same directory, files ``ckpt_<count>.j<tag>[.r<rank>].pcr``.
        Namespaces are invisible to the master store's listing, recovery
        and ``clear`` — and vice versa — so two concurrent jobs saving
        the same field names can never alias each other's bytes.
        Cached per tag, like shards.
        """
        if self.shard_suffix:
            raise ValueError("shard stores cannot be namespaced")
        if self.ns_suffix:
            raise ValueError("namespaces do not nest")
        safe = _ns_key(tag)
        if not safe:
            raise ValueError(f"namespace tag {tag!r} has no usable chars")
        with self._shard_lock:
            sub = self._namespaces.get(safe)
            if sub is None:
                sub = self._make_namespace(f".j{safe}")
                self._namespaces[safe] = sub
            return sub

    def drop_namespace(self, tag: str) -> None:
        """Forget a finished job's cached namespace (its files stay)."""
        with self._shard_lock:
            self._namespaces.pop(_ns_key(tag), None)

    def _make_namespace(self, ns_suffix: str) -> "CheckpointStore":
        return CheckpointStore(self.dir,
                               compress_min_bytes=self.compress_min_bytes,
                               ns_suffix=ns_suffix)

    def path_for(self, count: int) -> Path:
        return self.dir / (f"ckpt_{count:09d}"
                           f"{self.ns_suffix}{self.shard_suffix}.pcr")

    def _put(self, path: Path, image: list) -> None:
        """Persist one encoded image (a list of buffers), sync or via the
        async writer."""
        hook = self._publish[0]
        if hook is not None:
            hook()
        if self.writer is not None:
            self.writer.submit(path, image)
        else:
            atomic_write_bytes(path, image)

    def write(self, snap: Snapshot) -> Path:
        """Persist ``snap``; returns the final path.

        With no writer attached the image is durable on return; with an
        async writer it is durable only after :meth:`flush`.  Either way
        nothing here keeps a reference to a field value once this
        returns: a save's snapshot borrows the live fields, and the
        funnel writes straight from slab and segment views.
        """
        image = snap.image(self.compress_min_bytes)
        self.last_write_nbytes = image_nbytes(image)
        self.last_write_kind = KIND_FULL
        self.total_bytes_written += self.last_write_nbytes
        final = self.path_for(snap.safepoint_count)
        self._put(final, image)
        return final

    def counts(self) -> list[int]:
        """Safe-point counts of all stored checkpoints, ascending."""
        return sorted(c for _, c, r in self._files() if r == self.shard_suffix)

    def _files(self):
        """``(name, count, shard suffix)`` of this namespace's files."""
        for name in os.listdir(self.dir):
            m = PCR_NAME.match(name)
            if m and (m.group(2) or "") == self.ns_suffix:
                yield name, int(m.group(1)), m.group(3) or ""

    def open(self, count: int) -> Record:
        """The checkpoint at ``count``, opened for a copy-once restore
        (:mod:`repro.ckpt.restore`): header read, fields still on disk."""
        return open_file(self.path_for(count))

    def read(self, count: int) -> Snapshot:
        from repro.trace import schema as _tc
        from repro.trace.plane import tracer as trace_writer

        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        with self.open(count) as rec:
            snap = rec.snapshot()
        # ``disk_nbytes``: the bytes actually pulled off the disk
        # (compression makes this differ from the payload size); the
        # restore cost model charges these.
        if tr.active:
            tr.span(_tc.CKPT_READ, tw0, a=float(snap.meta["disk_nbytes"]),
                    b=float(count))
        return snap

    def read_latest(self) -> Snapshot | None:
        """Newest *intact* snapshot, or None.

        Corrupt files (torn by a crash, flipped bits) are skipped, so
        recovery degrades to an older checkpoint instead of failing.
        """
        for count in reversed(self.counts()):
            try:
                return self.read(count)
            except (SnapshotCorrupt, OSError):
                continue
        return None

    # ------------------------------------------------------------------
    # shard reassembly: the STRATEGY_LOCAL read path
    # ------------------------------------------------------------------
    def shard_counts(self) -> dict[int, list[int]]:
        """Safe-point counts with shard files on disk: count -> ranks."""
        if self.shard_suffix:
            raise ValueError("shard stores hold one rank's files only")
        out: dict[int, list[int]] = {}
        for _, count, shard in self._files():
            if shard:
                out.setdefault(count, []).append(int(shard[2:]))
        for ranks in out.values():
            ranks.sort()
        return out

    def assemble_from_shards(self, count: int,
                             partitioned: dict | None = None,
                             _ranks: list[int] | None = None
                             ) -> Snapshot | None:
        """Reassemble a master-format snapshot from per-rank shards.

        ``STRATEGY_LOCAL`` writes one same-shape shard per rank (each a
        full-size array valid only in that rank's owned region, plus the
        replicated non-partitioned SafeData).  Given the ``partitioned``
        declarations (field -> :class:`~repro.core.templates.Partitioned`,
        for the layouts), each whole array is allocated once and every
        shard reads only its owner's rows straight into it
        (:func:`~repro.ckpt.restore.assemble`) — so a run that only ever
        saved shards is restartable, in any mode, exactly like a
        master-format checkpoint.

        Returns None when no complete, intact shard set exists at
        ``count`` — recovery then degrades to an older checkpoint, the
        same contract as :meth:`read_latest`.
        """
        from repro.trace import schema as _tc
        from repro.trace.plane import tracer as trace_writer

        ranks = _ranks if _ranks is not None \
            else self.shard_counts().get(count, [])
        if 0 not in ranks:
            return None
        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        records: list[Record] = []
        try:
            records.append(self.shard(0).open(count))
            # shard 0's metadata names the membership that saved this
            # count; surplus shard files (an earlier, wider run at the
            # same count) are ignored, a missing member makes the set
            # incomplete.
            nranks = int(records[0].header["meta"].get("nranks", len(ranks)))
            if not set(range(nranks)) <= set(ranks):
                return None
            records += [self.shard(r).open(count) for r in range(1, nranks)]
            snap = assemble(records, partitioned or {})
        except (SnapshotCorrupt, OSError):
            return None
        finally:
            for rec in records:
                rec.close()
        if tr.active:
            tr.span(_tc.CKPT_ASSEMBLE, tw0, a=float(nranks), b=float(count))
        return snap

    def assemble_latest_from_shards(self, partitioned: dict | None = None
                                    ) -> Snapshot | None:
        """Newest safe point whose complete shard set reassembles.

        One directory scan serves every candidate count (the scan is
        O(files); re-listing per count would make long-run recovery
        quadratic in the number of checkpoints).
        """
        by_count = self.shard_counts()
        for count in sorted(by_count, reverse=True):
            snap = self.assemble_from_shards(count, partitioned,
                                             _ranks=by_count[count])
            if snap is not None:
                return snap
        return None

    # ------------------------------------------------------------------
    def prune(self, keep: int = 1) -> None:
        """Delete all but the ``keep`` newest checkpoints."""
        if keep < 0:
            raise ValueError("keep must be >= 0")
        self.flush()  # never prune around an in-flight write
        counts = self.counts()
        for c in counts[:max(0, len(counts) - keep)]:
            try:
                self.path_for(c).unlink()
            except OSError:
                pass

    def clear(self) -> None:
        self.prune(keep=0)
        if self.shard_suffix:
            return
        # clear live shard sub-stores, then sweep leftover shard files
        # from ranks of earlier runs.
        with self._shard_lock:
            shards = list(self._shards.values())
        for sub in shards:
            sub.clear()
        for name, _, shard in self._files():
            if shard:
                try:
                    (self.dir / name).unlink()
                except OSError:
                    pass


class RunLedger:
    """Start/finish status of the application across executions."""

    RUNNING = "running"
    COMPLETED = "completed"
    FRESH = "fresh"

    def __init__(self, directory: str | os.PathLike,
                 name: str = "run_status.json") -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / name
        self._lock = threading.Lock()
        #: a run has yet to mark ``running``; the file says ``running``
        self._armed = self._running = False

    # ------------------------------------------------------------------
    def begin(self, store: CheckpointStore) -> bool:
        """The pcr check, read once; arms the ``running`` mark on ``store``."""
        self._running = self.previous_run_failed()
        self._armed = True
        store._publish[0] = self.publishing
        return self._running

    def publishing(self) -> None:
        """Store hook: write ``running`` once per run (racers wait)."""
        with self._lock:
            if self._armed:
                self.mark_running()
                self._armed, self._running = False, True

    def finish(self) -> None:
        """End a run cleanly: ``completed``, only over ``running``."""
        self._armed = False
        if self._running:
            self.mark_completed()

    def status(self) -> str:
        if not self.path.exists():
            return self.FRESH
        try:
            return json.loads(self.path.read_text()).get("status", self.FRESH)
        except (json.JSONDecodeError, OSError):
            # a torn status write is itself evidence of a crash
            return self.RUNNING

    def previous_run_failed(self) -> bool:
        """The pcr start-up check: did the last execution crash?"""
        return self.status() == self.RUNNING

    def attempts(self) -> int:
        if not self.path.exists():
            return 0
        try:
            return int(json.loads(self.path.read_text()).get("attempts", 0))
        except (json.JSONDecodeError, OSError):
            return 0

    # ------------------------------------------------------------------
    def mark_running(self) -> None:
        self._write({"status": self.RUNNING, "attempts": self.attempts() + 1})

    def mark_completed(self) -> None:
        self._write({"status": self.COMPLETED, "attempts": self.attempts()})

    def reset(self) -> None:
        if self.path.exists():
            self.path.unlink()

    def _write(self, payload: dict) -> None:
        # fsync before the rename (and the directory after), matching
        # CheckpointStore: the status file exists precisely to survive
        # crashes, so it must not itself be tearable by one.
        atomic_write_bytes(self.path, json.dumps(payload).encode())
