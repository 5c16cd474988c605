"""Asynchronous checkpoint writer: fsync+rename off the critical path.

The paper's headline checkpoint cost (Figures 3-4) is dominated by the
synchronous write of the application data at the safe point.  Following
the standard double-buffering discipline for overlapping I/O with
computation, :class:`AsyncCheckpointWriter` lets ``CheckpointStore.write``
return as soon as the image is handed over — ``submit`` joins its
buffers into bytes the writer owns, the one in-memory copy on that path
(the image views the live fields of a borrowed snapshot, and the save's
fence lets the application mutate them once ``write`` returns); a
synchronous store writes the buffers straight to the file instead — and
a dedicated worker thread performs the atomic temp-file + fsync + rename
sequence while the application computes on.

Correctness contract:

* ``submit`` applies backpressure: at most :data:`DEPTH` images may be
  queued behind the one being written, so a checkpoint storm cannot
  grow memory without bound — the safe point blocks exactly when the
  queue is full, which is also when the virtual-time cost model
  (``ExecutionContext._charge_write``) charges a stall.
* ``flush`` is the durability barrier: it returns only once every
  submitted checkpoint is fully on disk.  The runtime drains the writer
  at every adaptation/failure/completion boundary, so recovery never
  races an in-flight write.
* a write error is sticky: it re-raises at the next ``submit``/``flush``
  so a silently-failing disk cannot masquerade as a healthy checkpoint
  chain.
"""

from __future__ import annotations

import os
import queue
import tempfile
import threading
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro.trace import schema as _tc
from repro.trace.plane import tracer as trace_writer


#: file buffer of :func:`atomic_write_bytes`: small pieces (a CAS pack's
#: ~4 KiB entries) coalesce into few syscalls, pieces larger than it
#: (a captured array) go to the file directly.
WRITE_BUFFER_BYTES = 1 << 20

#: images an :class:`AsyncCheckpointWriter` queues behind the one being
#: written (its double buffer; the cost model charges the same depth).
DEPTH = 2


def _pieces(data) -> Sequence:
    """One bytes-like object, or a sequence of them, as a sequence."""
    return (data,) if isinstance(data, (bytes, bytearray, memoryview)) \
        else data


def atomic_write_bytes(path: Path, data) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    ``data`` is one bytes-like object or a sequence of them, written in
    order (a checkpoint image is a list of buffers, some of them views
    of the captured arrays, so nothing is joined first).

    temp file in the same directory -> write -> fsync(file) ->
    rename over the target -> fsync(directory), so a crash at any point
    leaves either the old file or the new one, never a torn mix, and the
    rename itself survives a power cut.
    """
    path = Path(path)
    pieces = _pieces(data)
    tr = trace_writer()  # no-op on the async worker thread (unbound)
    tw0 = perf_counter() if tr.active else 0.0
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb", buffering=WRITE_BUFFER_BYTES) as fh:
            for piece in pieces:
                fh.write(piece)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        fsync_dir(path.parent)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    if tr.active:
        tr.span(_tc.CKPT_WRITE, tw0, a=float(sum(map(len, pieces))))


def fsync_dir(directory: Path) -> None:
    """fsync a directory so a rename inside it is durable."""
    try:
        dfd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(dfd)
    except OSError:  # pragma: no cover - directories not fsync-able here
        pass
    finally:
        os.close(dfd)


class AsyncWriteFailed(RuntimeError):
    """A background checkpoint write failed (re-raised at the barrier)."""


class AsyncCheckpointWriter:
    """Bounded-queue background writer with a ``flush()`` barrier."""

    def __init__(self) -> None:
        self._q: queue.Queue = queue.Queue(maxsize=DEPTH)
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._error: BaseException | None = None
        self._closed = False
        #: total payload bytes handed to the worker (observability).
        self.bytes_submitted = 0
        #: total files the worker has durably written.
        self.writes_completed = 0
        #: wall seconds the worker spent inside disk writes — the
        #: overlap the async design buys (scraped into the registry as
        #: ``repro_ckpt_writer_busy_seconds_total`` at run end).
        self.busy_seconds = 0.0

    # ------------------------------------------------------------------
    def _ensure_thread(self) -> None:
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._worker, name="ckpt-writer", daemon=True)
                self._thread.start()

    def _raise_pending(self) -> None:
        with self._lock:
            err, self._error = self._error, None
        if err is not None:
            raise AsyncWriteFailed(
                f"background checkpoint write failed: {err}") from err

    def submit(self, path: Path, data) -> None:
        """Hand a finished checkpoint image to the worker.

        ``data`` is bytes or a list of buffers; it is joined into bytes
        the writer owns — the one in-memory copy on this path, needed
        because the caller's buffers may be views of memory that changes
        once it returns (live fields, a funnel's slabs or borrowed
        segment regions).  Returns once the bytes are
        enqueued; blocks only when :data:`DEPTH` images are already queued
        behind the one in flight.
        """
        if self._closed:
            raise RuntimeError("writer is closed")
        self._raise_pending()
        data = b"".join(_pieces(data))
        self._ensure_thread()
        with self._lock:
            # concurrently reachable: STRATEGY_LOCAL shard stores share
            # one writer across rank threads.
            self.bytes_submitted += len(data)
        self._q.put((Path(path), data))

    def flush(self) -> None:
        """Durability barrier: block until everything submitted is on disk."""
        tr = trace_writer()
        if tr.active:
            tw0 = perf_counter()
            pending = float(self._q.unfinished_tasks)
            self._q.join()
            tr.span(_tc.CKPT_FLUSH, tw0, a=pending)
        else:
            self._q.join()
        self._raise_pending()

    def close(self) -> None:
        """Drain, stop the worker thread, and surface any pending error."""
        if self._closed:
            return
        self._q.join()
        self._closed = True
        with self._lock:
            thread = self._thread
        if thread is not None and thread.is_alive():
            self._q.put(None)
            thread.join(timeout=10.0)
        self._raise_pending()

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            item = self._q.get()
            try:
                if item is None:
                    return
                path, data = item
                try:
                    t0 = perf_counter()
                    atomic_write_bytes(path, data)
                    self.busy_seconds += perf_counter() - t0
                    self.writes_completed += 1
                except BaseException as exc:
                    with self._lock:
                        self._error = exc
            finally:
                self._q.task_done()
