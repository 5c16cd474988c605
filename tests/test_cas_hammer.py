"""CAS publish-versus-GC hammer: k writer threads and one collector.

One :class:`~repro.ckpt.cas.CasCheckpointStore` (one
:class:`~repro.ckpt.cas.ChunkStore` and its one lock), in the shape the
service daemon runs it: every job writes in a namespace of its own, and
a finished job's namespace is cleared and the CAS collected while other
jobs keep writing.  Each of ``WRITERS`` threads writes ``ROUNDS``
checkpoints, each into a fresh namespace.  Two fields of every
checkpoint are taken from a small pool of block patterns, so a write
dedups blocks other namespaces hold, and those blocks lose their last
reference whenever the namespaces holding them are cleared; a third
field is the writer's own, so every write also stores new chunks.

Half the writers write the way a master store does (``write``).  The
other half write the way the funnel ships a rank's save:
``cas.missing()``, then ``write_chunked`` with only the missing chunks
and, on ``CAS_CHUNK_MISSING`` (the presence answer went stale under a
GC), one retry with every chunk.  A writer checks its checkpoint, then
hands the namespace to the collector thread, which clears it (a clear
runs ``gc()``); with nothing handed over the collector runs ``gc()``
anyway.  Each writer's last namespace stays.

What must hold:

* every write succeeds (a funnel write on its retry at the latest);
* right after its write, and again at the end, every recipe verifies
  clean (``verify(count) == []``) and reads back bit-identical: no GC
  swept a chunk that a published recipe references;
* after a final ``gc()`` no stored chunk is unreferenced.
"""

from __future__ import annotations

import queue
import random
import threading

import numpy as np

from repro.ckpt import CasCheckpointStore, ChunkCorrupt, Snapshot
from repro.ckpt.chunker import BLOCK, field_chunks
from repro.ckpt.funnel import CAS_CHUNK_MISSING
from repro.ckpt.snapshot import KIND_RECIPE
from repro.util.serialization import dumps_portable

WRITERS = 4
ROUNDS = 30
POOL = 8            # block patterns the shared fields are drawn from
PATTERN_BLOCKS = 4  # data blocks per pattern
DEADLINE = 60.0


def _pattern(k: int) -> np.ndarray:
    """Pattern ``k``: every data block distinct, the same in every
    namespace that draws it."""
    n = PATTERN_BLOCKS * BLOCK // 8
    return np.arange(k * n, (k + 1) * n, dtype=np.int64)


def _funnel_write(ns: CasCheckpointStore, snap: Snapshot) -> None:
    """The funnel's chunk-ref write (``FunnelStore._write_chunked``)."""
    refs, payloads = {}, {}
    for name, value in snap.fields.items():
        pieces = field_chunks(value)
        refs[name] = [(d, len(p)) for d, p in pieces]
        payloads.update(pieces)
    missing = ns.cas.missing(payloads)
    try:
        ns.write_chunked(snap.header(KIND_RECIPE), refs,
                         {d: payloads[d] for d in missing})
    except ChunkCorrupt as exc:
        assert CAS_CHUNK_MISSING in str(exc)
        ns.write_chunked(snap.header(KIND_RECIPE), refs, payloads)


def _check(ns: CasCheckpointStore, count: int, fields: dict) -> None:
    assert ns.verify(count) == []
    got = ns.read(count).fields
    assert list(got) == list(fields)
    for name, value in fields.items():
        assert dumps_portable(got[name]) == dumps_portable(value), name


def test_publish_never_loses_a_chunk_to_a_concurrent_gc(tmp_path):
    root = CasCheckpointStore(tmp_path)
    handed: queue.Queue = queue.Queue()
    kept: dict[str, dict] = {}
    errors: list[BaseException] = []
    writing = threading.Semaphore(0)

    def writer(w: int) -> None:
        rng = random.Random(w)
        try:
            for r in range(ROUNDS):
                tag = f"w{w}n{r}"
                ns = root.namespace(tag)
                fields = {"a": _pattern(rng.randrange(POOL)),
                          "b": _pattern(rng.randrange(POOL)),
                          "own": np.full(700, w * ROUNDS + r, np.float64),
                          "round": r}
                snap = Snapshot(app="H", safepoint_count=r + 1,
                                fields=fields)
                if w % 2:
                    _funnel_write(ns, snap)
                else:
                    ns.write(snap)
                _check(ns, r + 1, fields)
                if r < ROUNDS - 1:
                    handed.put(tag)
                else:
                    kept[tag] = fields
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            writing.release()

    def collector() -> None:
        done = 0
        try:
            while done < WRITERS or not handed.empty():
                while writing.acquire(blocking=False):
                    done += 1
                try:
                    tag = handed.get(timeout=0.002)
                except queue.Empty:
                    root.gc()
                    continue
                root.namespace(tag).clear()
                root.drop_namespace(tag)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(w,), daemon=True)
               for w in range(WRITERS)]
    threads.append(threading.Thread(target=collector, daemon=True))
    for t in threads:
        t.start()
    for t in threads:
        t.join(DEADLINE)
    assert not any(t.is_alive() for t in threads), "hammer hung"
    assert errors == [], errors[0]
    assert len(kept) == WRITERS
    for tag, fields in kept.items():
        _check(root.namespace(tag), ROUNDS, fields)
    root.gc()
    assert root.unreferenced() == set()
    # only the kept namespaces' recipes are left
    assert len(list(root._files(every_run=True))) == 0
    assert sum(len(list(root.namespace(tag)._files()))
               for tag in kept) == WRITERS
