"""The checkpoint funnel over both links: a pipe and a TCP connection.

Regression tests for the funnel's serving thread: it used to ``return``
after 600 idle seconds ("orphaned funnel: give up quietly"), so a
``RuntimeService`` idle for ten minutes silently lost its fleet funnel —
the next job's rank-0 arena lease then hung until a bare
``queue.Empty`` — and a cold run with more than ten minutes between
checkpoints lost its write the same way.  The thread now blocks in one
``wait`` over every link until ``stop()`` wakes it.

Also pinned, on both links: a worker whose request is never answered
gets an error that names the funnel, the op and the rank, not a bare
timeout; a serving thread that outlives ``stop()``'s wait is an error
naming the funnel and its request, not an abandoned thread writing from
unmapped slabs; ``stop()`` returns at once; and a worker that dies
mid-frame costs only its own link, and one that stalls mid-frame
while alive holds up no other link.  On the pipe link: a write that
fails in the parent still recycles every slab it borrowed, for full and
for chunk-ref (CAS) writes alike.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import struct
import threading
import time
import weakref
from multiprocessing import shared_memory
from types import SimpleNamespace

import numpy as np
import pytest

from repro.ckpt import cas as cas_mod
from repro.ckpt import funnel as funnel_mod
from repro.ckpt import store as store_mod
from repro.ckpt.cas import CasCheckpointStore
from repro.ckpt.funnel import CheckpointFunnel, FunnelStore, funnel_shape
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.store import CheckpointStore
from repro.dsm import shm
from repro.service.arena import SegmentArena

#: a quiet spell in which the old idle poll would have given up many times.
QUIET = 0.4
LINKS = ["pipe", "tcp"]
needs_fork = pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                                reason="needs fork")


def _link(funnel: CheckpointFunnel, kind: str):
    return funnel.pipe() if kind == "pipe" else funnel.tcp("127.0.0.1")


def _client(funnel: CheckpointFunnel, kind: str, store,
            **kw) -> FunnelStore:
    return FunnelStore(0, _link(funnel, kind), **funnel_shape(store), **kw)


def _snapshot(count: int) -> Snapshot:
    return Snapshot(app="T", safepoint_count=count,
                    fields={"x": np.arange(8.0)})


@pytest.mark.parametrize("link", LINKS)
def test_launch_funnel_serves_after_idling(link, tmp_path):
    store = CheckpointStore(tmp_path)
    funnel = CheckpointFunnel()
    funnel.register("", store)
    client = _client(funnel, link, store)
    funnel.start()
    try:
        time.sleep(QUIET)
        assert funnel._loop.thread.is_alive(), \
            "serving thread gave up while idle"
        client.write(_snapshot(3))
        client.flush()
        assert client.last_write_nbytes > 0
        assert store.counts() == [3]
        np.testing.assert_array_equal(store.read(3).fields["x"],
                                      np.arange(8.0))
        with pytest.raises(RuntimeError, match="serves no segment arena"):
            client.lease_fields([])
    finally:
        funnel.stop()
    assert funnel._loop.thread is None


def test_fleet_funnel_serves_after_idling(tmp_path):
    arena = SegmentArena(shm.new_launch_id("idle"))
    funnel = CheckpointFunnel(arena=arena)
    store = CheckpointStore(tmp_path).namespace("7")
    funnel.register("j7", store)
    client = FunnelStore(0, funnel.pipe(), is_async=False, job="j7")
    funnel.start()
    try:
        time.sleep(QUIET)
        assert funnel._loop.thread.is_alive(), \
            "serving thread gave up while idle"
        # the next job's first RPC: rank 0's arena lease ...
        names = client.lease_fields([("G", (16, 16), np.dtype("<f8"))])
        assert set(names) == {"G"} and arena.stats()["leased"] == 1
        # ... and its checkpoints route to the job's namespaced store
        client.write(_snapshot(2))
        assert store.counts() == [2]
    finally:
        funnel.stop()
        arena.unlink_all()
    assert shm.live_segments() == []


@pytest.mark.parametrize("link", LINKS)
def test_unanswered_request_names_the_funnel_and_the_op(link, monkeypatch):
    monkeypatch.setattr(funnel_mod, "ACK_TIMEOUT_SECONDS", 0.05)
    funnel = CheckpointFunnel()         # never started: nobody answers
    client = FunnelStore(2, _link(funnel, link), is_async=False, job="j1")
    try:
        with pytest.raises(TimeoutError,
                           match=r"checkpoint funnel: no reply to 'flush'"
                                 r" for rank 2 of job 'j1'"):
            client.flush()
    finally:
        funnel.stop()


class _BlockingStore(CheckpointStore):
    """A store whose writes wait until the test lets them through."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.entered, self.release = threading.Event(), threading.Event()

    def write(self, snap):
        self.entered.set()
        assert self.release.wait(10.0), "test never released the write"
        return super().write(snap)


@pytest.mark.parametrize("link", LINKS)
def test_stop_names_a_drain_thread_it_cannot_join(link, monkeypatch,
                                                  tmp_path):
    monkeypatch.setattr(funnel_mod, "STOP_TIMEOUT_SECONDS", 0.1)
    store = _BlockingStore(tmp_path)
    funnel = CheckpointFunnel()
    funnel.register("", store)
    client = _client(funnel, link, store)
    funnel.start()
    writer = threading.Thread(target=client.write, args=(_snapshot(4),))
    writer.start()
    try:
        assert store.entered.wait(10.0)
        with pytest.raises(TimeoutError,
                           match=r"checkpoint funnel 'ckpt-funnel': drain "
                                 r"thread serving 'write' \(shard None\)"):
            funnel.stop()
        thread = funnel._loop.thread
        assert thread is not None and thread.is_alive()
    finally:
        store.release.set()
        writer.join(10.0)
        assert not writer.is_alive()
        funnel.stop()           # the write finished: now it joins
    assert funnel._loop.thread is None
    assert store.counts() == [4]


@pytest.mark.parametrize("link", LINKS)
def test_stop_returns_promptly(link, tmp_path):
    """A launch stops its funnel once: waking the serving thread's wait
    (no timed poll) keeps that free."""
    store = CheckpointStore(tmp_path)
    for _ in range(5):
        funnel = CheckpointFunnel()
        funnel.register("", store)
        client = _client(funnel, link, store)
        funnel.start()
        client.flush()          # the link is in the serving thread's wait
        time.sleep(0.005)
        t0 = time.perf_counter()
        funnel.stop()
        assert time.perf_counter() - t0 < 0.05
        assert funnel._loop.thread is None


def _torn_frame(link) -> None:
    """Promise a 100-byte frame, send 3 bytes of it, and die."""
    frame = struct.pack("!i", 100) + b"abc"
    if isinstance(link, tuple):
        socket.create_connection(link).sendall(frame)
    else:
        os.write(link.fileno(), frame)
    os._exit(0)


@needs_fork
@pytest.mark.parametrize("link", LINKS)
def test_torn_frame_drops_only_that_link(link, tmp_path):
    store = CheckpointStore(tmp_path)
    funnel = CheckpointFunnel()
    funnel.register("", store)
    client = _client(funnel, link, store)
    funnel.start()
    try:
        client.write(_snapshot(1))
        torn = _link(funnel, link)
        p = mp.get_context("fork").Process(target=_torn_frame, args=(torn,))
        p.start()
        if link == "pipe":
            torn.close()        # the child holds the worker end now
        p.join(10.0)
        assert p.exitcode == 0
        client.write(_snapshot(2))  # the healthy link is still served
        deadline = time.monotonic() + 5.0
        while len(funnel._loop.links) > 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(funnel._loop.links) == 1, "the torn link was not dropped"
        assert store.counts() == [1, 2]
    finally:
        funnel.stop()


@pytest.mark.parametrize("link", LINKS)
def test_a_link_stalled_mid_frame_holds_up_no_other(link, monkeypatch,
                                                     tmp_path):
    """A worker that is alive but has sent only part of a frame must not
    hold up another worker's write: the funnel used to block reading
    the rest of that frame until the stalled worker exited."""
    monkeypatch.setattr(funnel_mod, "ACK_TIMEOUT_SECONDS", 2.0)
    store = CheckpointStore(tmp_path)
    funnel = CheckpointFunnel()
    funnel.register("", store)
    client = _client(funnel, link, store)
    stalled = _link(funnel, link)
    funnel.start()
    try:
        if link == "tcp":
            stalled = socket.create_connection(stalled)
        os.write(stalled.fileno(), struct.pack("!i", 100) + b"abc")
        time.sleep(0.2)         # the half frame reaches the funnel first
        t0 = time.monotonic()
        client.write(_snapshot(1))
        assert time.monotonic() - t0 < 2.0
        assert store.counts() == [1]
    finally:
        stalled.close()
        funnel.stop()


@pytest.fixture
def slab_spy(monkeypatch):
    """Every slab view the parent hands a store (weakly), any still
    alive when ``close_all`` unmaps, and any mapping it left pinned."""
    spy = SimpleNamespace(views=[], alive=[], pinned=[])
    real_view = shm.PoolClient.view
    real_close_all = shm.PoolClient.close_all
    real_close = shared_memory.SharedMemory.close

    def spy_view(self, ref):
        arr = real_view(self, ref)
        spy.views.append(weakref.ref(arr))
        return arr

    def spy_close_all(self):
        spy.alive.extend(w for w in spy.views if w() is not None)
        real_close_all(self)

    def spy_close(self):
        try:
            real_close(self)
        except BufferError:
            spy.pinned.append(self.name)
            raise

    monkeypatch.setattr(shm.PoolClient, "view", spy_view)
    monkeypatch.setattr(shm.PoolClient, "close_all", spy_close_all)
    monkeypatch.setattr(shared_memory.SharedMemory, "close", spy_close)
    return spy


def _full_disk(path, data):
    raise OSError(28, "No space left on device")


def _assert_unmapped_cleanly(spy, launch: str) -> None:
    assert spy.alive == [], "a store kept a slab view past its write"
    assert spy.pinned == [], f"close_all left mappings pinned: {spy.pinned}"
    assert shm.live_segments() == []
    if os.path.isdir("/dev/shm"):
        assert [n for n in os.listdir("/dev/shm") if launch in n] == []


def test_failed_write_still_recycles_the_slabs(slab_spy, monkeypatch,
                                               tmp_path):
    """The parent writes from slab views and recycles them in a
    ``finally``: a store error reaches the worker, frees every slot,
    leaves the next checkpoint working, and no view outlives its write
    (``close_all`` then unmaps nothing in use)."""
    launch = shm.new_launch_id("fail")
    pool = shm.BufferPool(launch, rank=0)
    store = CheckpointStore(tmp_path)
    funnel = CheckpointFunnel()
    funnel.register("", store)
    client = _client(funnel, "pipe", store)
    client.plane = shm.DataPlane(pool)
    grid = np.arange(128 * 128, dtype=np.float64).reshape(128, 128)
    assert grid.nbytes >= shm.SHM_THRESHOLD  # rides a slab
    funnel.start()
    try:
        with monkeypatch.context() as broken:
            broken.setattr(store_mod, "atomic_write_bytes", _full_disk)
            with pytest.raises(RuntimeError,
                               match="failed in parent(.|\n)*No space left"):
                client.write(Snapshot(app="T", safepoint_count=1,
                                      fields={"G": grid, "step": 1}))
        assert pool.in_flight() == 0
        assert pool.leases == 1
        client.write(Snapshot(app="T", safepoint_count=2,
                              fields={"G": grid + 1, "step": 2}))
        assert pool.in_flight() == 0 and pool.leases == 2
        assert store.counts() == [2]
        np.testing.assert_array_equal(store.read(2).fields["G"], grid + 1)
    finally:
        try:
            funnel.stop()
        finally:
            pool.unlink_all()
    assert len(slab_spy.views) == 2, "the parent did not write from slab views"
    _assert_unmapped_cleanly(slab_spy, launch)


def test_failed_chunked_write_still_recycles_the_slab(slab_spy, monkeypatch,
                                                      tmp_path):
    """The chunk-ref write's missing chunks ride one slab buffer, and the
    parent stores them as slices of one read-only view of it: a failed
    pack write frees the slot, and no slice outlives either write."""
    launch = shm.new_launch_id("failcas")
    pool = shm.BufferPool(launch, rank=0)
    store = CasCheckpointStore(tmp_path)
    funnel = CheckpointFunnel()
    funnel.register("", store)
    client = _client(funnel, "pipe", store)
    client.plane = shm.DataPlane(pool)
    grid = np.arange(128 * 128, dtype=np.float64).reshape(128, 128)
    funnel.start()
    try:
        with monkeypatch.context() as broken:
            broken.setattr(cas_mod, "atomic_write_bytes", _full_disk)
            with pytest.raises(RuntimeError,
                               match="failed in parent(.|\n)*No space left"):
                client.write(Snapshot(app="T", safepoint_count=1,
                                      fields={"G": grid, "step": 1}))
        assert pool.in_flight() == 0 and pool.leases == 1
        assert [w for w in slab_spy.views if w() is not None] == []
        client.write(Snapshot(app="T", safepoint_count=2,
                              fields={"G": grid + 1, "step": 2}))
        assert pool.in_flight() == 0 and pool.leases == 2
        assert [w for w in slab_spy.views if w() is not None] == []
        assert store.counts() == [2]
        np.testing.assert_array_equal(store.read(2).fields["G"], grid + 1)
    finally:
        try:
            funnel.stop()
        finally:
            pool.unlink_all()
    assert len(slab_spy.views) == 2, "the chunks did not ride one slab each"
    _assert_unmapped_cleanly(slab_spy, launch)
