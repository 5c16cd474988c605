"""An idle checkpoint funnel is not an orphaned one.

Regression tests for the drain threads of both funnels: they used to
``return`` after 600 idle seconds ("orphaned funnel: give up quietly"),
so a ``RuntimeService`` idle for ten minutes silently lost its fleet
funnel — the next job's rank-0 arena lease then hung until a bare
``queue.Empty`` — and a cold run with more than ten minutes between
checkpoints lost its write the same way.  The idle window is shrunk
here so the same thing would take a fraction of a second.

Also pinned: a worker whose request is never answered gets an error
that names the funnel and the op, not a bare ``queue.Empty``; a drain
thread that outlives ``stop()``'s wait is an error naming the funnel and
its request, not an abandoned thread writing from unmapped slabs; and a
write that fails in the parent still recycles every slab it borrowed.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
import weakref
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.ckpt import funnel as funnel_mod
from repro.ckpt import store as store_mod
from repro.ckpt.funnel import CheckpointFunnel, FunnelStore
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.store import CheckpointStore
from repro.dsm import shm
from repro.service.arena import SegmentArena
from repro.service.funnel import FleetFunnel

#: many idle windows elapse in this much quiet.
IDLE_WINDOW, QUIET = 0.02, 0.4


@pytest.fixture
def short_idle_window(monkeypatch):
    monkeypatch.setattr(funnel_mod, "IDLE_POLL_SECONDS", IDLE_WINDOW)


def _snapshot(count: int) -> Snapshot:
    return Snapshot(app="T", safepoint_count=count,
                    fields={"x": np.arange(8.0)})


def test_launch_funnel_serves_after_idling(short_idle_window, tmp_path):
    store = CheckpointStore(tmp_path)
    funnel = CheckpointFunnel(store, mp.get_context(), nranks=1)
    client = funnel.client(0)
    funnel.start()
    try:
        time.sleep(QUIET)
        assert funnel._thread.is_alive(), "drain thread gave up while idle"
        client.write(_snapshot(3))
        client.flush()
        assert client.last_write_nbytes > 0
        assert store.counts() == [3]
        np.testing.assert_array_equal(store.read(3).fields["x"],
                                      np.arange(8.0))
    finally:
        funnel.stop()
    assert funnel._thread is None


def test_fleet_funnel_serves_after_idling(short_idle_window, tmp_path):
    arena = SegmentArena(shm.new_launch_id("idle"))
    funnel = FleetFunnel(mp.get_context(), workers=1, arena=arena)
    store = CheckpointStore(tmp_path).namespace("7")
    funnel.register("j7", store)
    client = FunnelStore(rank=("j7", 0), requests=funnel.requests,
                         ack=funnel.acks[0], is_async=False, depth=0)
    funnel.start()
    try:
        time.sleep(QUIET)
        assert funnel._thread.is_alive(), "drain thread gave up while idle"
        # the next job's first RPC: rank 0's arena lease ...
        names, _, _ = client._rpc("arena", [("G", (16, 16), "<f8")])
        assert set(names) == {"G"} and arena.stats()["leased"] == 1
        # ... and its checkpoints route to the job's namespaced store
        client.write(_snapshot(2))
        assert store.counts() == [2]
    finally:
        funnel.stop()
        arena.unlink_all()
    assert shm.live_segments() == []


def test_unanswered_request_names_the_funnel_and_the_op(monkeypatch):
    monkeypatch.setattr(funnel_mod, "ACK_TIMEOUT_SECONDS", 0.05)
    ctx = mp.get_context()
    requests, ack = ctx.Queue(), ctx.Queue()
    client = FunnelStore(rank=("j1", 2), requests=requests, ack=ack,
                         is_async=False, depth=0)
    try:
        with pytest.raises(TimeoutError,
                           match=r"checkpoint funnel: no reply to 'flush'"
                                 r" for \('j1', 2\)"):
            client.flush()          # nobody is draining the requests
    finally:
        for q in (requests, ack):
            q.cancel_join_thread()
            q.close()


class _BlockingStore(CheckpointStore):
    """A store whose writes wait until the test lets them through."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.entered, self.release = threading.Event(), threading.Event()

    def write(self, snap):
        self.entered.set()
        assert self.release.wait(10.0), "test never released the write"
        return super().write(snap)


def test_stop_names_a_drain_thread_it_cannot_join(monkeypatch, tmp_path):
    monkeypatch.setattr(funnel_mod, "STOP_TIMEOUT_SECONDS", 0.1)
    store = _BlockingStore(tmp_path)
    funnel = CheckpointFunnel(store, mp.get_context(), nranks=1)
    client = funnel.client(0)
    funnel.start()
    writer = threading.Thread(target=client.write, args=(_snapshot(4),))
    writer.start()
    try:
        assert store.entered.wait(10.0)
        with pytest.raises(TimeoutError,
                           match=r"checkpoint funnel 'ckpt-funnel': drain "
                                 r"thread serving 'write' \(shard None\)"):
            funnel.stop()
        assert funnel._thread is not None and funnel._thread.is_alive()
    finally:
        store.release.set()
        writer.join(10.0)
        funnel.stop()           # the write finished: now it joins
    assert funnel._thread is None
    assert store.counts() == [4]


def test_failed_write_still_recycles_the_slabs(monkeypatch, tmp_path):
    """The parent writes from slab views and recycles them in a
    ``finally``: a store error reaches the worker, frees every slot,
    leaves the next checkpoint working, and no view outlives its write
    (``close_all`` then unmaps nothing in use)."""
    launch = shm.new_launch_id("fail")
    pool = shm.BufferPool(launch, rank=0)
    store = CheckpointStore(tmp_path)
    funnel = CheckpointFunnel(store, mp.get_context(), nranks=1)
    client = funnel.client(0)
    client.plane = shm.DataPlane(pool)
    grid = np.arange(128 * 128, dtype=np.float64).reshape(128, 128)
    assert grid.nbytes >= shm.SHM_THRESHOLD  # rides a slab

    def full_disk(path, data):
        raise OSError(28, "No space left on device")

    # spies: every slab view the parent hands a store, whether any is
    # still alive when close_all unmaps, and any BufferError it swallows
    views, alive, pinned = [], [], []
    real_view = shm.PoolClient.view
    real_close_all = shm.PoolClient.close_all
    real_close = shared_memory.SharedMemory.close

    def spy_view(self, ref):
        arr = real_view(self, ref)
        views.append(weakref.ref(arr))
        return arr

    def spy_close_all(self):
        alive.extend(w for w in views if w() is not None)
        real_close_all(self)

    def spy_close(self):
        try:
            real_close(self)
        except BufferError:
            pinned.append(self.name)
            raise

    monkeypatch.setattr(shm.PoolClient, "view", spy_view)
    monkeypatch.setattr(shm.PoolClient, "close_all", spy_close_all)
    monkeypatch.setattr(shared_memory.SharedMemory, "close", spy_close)
    funnel.start()
    try:
        with monkeypatch.context() as broken:
            broken.setattr(store_mod, "atomic_write_bytes", full_disk)
            with pytest.raises(RuntimeError,
                               match="failed in parent(.|\n)*No space left"):
                client.write(Snapshot(app="T", safepoint_count=1,
                                      fields={"G": grid, "step": 1}))
        assert pool.in_flight() == 0
        assert client.plane.slab_msgs == 1
        client.write(Snapshot(app="T", safepoint_count=2,
                              fields={"G": grid + 1, "step": 2}))
        assert pool.in_flight() == 0 and client.plane.slab_msgs == 2
        assert store.counts() == [2]
        np.testing.assert_array_equal(store.read(2).fields["G"], grid + 1)
    finally:
        try:
            funnel.stop()
        finally:
            pool.unlink_all()
    assert len(views) == 2, "the parent did not write from slab views"
    assert alive == [], "a store kept a slab view past its write"
    assert pinned == [], f"close_all left mappings pinned: {pinned}"
    assert shm.live_segments() == []
    if os.path.isdir("/dev/shm"):
        assert [n for n in os.listdir("/dev/shm") if launch in n] == []
