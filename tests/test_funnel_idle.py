"""An idle checkpoint funnel is not an orphaned one.

Regression tests for the drain threads of both funnels: they used to
``return`` after 600 idle seconds ("orphaned funnel: give up quietly"),
so a ``RuntimeService`` idle for ten minutes silently lost its fleet
funnel — the next job's rank-0 arena lease then hung until a bare
``queue.Empty`` — and a cold run with more than ten minutes between
checkpoints lost its write the same way.  The idle window is shrunk
here so the same thing would take a fraction of a second.

Also pinned: a worker whose request is never answered gets an error
that names the funnel and the op, not a bare ``queue.Empty``.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np
import pytest

from repro.ckpt import funnel as funnel_mod
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
