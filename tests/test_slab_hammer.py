"""Slab pool hammer: one owner leases, k receivers fetch and release.

:class:`~repro.dsm.shm.BufferPool` is lock-free: the owner flips a
slab's header word free -> leased, a receiver (through its own
:class:`~repro.dsm.shm.PoolClient` mapping) flips it back.  Here one
owner streams ``MESSAGES`` payloads, round robin, to k receivers (threads
of this process, or forked processes), each payload filled with its own
message number.  Every 97th payload is too large for the ring's slabs,
so a free slot is unlinked and re-created larger while receivers still
map its old generation.  The receivers start gated: the owner fills the
whole ring first, so the lease after that must fall back.  After that
every fifth lease does not wait, so more fall back whenever the
receivers lag.

A receiver copies a payload out, posts its ack, then releases the slab.
Each receiver acks on a channel of its own (with one writer, a small
frame is in the pipe when ``put`` returns), so the owner can see a slab
free only after that slab's ack is in its pipe.  What must hold:

* no slot is granted twice while in flight: when a lease returns a slot,
  the message last sent in it has been acked;
* every payload arrives as it was sent, regrown slabs included;
* leases equal releases, and ``in_flight() == 0`` at the end;
* every fallback is counted: the leases that returned None equal
  ``pool.fallbacks``;
* no ``ppshm-*`` name of the pool is left after ``unlink_pool``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import sys
import threading

import numpy as np
import pytest

from repro.dsm import shm
from repro.dsm.procmail import Channel

FORK = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
    else None
MESSAGES = 1500
SMALL = 40 << 10   # rides a MIN_SLAB slab
BIG = 200 << 10    # forces a free slab to regrow
DEADLINE = 30.0


def _payload(i: int, nbytes: int) -> np.ndarray:
    return np.full(nbytes // 8, i, dtype=np.int64)


def _receive(r: int, inbox, acks, gate) -> None:
    """Take refs until None: copy each out, ack it, then release it."""
    client = shm.PoolClient()
    released = 0
    try:
        gate.wait(DEADLINE)
        while True:
            item = inbox.get(timeout=DEADLINE)
            if item is None:
                break
            i, ref = item
            view = client.view(ref)
            got = view.copy()
            del view
            acks.put((i, bool(np.array_equal(
                got, _payload(i, ref.nbytes)))))
            client.release(ref)
            released += 1
    finally:
        client.close_all()
        acks.put(("done", r, released))


def _spawn(kind: str, k: int, inboxes, acks, gate) -> list:
    if kind == "thread":
        return [threading.Thread(target=_receive, daemon=True,
                                 args=(r, inboxes[r], acks[r], gate))
                for r in range(k)]
    return [FORK.Process(target=_receive, daemon=True,
                         args=(r, inboxes[r], acks[r], gate))
            for r in range(k)]


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("kind", [
    "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        FORK is None, reason="the receivers are forked processes"))])
def test_lease_recycle_hammer(kind, k):
    ctx = FORK if kind == "process" else None
    launch_id = shm.new_launch_id()
    inboxes = [Channel(ctx) for _ in range(k)]
    acks = [Channel(ctx) for _ in range(k)]
    gate = (FORK.Event() if kind == "process" else threading.Event())
    workers = _spawn(kind, k, inboxes, acks, gate)
    pool = shm.BufferPool(launch_id, 0)
    switch = sys.getswitchinterval()
    if kind == "thread":
        sys.setswitchinterval(1e-6)  # interleave the receiver threads
    unacked: dict[int, int] = {}  # slot -> the message last sent in it
    slot_of: dict[int, int] = {}  # message -> slot, until acked
    bad: list[int] = []
    done: dict[int, int] = {}
    state = {"acked": 0}
    fallbacks = 0

    def take(ack) -> None:
        if ack[0] == "done":
            done[ack[1]] = ack[2]
            return
        i, intact = ack
        if not intact:
            bad.append(i)
        del unacked[slot_of.pop(i)]
        state["acked"] += 1

    def drain() -> None:
        for ch in acks:
            while True:
                try:
                    take(ch.get_nowait())
                except queue.Empty:
                    break

    try:
        for w in workers:
            w.start()
        sent = 0
        for i in range(MESSAGES):
            if i == shm.POOL_SLOTS:
                # every slot is held by a gated receiver: nothing frees
                assert pool.lease(SMALL, wait=False) is None
                fallbacks += 1
                gate.set()
            nbytes = BIG if i % 97 == 96 else SMALL
            lease = pool.lease(nbytes, wait=i % 5 != 0)
            if lease is None:
                fallbacks += 1
                continue
            drain()
            assert lease.slot not in unacked, (
                f"slot {lease.slot} granted for message {i} while message "
                f"{unacked[lease.slot]} was still in flight in it")
            ref = lease.fill(_payload(i, nbytes))
            unacked[lease.slot] = i
            slot_of[i] = lease.slot
            inboxes[i % k].put((i, ref))
            sent += 1
        for inbox in inboxes:
            inbox.put(None)
        for r in range(k):
            while r not in done:
                take(acks[r].get(timeout=DEADLINE))
        for w in workers:
            w.join(DEADLINE)
            assert not w.is_alive() and getattr(w, "exitcode", 0) == 0
        assert not bad, f"payloads overwritten in flight: {bad[:10]}"
        assert state["acked"] == sent and not unacked
        assert sum(done.values()) == sent == pool.leases
        assert pool.in_flight() == 0
        assert fallbacks == pool.fallbacks >= 1
        assert max(s.capacity for s in pool._slabs if s) > shm.MIN_SLAB
    finally:
        sys.setswitchinterval(switch)
        gate.set()
        for inbox in inboxes:
            inbox.put(None)
        for w in workers:
            if w.ident is not None:  # started
                w.join(DEADLINE)
        pool.close()
        shm.unlink_pool(launch_id, 1)
        for ch in [*inboxes, *acks]:
            ch.close()
    prefix = shm.segment_name(launch_id, "")
    assert not [n for n in shm.live_segments() if n.startswith(prefix)]
    if os.path.isdir("/dev/shm"):
        assert not [n for n in os.listdir("/dev/shm")
                    if n.startswith(prefix)]
