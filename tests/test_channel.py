"""The rank channel: a feeder-free pipe under the process mailboxes.

:class:`~repro.dsm.procmail.Channel` replaced one ``multiprocessing.Queue``
per rank on the per-iteration message path.  ``put`` pickles and writes
in the calling thread, so what it must keep from the queue's feeder is
the part that made the feeder safe:

* ``put`` never blocks on a peer that is not reading — two ranks that
  both send 1 MiB before either receives (no data plane, so the bytes
  ride the pipes) complete instead of deadlocking;
* frames stay whole and per-sender FIFO when four writers — threads or
  forked processes, frames of 64 B to 2 MiB — hammer one channel;
* a sender that exits right after a frame larger than the pipe still
  delivers it (the flusher is joined at exit), unless its mailbox was
  closed on the unwind path;
* a parent draining a channel while its owner reads never tears a
  frame, and a forked child starts with none of its parent's backlog;
* a reader killed while it waits in ``get`` leaves the channel
  readable by the next process;
* a channel crosses a ``spawn`` start as a process argument;
* a closed mailbox refuses ``put`` with ``MailboxClosed``.

The mailbox conformance suite in ``tests/test_transport.py`` also runs
verbatim over this channel (its ``"pipe"`` fabric).
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue
import sys
import threading
import time
from collections import namedtuple

import numpy as np
import pytest

from repro.dsm.comm import RankContext, _bind
from repro.dsm.mailbox import Mailbox, MailboxClosed, Message
from repro.dsm.procmail import Channel, ProcCommunicator
from repro.exec.multiproc import drain_queues
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel

if "fork" not in mp.get_all_start_methods():
    pytest.skip("the hammers fork their writers", allow_module_level=True)

FORK = mp.get_context("fork")
MACHINE = MachineModel(nodes=2, cores_per_node=4)
MIB = 1 << 20
#: under a page, one page, just over the 64 KiB pipe, two MiB.
SIZES = (64, 4096, 65537, 2 * MIB)


def blob(rank: int, i: int, size: int) -> bytes:
    return bytes([(31 * rank + i) % 251]) * size


def msg(src, tag, payload=None):
    return Message(src=src, dst=0, tag=tag, payload=payload, nbytes=8,
                   arrival=0.0)


def _reap(procs) -> None:
    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)


# ---------------------------------------------------------------------------
# put never blocks on a peer that is not reading
# ---------------------------------------------------------------------------
def _exchange(rank: int, channels, out) -> None:
    comm = ProcCommunicator(rank, 2, MACHINE, channels)  # no data plane
    _bind(RankContext(rank=rank, nranks=2, clock=VClock(), comm=comm))
    try:
        comm.send(np.full(MIB // 8, float(rank)), dest=1 - rank)
        got = comm.recv(source=1 - rank)
        out.put((rank, float(got[0]), got.nbytes))
    finally:
        _bind(None)


def test_mutual_mib_sendrecv_without_a_data_plane_completes():
    """Both ranks send 1 MiB before either receives: with a blocking
    pipe write each would wait for the other's read forever."""
    channels = [Channel(FORK) for _ in range(2)]
    out = Channel(FORK)
    procs = [FORK.Process(target=_exchange, args=(r, channels, out),
                          daemon=True) for r in range(2)]
    t0 = time.monotonic()
    try:
        for p in procs:
            p.start()
        got = {}
        for _ in range(2):
            rank, first, nbytes = out.get(timeout=5.0)
            got[rank] = (first, nbytes)
        for p in procs:
            p.join(timeout=5.0)
        assert time.monotonic() - t0 < 5.0
    finally:
        _reap(procs)
    assert got == {0: (1.0, MIB), 1: (0.0, MIB)}
    assert [p.exitcode for p in procs] == [0, 0]


# ---------------------------------------------------------------------------
# the hammer: whole frames, per-sender FIFO, threads and processes
# ---------------------------------------------------------------------------
Parallel = namedtuple("Parallel", ("spawn", "barrier"))
PARALLELS = {"thread": Parallel(threading.Thread, threading.Barrier),
             "process": Parallel(FORK.Process, FORK.Barrier)}


class ParallelLoop:
    """``n`` writers run ``loop(rank, i)`` ``count`` times behind one
    start barrier while the caller's thread runs ``check()`` until they
    are done — the same body over threads and forked processes."""

    def __init__(self, parallel: Parallel, n: int, count: int) -> None:
        self.parallel = parallel
        self.n = n
        self.count = count
        self.barrier = parallel.barrier(n + 1)

    def target(self, rank: int) -> None:
        self.barrier.wait(timeout=30.0)
        for i in range(1, self.count + 1):
            self.loop(rank, i)

    def run(self) -> None:
        procs = [self.parallel.spawn(target=self.target, args=(r,),
                                     daemon=True) for r in range(self.n)]
        for p in procs:
            p.start()
        self.barrier.wait(timeout=30.0)
        try:
            while any(p.is_alive() for p in procs):
                self.check()
        finally:
            for p in procs:
                p.join(timeout=60.0)
                assert not p.is_alive(), "writer never finished"


class ChannelHammer(ParallelLoop):
    def __init__(self, parallel: Parallel, n: int, count: int) -> None:
        super().__init__(parallel, n, count)
        self.channel = Channel(FORK)
        self.seen: dict[int, list[int]] = {r: [] for r in range(n)}
        self.torn: list = []

    def loop(self, rank: int, i: int) -> None:
        self.channel.put((rank, i, blob(rank, i, SIZES[i % len(SIZES)])))

    def check(self, timeout: float = 0.05) -> bool:
        try:
            rank, i, data = self.channel.get(timeout=timeout)
        except queue.Empty:
            return False
        if data != blob(rank, i, SIZES[i % len(SIZES)]):
            self.torn.append((rank, i))
        self.seen[rank].append(i)
        return True

    def received(self) -> int:
        return sum(len(v) for v in self.seen.values())


@pytest.mark.parametrize("kind", sorted(PARALLELS))
def test_writers_hammer_one_channel_frames_whole_and_fifo(kind):
    """Four writers, frames from 64 B to 2 MiB: what the pipe cannot
    take goes to each sender's flusher, and nothing tears or reorders."""
    hammer = ChannelHammer(PARALLELS[kind], n=4, count=24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # thread writers: interleave hard
    try:
        hammer.run()
        # thread writers finish before their process's flusher drains
        deadline = time.monotonic() + 30.0
        while hammer.received() < 4 * 24 and time.monotonic() < deadline:
            hammer.check(timeout=1.0)
    finally:
        sys.setswitchinterval(interval)
    assert hammer.torn == []
    for rank, order in hammer.seen.items():
        assert order == list(range(1, 25)), f"writer {rank} reordered"
    assert not hammer.check(timeout=0.1), "a frame arrived twice"


# ---------------------------------------------------------------------------
# exit: deliver what the flusher holds, unless the unwind cancelled it
# ---------------------------------------------------------------------------
def _put(channel, obj) -> None:
    channel.put(obj)


def _put_then_close_mailbox(channel, obj) -> None:
    channel.put(obj)
    Mailbox(0, channel).close()  # the unwind path


def test_sender_that_exits_after_an_oversized_put_still_delivers():
    ch = Channel(FORK)
    data = blob(3, 5, 2 * MIB)  # far past the 64 KiB pipe
    p = FORK.Process(target=_put, args=(ch, data), daemon=True)
    p.start()
    try:
        time.sleep(0.3)
        # the exit waits on the flusher, which waits on this reader
        assert p.is_alive()
        assert ch.get(timeout=10.0) == data
        p.join(timeout=10.0)
    finally:
        _reap([p])
    assert p.exitcode == 0


def test_a_closed_mailbox_lets_its_process_exit_undelivered():
    ch = Channel(FORK)
    p = FORK.Process(target=_put_then_close_mailbox,
                     args=(ch, blob(1, 1, 2 * MIB)), daemon=True)
    p.start()
    try:
        p.join(timeout=5.0)
        assert p.exitcode == 0, "exit waited on a reader nobody runs"
    finally:
        _reap([p])


# ---------------------------------------------------------------------------
# readers: a parent drain racing the owner, and fork hygiene
# ---------------------------------------------------------------------------
def _writer(channel, n: int) -> None:
    for i in range(n):
        channel.put((i, blob(0, i, SIZES[i % len(SIZES)])))


def _owner(channel, out) -> None:
    got, torn = 0, 0
    while True:
        item = channel.get(timeout=30.0)
        if item == "end":
            break
        i, data = item
        got += 1
        torn += data != blob(0, i, SIZES[i % len(SIZES)])
    out.put((got, torn))


def test_parent_drain_racing_the_owner_never_tears_a_frame():
    """``drain_queues`` and the owner's ``get`` both read whole frames
    under the read lock: a torn frame would unpickle to garbage (or
    raise) on one side and desynchronise the other."""
    ch, out = Channel(FORK), Channel(FORK)
    owner = FORK.Process(target=_owner, args=(ch, out), daemon=True)
    writer = FORK.Process(target=_writer, args=(ch, 60), daemon=True)
    owner.start()
    writer.start()
    try:
        while writer.is_alive():
            drain_queues([ch])  # raises on a torn frame
        writer.join(timeout=10.0)
        ch.put("end")
        got, torn = out.get(timeout=30.0)
        owner.join(timeout=10.0)
    finally:
        _reap([owner, writer])
    assert torn == 0
    assert 0 <= got <= 60
    assert writer.exitcode == 0 and owner.exitcode == 0


def _blocked_reader(channel) -> None:
    channel.get(timeout=60.0)


def _read_one(channel, out) -> None:
    try:
        out.put(("got", channel.get(timeout=1.0)))
    except queue.Empty:
        out.put(("empty", None))


def test_a_reader_killed_in_get_leaves_the_channel_readable():
    """A fleet rank the collector terminates is usually blocked in
    ``get``.  Waiting must not hold the read lock, or the lock dies
    with the reader and every later ``get`` on the channel times out."""
    ch, out = Channel(FORK), Channel(FORK)
    victim = FORK.Process(target=_blocked_reader, args=(ch,), daemon=True)
    victim.start()
    time.sleep(0.3)  # parked in its get
    victim.kill()
    victim.join(timeout=5.0)
    assert victim.exitcode == -9  # killed, not returned from its get
    ch.put("after")
    reader = FORK.Process(target=_read_one, args=(ch, out), daemon=True)
    reader.start()
    try:
        assert out.get(timeout=10.0) == ("got", "after")
        reader.join(timeout=10.0)
    finally:
        _reap([victim, reader])


def test_forked_child_starts_without_the_parents_backlog():
    """The parent's flusher holds the rest of a 2 MiB frame (and the
    write lock) when it forks; the child's small frame must not wait in
    an inherited backlog, and both arrive whole."""
    ch = Channel(FORK)
    big = blob(0, 0, 2 * MIB)
    ch.put(("parent", big))  # nobody reads yet: most of it is queued
    p = FORK.Process(target=_put, args=(ch, ("child", b"x")), daemon=True)
    p.start()
    try:
        got = [ch.get(timeout=10.0) for _ in range(2)]
        p.join(timeout=10.0)
    finally:
        _reap([p])
    assert ("parent", big) in got and ("child", b"x") in got
    assert p.exitcode == 0


# ---------------------------------------------------------------------------
# crossing a spawn start; closing
# ---------------------------------------------------------------------------
def _echo(inbox, outbox) -> None:
    outbox.put(("echo", inbox.get(timeout=60.0)))


def test_channel_crosses_a_spawn_start_as_a_process_argument():
    ctx = mp.get_context("spawn")
    inbox, outbox = Channel(ctx), Channel(ctx)
    with pytest.raises(RuntimeError):
        pickle.dumps(inbox)  # only a process start may carry it
    p = ctx.Process(target=_echo, args=(inbox, outbox), daemon=True)
    p.start()
    try:
        payload = np.arange(MIB // 8, dtype=np.float64)  # 1 MiB back
        inbox.put(payload)
        tag, got = outbox.get(timeout=60.0)
        p.join(timeout=30.0)
    finally:
        _reap([p])
    assert tag == "echo"
    np.testing.assert_array_equal(got, payload)
    assert p.exitcode == 0


def test_put_after_close_raises_mailbox_closed():
    ch = Channel(FORK)
    mb = Mailbox(0, ch)
    mb.put(msg(1, 1, "before"))
    assert mb.get(source=1, tag=1, timeout=5.0).payload == "before"
    mb.close()
    with pytest.raises(MailboxClosed):
        mb.put(msg(1, 1, "after"))
    with pytest.raises(MailboxClosed):
        mb.get(source=1, tag=1, timeout=0.1)
    ch.close()
    with pytest.raises(ValueError):
        ch.put("after close")
    with pytest.raises(ValueError):
        ch.get_nowait()
