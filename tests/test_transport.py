"""Transport conformance: one mailbox contract over every fabric.

The :class:`~repro.dsm.transport.Transport` seam promises that the
endpoint list it builds behaves identically no matter what carries the
bytes — in-process queues or the launches' pipe
:class:`~repro.dsm.procmail.Channel` under a
:class:`~repro.dsm.transport.QueueTransport`, or length-prefixed TCP
frames re-injected by a progress thread
(:class:`~repro.dsm.socketmail.SocketTransport`).  The same suite runs
against all three: per-(source, tag) FIFO under interleaved selective
receives, poll/pending drain behaviour, the single monotonic deadline,
and large-payload integrity (the socket fabric must frame and reassemble
multi-megabyte pickles exactly).

Tag-epoch scoping is covered here too: a dead membership's queued frames
must never satisfy a later membership's selective receive on the same
``(source, tag)`` — the use-after-retire the epoch field exists to kill.
So is the simulated cluster's teardown over thread queues: closing its
communicator releases a receiver already blocked in ``get``.
"""

import queue
import threading
import time

import numpy as np
import pytest

from repro.dsm.comm import Communicator
from repro.dsm.mailbox import Mailbox, MailboxClosed, Message
from repro.dsm.procmail import Channel
from repro.dsm.socketmail import SocketTransport
from repro.dsm.transport import QueueTransport
from repro.vtime import MachineModel, VClock

NRANKS = 2


def msg(src, tag, payload=None, dst=0, epoch=0, nbytes=8):
    return Message(src=src, dst=dst, tag=tag, payload=payload,
                   nbytes=nbytes, arrival=0.0, epoch=epoch)


class _Fabric:
    """Two ranks' endpoint lists over one transport family.

    ``send(src, dst, message)`` goes through rank ``src``'s endpoint
    for ``dst`` — a queue put or a TCP frame depending on the fabric —
    and ``inbox(rank)`` is the rank's own receiving mailbox.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        if kind == "pipe":  # the launches' rank channel
            self.channels = [Channel() for _ in range(NRANKS)]
        else:
            self.channels = [queue.Queue() for _ in range(NRANKS)]
        if kind in ("queue", "pipe"):
            transport = QueueTransport(self.channels)
            self.transports = [transport] * NRANKS
        else:  # every rank its own "physical node": all traffic framed
            self.transports = [
                SocketTransport(r, self.channels, lambda rank: rank)
                for r in range(NRANKS)]
            addresses = {r: t.address
                         for r, t in enumerate(self.transports)}
            for t in self.transports:
                t.set_addresses(addresses)
        self.endpoints = [self.transports[r].endpoints(r)
                          for r in range(NRANKS)]

    def send(self, src: int, dst: int, m: Message) -> None:
        self.endpoints[src][dst].put(m)

    def inbox(self, rank: int) -> Mailbox:
        return self.endpoints[rank][rank]

    def settle(self) -> None:
        """Socket frames cross reader threads; queues are synchronous."""
        if self.kind == "sockets":
            time.sleep(0.15)

    def close(self) -> None:
        if self.kind == "sockets":
            for t in self.transports:
                t.close()
        if self.kind == "pipe":
            for ch in self.channels:
                ch.close()


@pytest.fixture(params=["queue", "pipe", "sockets"])
def fabric(request):
    f = _Fabric(request.param)
    yield f
    f.close()


# ---------------------------------------------------------------------------
# the conformance suite (runs verbatim against both fabrics)
# ---------------------------------------------------------------------------
class TestTransportConformance:
    def test_fifo_per_src_tag_under_interleaved_selective_receives(
            self, fabric):
        for i in range(3):
            fabric.send(1, 0, msg(1, 7, ("a", i)))
            fabric.send(1, 0, msg(1, 9, ("c", i)))
        fabric.settle()
        inbox = fabric.inbox(0)
        # selective receive on the second stream first: the first
        # stream's envelopes are buffered in arrival order, not lost
        assert inbox.get(source=1, tag=9, timeout=5.0).payload == ("c", 0)
        assert [inbox.get(source=1, tag=7, timeout=5.0).payload
                for _ in range(3)] == [("a", 0), ("a", 1), ("a", 2)]
        assert [inbox.get(source=1, tag=9, timeout=5.0).payload
                for _ in range(2)] == [("c", 1), ("c", 2)]

    def test_selective_receive_across_sources(self, fabric):
        fabric.send(1, 0, msg(1, 5, "from-1"))
        fabric.send(0, 0, msg(0, 5, "from-0"))
        fabric.settle()
        inbox = fabric.inbox(0)
        assert inbox.get(source=0, tag=5, timeout=5.0).payload == "from-0"
        assert inbox.get(source=1, tag=5, timeout=5.0).payload == "from-1"

    def test_poll_drains_into_pending_without_losing_envelopes(
            self, fabric):
        fabric.send(1, 0, msg(1, 1, "x"))
        fabric.settle()
        inbox = fabric.inbox(0)
        deadline = time.monotonic() + 5.0
        while not inbox.poll(source=1, tag=1):
            assert time.monotonic() < deadline, "envelope never arrived"
        assert not inbox.poll(source=9)  # no match, nothing dropped
        assert inbox.get(source=1, tag=1, timeout=5.0).payload == "x"

    def test_deadline_is_one_monotonic_budget(self, fabric):
        inbox = fabric.inbox(0)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            inbox.get(source=1, tag=42, timeout=0.3)
        elapsed = time.monotonic() - t0
        assert 0.2 <= elapsed < 2.0

    def test_large_payload_crosses_intact(self, fabric):
        # well past any single recv() chunk: framing must reassemble
        arr = np.arange(1 << 18, dtype=np.float64)  # 2 MiB
        fabric.send(1, 0, msg(1, 3, arr, nbytes=arr.nbytes))
        got = fabric.inbox(0).get(source=1, tag=3, timeout=10.0)
        assert got.nbytes == arr.nbytes
        np.testing.assert_array_equal(got.payload, arr)

    def test_many_frames_keep_order_per_stream(self, fabric):
        for i in range(50):
            fabric.send(1, 0, msg(1, 11, i))
        got = [fabric.inbox(0).get(source=1, tag=11, timeout=10.0).payload
               for _ in range(50)]
        assert got == list(range(50))


class TestThreadFabricClose:
    """The simulated cluster's fabric: thread queues, closed by its
    communicator when a rank fails."""

    @staticmethod
    def _comm():
        return Communicator(NRANKS, MachineModel(),
                            [VClock() for _ in range(NRANKS)])

    def test_close_releases_a_blocked_receiver(self):
        comm = self._comm()
        got = []

        def receive():
            t0 = time.monotonic()
            try:
                comm.mailboxes[0].get(source=1, tag=3, timeout=60)
            except MailboxClosed as exc:
                got.append((exc, time.monotonic() - t0))

        t = threading.Thread(target=receive)
        t.start()
        time.sleep(0.1)  # the receiver is blocked on its queue
        comm.close()
        t.join(timeout=5)
        assert not t.is_alive()
        assert len(got) == 1 and got[0][1] < 1.0

    def test_put_after_close_raises(self):
        comm = self._comm()
        comm.close()
        with pytest.raises(MailboxClosed):
            comm.mailboxes[0].put(msg(1, 3))


class TestSocketFraming:
    def test_frame_counts_track_remote_destinations(self):
        f = _Fabric("sockets")
        try:
            f.send(0, 1, msg(0, 1, "hi", dst=1))
            assert f.inbox(1).get(source=0, tag=1,
                                  timeout=5.0).payload == "hi"
            assert f.transports[0].frame_counts() == {1: 1}
            assert f.transports[1].frame_counts() == {}
        finally:
            f.close()

    def test_self_and_colocated_ranks_use_queues_not_frames(self):
        channels = [queue.Queue() for _ in range(2)]
        # both ranks on one physical node: endpoints are pure mailboxes
        t0 = SocketTransport(0, channels, lambda r: 0)
        t1 = SocketTransport(1, channels, lambda r: 0)
        try:
            eps = t0.endpoints(0)
            assert all(isinstance(e, Mailbox) for e in eps)
            eps[1].put(msg(0, 2, "local", dst=1))
            assert t1.endpoints(1)[1].get(source=0, tag=2,
                                          timeout=5.0).payload == "local"
            assert t0.frame_counts() == {}
        finally:
            t0.close()
            t1.close()

    def test_close_wakes_the_listener_instead_of_waiting_a_poll(self):
        """``close`` wakes the progress thread's blocking wait (no
        timed accept poll to wait out), every cycle."""
        for _ in range(20):
            t = SocketTransport(0, [queue.Queue()], lambda r: r)
            progress = t._loop.thread
            time.sleep(0.005)  # the progress thread is parked in its wait
            t0 = time.perf_counter()
            t.close()
            assert time.perf_counter() - t0 < 0.05
            assert not progress.is_alive()

    def test_transport_is_bound_to_its_rank(self):
        t = SocketTransport(0, [queue.Queue()], lambda r: r)
        try:
            with pytest.raises(ValueError, match="bound to one rank"):
                t.endpoints(1)
        finally:
            t.close()


# ---------------------------------------------------------------------------
# tag-epoch scoping (the dead-peer fix)
# ---------------------------------------------------------------------------
class TestTagEpoch:
    def test_stale_epoch_frames_cannot_satisfy_later_phase(self):
        """The regression the epoch exists for: a retired rank's queued
        envelope on the same (source, tag) must not be matched by the
        next membership segment's selective receive."""
        ch = queue.Queue()
        mb = Mailbox(0, ch)
        ch.put(msg(2, 7, "old-membership", epoch=0))
        mb.set_epoch(1)  # the membership switched
        with pytest.raises(TimeoutError):
            mb.get(source=2, tag=7, timeout=0.1)
        assert mb.stale_dropped == 1
        # the new membership's envelope still matches
        ch.put(msg(2, 7, "new-membership", epoch=1))
        assert mb.get(source=2, tag=7, timeout=5.0).payload \
            == "new-membership"

    def test_set_epoch_purges_already_buffered_stale_pendings(self):
        mb = Mailbox(0, queue.Queue())
        mb.put(msg(1, 1, "a", epoch=0))
        mb.put(msg(1, 2, "b", epoch=0))
        assert not mb.poll(source=9)  # drain both into pending
        assert len(mb) == 2
        mb.set_epoch(1)
        assert len(mb) == 0
        assert mb.stale_dropped == 2

    def test_future_epoch_frames_wait_for_the_switch(self):
        """A peer that switched membership first may send ahead: its
        envelopes buffer (not drop) until this rank catches up."""
        ch = queue.Queue()
        mb = Mailbox(0, ch)
        ch.put(msg(1, 4, "early", epoch=1))
        with pytest.raises(TimeoutError):
            mb.get(source=1, tag=4, timeout=0.1)
        assert mb.stale_dropped == 0 and len(mb) == 1  # buffered, kept
        mb.set_epoch(1)
        assert mb.get(source=1, tag=4, timeout=5.0).payload == "early"

    def test_poll_honours_epoch(self):
        mb = Mailbox(0, queue.Queue(), epoch=3)
        mb.put(msg(1, 1, epoch=2))
        assert not mb.poll(source=1, tag=1)
        assert mb.stale_dropped == 1
        mb.put(msg(1, 1, epoch=3))
        assert mb.poll(source=1, tag=1)


# ---------------------------------------------------------------------------
# progress-thread concurrency
# ---------------------------------------------------------------------------
class TestSocketConcurrency:
    def test_concurrent_senders_interleave_without_corruption(self):
        """Three remote peers hammer one inbox concurrently; every
        stream arrives complete and per-stream ordered."""
        n = 4
        channels = [queue.Queue() for _ in range(n)]
        transports = [SocketTransport(r, channels, lambda rank: rank)
                      for r in range(n)]
        addresses = {r: t.address for r, t in enumerate(transports)}
        for t in transports:
            t.set_addresses(addresses)
        per_src = 40
        try:
            def blast(src):
                eps = transports[src].endpoints(src)
                for i in range(per_src):
                    eps[0].put(msg(src, 6, (src, i)))

            threads = [threading.Thread(target=blast, args=(s,))
                       for s in (1, 2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            inbox = transports[0].endpoints(0)[0]
            seen = {1: [], 2: [], 3: []}
            for _ in range(3 * per_src):
                m = inbox.get(source=-1, tag=6, timeout=10.0)
                seen[m.payload[0]].append(m.payload[1])
            for src in (1, 2, 3):
                assert seen[src] == list(range(per_src))
        finally:
            for t in transports:
                t.close()
