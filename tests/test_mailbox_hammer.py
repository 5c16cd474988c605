"""Mailbox hammer: many senders, one selective receiver, no order slack.

:class:`~repro.dsm.mailbox.Mailbox` is the one receive path of every
rank fabric, so its (source, tag) matching is stressed here directly
rather than through a collective: ``n - 1`` sender threads each stream
``PER_SENDER`` numbered messages over two tags into rank 0's channel
while rank 0 takes them back with selective ``get``s in a seeded random
(source, tag) order.  Arrival order is whatever the senders' threads
interleave to, so nearly every receive either drains non-matching
envelopes into the pending buffer or is served from it.  Every
(source, tag) stream must come back in send order, whole, and once.

The same contract runs over a thread ``queue.Queue`` (the simulated
cluster) and a pipe :class:`~repro.dsm.procmail.Channel` (the process
launches), for 3 and 5 ranks.  The close variant shuts the simulated
cluster's communicator while its senders are parked mid-stream: what the
receiver got before ``MailboxClosed`` is a per-stream prefix, and the
receive it was blocked in returns within a second.
"""

import queue
import random
import threading
import time

import pytest

from repro.dsm.comm import Communicator
from repro.dsm.mailbox import Mailbox, MailboxClosed, Message
from repro.dsm.procmail import Channel
from repro.vtime import MachineModel, VClock

TAGS = (7, 11)
PER_SENDER = 2000
SEED = 20261019


def _msg(src, tag, seq):
    return Message(src=src, dst=0, tag=tag, payload=seq, nbytes=8,
                   arrival=0.0)


def _send_order(src, count):
    """``count`` tags for sender ``src``, split evenly, seeded shuffle."""
    tags = [TAGS[i % len(TAGS)] for i in range(count)]
    random.Random(SEED + src).shuffle(tags)
    return tags


def _sender(src, put, count, stop=None):
    """Stream ``count`` messages from ``src``; each tag numbers its own
    from 0.  ``stop`` (if given) parks the sender after half its stream
    until set; a closed mailbox ends the stream."""
    seq = dict.fromkeys(TAGS, 0)
    try:
        for i, tag in enumerate(_send_order(src, count)):
            if stop is not None and i == count // 2:
                stop.wait()
            put(_msg(src, tag, seq[tag]))
            seq[tag] += 1
    except MailboxClosed:
        pass


def _recv_order(nranks, count):
    order = [(src, tag) for src in range(1, nranks)
             for tag in _send_order(src, count)]
    random.Random(SEED + nranks).shuffle(order)
    return order


def _start(threads):
    for t in threads:
        t.start()
    return threads


@pytest.mark.parametrize("nranks", [3, 5])
@pytest.mark.parametrize("fabric", ["queue", "pipe"])
def test_selective_receive_keeps_every_stream_fifo(fabric, nranks):
    channel = Channel() if fabric == "pipe" else queue.Queue()
    inbox = Mailbox(0, channel)
    senders = _start([
        threading.Thread(target=_sender,
                         args=(src, channel.put, PER_SENDER), daemon=True)
        for src in range(1, nranks)])
    try:
        expect = {(src, tag): 0 for src in range(1, nranks) for tag in TAGS}
        for src, tag in _recv_order(nranks, PER_SENDER):
            m = inbox.get(source=src, tag=tag, timeout=10.0)
            assert (m.src, m.tag, m.payload) == (src, tag,
                                                 expect[(src, tag)])
            expect[(src, tag)] += 1
        # nothing lost: every stream came back whole ...
        assert sum(expect.values()) == (nranks - 1) * PER_SENDER
        for t in senders:
            t.join(timeout=10.0)
            assert not t.is_alive()
        # ... and nothing duplicated: no envelope is left over
        with pytest.raises(TimeoutError):
            inbox.get(timeout=0)
    finally:
        if fabric == "pipe":
            channel.close()


@pytest.mark.parametrize("nranks", [3, 5])
def test_close_mid_stream_releases_the_receiver(nranks):
    comm = Communicator(nranks, MachineModel(),
                        [VClock() for _ in range(nranks)])
    inbox = comm.mailboxes[0]
    stop = threading.Event()
    senders = _start([
        threading.Thread(target=_sender,
                         args=(src, inbox.put, PER_SENDER, stop),
                         daemon=True)
        for src in range(1, nranks)])
    got = {(src, tag): [] for src in range(1, nranks) for tag in TAGS}
    ended = []

    def receive():
        try:
            for src, tag in _recv_order(nranks, PER_SENDER):
                got[(src, tag)].append(
                    inbox.get(source=src, tag=tag, timeout=30.0).payload)
        except MailboxClosed:
            ended.append(time.monotonic())

    receiver = _start([threading.Thread(target=receive, daemon=True)])[0]
    # every sender parks half way: once all of those halves are drained
    # (received or pending) the receiver blocks on a parked stream
    half = (nranks - 1) * (PER_SENDER // 2)
    deadline = time.monotonic() + 10.0
    while (sum(map(len, got.values())) + len(inbox._pending) < half
           and time.monotonic() < deadline):
        time.sleep(0.01)
    time.sleep(0.1)
    assert receiver.is_alive(), "receiver finished before the close"
    closed_at = time.monotonic()
    comm.close()
    stop.set()
    receiver.join(timeout=5.0)
    assert not receiver.is_alive()
    assert ended and ended[0] - closed_at < 1.0
    for t in senders:
        t.join(timeout=5.0)
        assert not t.is_alive()
    # everything received is a gap-free prefix of its stream
    assert sum(map(len, got.values())) > 0
    for stream in got.values():
        assert stream == list(range(len(stream)))
