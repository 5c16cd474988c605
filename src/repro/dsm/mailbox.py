"""The rank mailbox: (source, tag) selective receive over one channel.

Every rank fabric receives through :class:`Mailbox`: the simulated
cluster over one thread ``queue.Queue`` per rank, the process launches
over one :class:`~repro.dsm.procmail.Channel` pipe per rank, the sockets
fabric over the same channels (its progress thread re-injects TCP
frames into them).  Senders deposit :class:`Message` envelopes; ``get``
blocks until one matching ``(source, tag)`` is available (either may be
a wildcard).

Envelopes carry the *virtual arrival time* computed by the sender from the
network model, so the receiver can couple its clock to the sender's.
"""

from __future__ import annotations

import queue as _queue
import time
from dataclasses import dataclass
from typing import Any

ANY_SOURCE = -1
ANY_TAG = -1

_tracer = None
_telemetry = None
_ts = None  # repro.telemetry.schema, bound with the telemetry writer


def trace_writer():
    """The calling thread's tracer.  Resolved on first use, not at
    import: the trace and telemetry planes sit on
    :mod:`repro.dsm.shmplane`, and this module is part of the
    ``repro.dsm`` package import."""
    global _tracer
    if _tracer is None:
        from repro.trace.plane import tracer as _tracer
    return _tracer()


def telemetry_writer():
    """The calling thread's telemetry writer, resolved as
    :func:`trace_writer` is."""
    global _telemetry, _ts
    if _telemetry is None:
        from repro.telemetry import schema as _ts
        from repro.telemetry.plane import writer as _telemetry
    return _telemetry()


class MailboxClosed(RuntimeError):
    """Raised to blocked receivers when the fabric shuts down."""


@dataclass
class Message:
    """One in-flight message."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    arrival: float  # virtual time at which the payload is available
    #: membership epoch the sender belonged to.  A mailbox matches only
    #: envelopes of its own epoch, so a retired rank's queued frames
    #: cannot satisfy a later membership's selective receive (the
    #: process fabrics' channels outlive membership switches by design).
    epoch: int = 0
    #: trace-plane message id: the sender's per-ring send counter,
    #: stamped at the transport chokepoints when tracing is on.  0 means
    #: untraced (tracing off, or an internal direct-put) — receivers
    #: record a flow edge only for a non-zero seq, so the stamp is
    #: invisible to results either way.
    seq: int = 0


class Mailbox:
    """Selective receive for one rank over a channel.

    The channel is duck-typed — ``put``, ``get(timeout=)`` and
    ``get_nowait`` raising ``queue.Empty`` — so a thread ``queue.Queue``
    (the simulated cluster), a :class:`~repro.dsm.procmail.Channel` or
    an ``mp.Queue`` serves.  ``put`` may be called from any thread or
    process; ``get`` only from the owning rank (the pending
    buffer is local to it).  Because channel order is arrival order,
    not ``(source, tag)`` order, the owner keeps that pending buffer for
    envelopes that did not match an outstanding selective receive.

    ``epoch`` scopes the match key: only envelopes stamped with the
    mailbox's current epoch are eligible, stale ones are dead letters
    (dropped on drain), future ones wait in the pending buffer for the
    membership switch that makes them current.
    """

    def __init__(self, rank: int, channel, epoch: int = 0) -> None:
        self.rank = rank
        self.epoch = epoch
        self._channel = channel
        self._pending: list[Message] = []
        self._closed = False
        #: stale-epoch envelopes discarded (observability for tests).
        self.stale_dropped = 0

    # ------------------------------------------------------------------
    def put(self, msg: Message) -> None:
        if self._closed:
            raise MailboxClosed(f"mailbox {self.rank} is closed")
        self._channel.put(msg)

    def set_epoch(self, epoch: int) -> None:
        """Adopt a new membership epoch; purge newly-stale pendings."""
        self.epoch = epoch
        before = len(self._pending)
        self._pending = [m for m in self._pending if m.epoch >= epoch]
        self.stale_dropped += before - len(self._pending)

    def _matches(self, m: Message, source: int, tag: int) -> bool:
        return (m.epoch == self.epoch
                and (source == ANY_SOURCE or m.src == source)
                and (tag == ANY_TAG or m.tag == tag))

    def _admit(self, m: Message) -> bool:
        """Buffer a drained envelope; False when it was a stale-epoch
        dead letter (a retired membership's frame — dropped so it can
        never satisfy a later segment's selective receive)."""
        if m.epoch < self.epoch:
            self.stale_dropped += 1
            return False
        self._pending.append(m)
        return True

    def get(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
            timeout: float | None = 60.0) -> Message:
        """Block until a matching envelope arrives and remove it.

        Per-(source, tag) FIFO order is preserved: non-matching arrivals
        are buffered in order and re-scanned first on the next call.

        ``timeout`` bounds the *whole* call with one monotonic deadline:
        every channel wait gets only the remaining budget, so a rank
        waiting on a busy mailbox (non-matching envelopes trickling in)
        cannot block past its deadline — each arrival used to restart
        the full timeout.
        """
        tele = telemetry_writer()
        tr = trace_writer()
        if not tele.active and not tr.active:
            return self._get(source, tag, timeout)
        t0 = time.perf_counter()
        try:
            msg = self._get(source, tag, timeout)
            # flow edge for the trace plane: the slice duration is the
            # wait this receive paid (seq 0 = untraced envelope).
            if tr.active and msg.seq > 0:
                tr.recv(msg.src, msg.tag, msg.epoch, msg.seq, t0)
            return msg
        finally:
            # wall time blocked on the channel: the mailbox-wait series
            # (receiver-side skew signal, never charged to vtime).
            if tele.active:
                tele.inc(_ts.MAILBOX_WAIT_SECONDS,
                         time.perf_counter() - t0)
                tele.inc(_ts.MAILBOX_RECVS)

    def _get(self, source: int, tag: int,
             timeout: float | None) -> Message:
        for i, m in enumerate(self._pending):
            if self._matches(m, source, tag):
                return self._pending.pop(i)
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            if self._closed:
                raise MailboxClosed(f"mailbox {self.rank} is closed")
            if deadline is None:
                remaining = None
            else:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # expiry still owes one non-blocking poll: a match
                    # already delivered to the channel (just not yet
                    # drained into the pending buffer) must be returned,
                    # exactly as timeout=0 on a bare queue would.
                    while True:
                        try:
                            m = self._channel.get_nowait()
                        except _queue.Empty:
                            break
                        if self._matches(m, source, tag):
                            return m
                        self._admit(m)
                    raise TimeoutError(
                        f"rank {self.rank}: no message from src={source} "
                        f"tag={tag} after {timeout}s (pending: "
                        f"{[(p.src, p.tag) for p in self._pending]})")
            try:
                m = self._channel.get(timeout=remaining)
            except _queue.Empty:
                continue  # deadline check above decides expiry
            if self._matches(m, source, tag):
                return m
            self._admit(m)

    def close(self) -> None:
        """Refuse further traffic; drop whatever the flusher still holds.

        Called on the unwind path only — by then the phase outcome is
        decided and in-flight envelopes are dead letters.  Cancelling the
        flusher join keeps a worker's exit from blocking on a channel the
        parent will never drain again.  A receiver already blocked on
        the channel notices the close on its next turn: the thread
        fabric's :meth:`~repro.dsm.comm.Communicator.close` posts it one.
        """
        self._closed = True
        try:
            self._channel.cancel_join_thread()
        except (AttributeError, OSError):
            pass
