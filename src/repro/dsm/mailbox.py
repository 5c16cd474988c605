"""Per-rank mailboxes with (source, tag) matching.

The simulated cluster's transport: a :class:`Mailbox` per rank, into which
senders deposit :class:`Message` envelopes.  ``get`` blocks until a message
matching ``(source, tag)`` is available (either may be a wildcard).

Envelopes carry the *virtual arrival time* computed by the sender from the
network model, so the receiver can couple its clock to the sender's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

ANY_SOURCE = -1
ANY_TAG = -1


class MailboxClosed(RuntimeError):
    """Raised to blocked receivers when the cluster shuts down."""


@dataclass
class Message:
    """One in-flight message."""

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    arrival: float  # virtual time at which the payload is available
    #: membership epoch the sender belonged to.  In-process mailboxes
    #: ignore it (rank threads die with their membership); the process
    #: transports match on it so a retired rank's queued frames cannot
    #: satisfy a later membership's selective receive (the mp.Queue
    #: channels outlive membership switches by design).
    epoch: int = 0
    #: trace-plane message id: the sender's per-ring send counter,
    #: stamped at the transport chokepoints when tracing is on.  0 means
    #: untraced (tracing off, or an internal direct-put) — receivers
    #: record a flow edge only for a non-zero seq, so the stamp is
    #: invisible to results either way.
    seq: int = 0


class Mailbox:
    """Unbounded, thread-safe mailbox with selective receive."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._cond = threading.Condition()
        self._queue: list[Message] = []
        self._closed = False

    def put(self, msg: Message) -> None:
        with self._cond:
            if self._closed:
                raise MailboxClosed(f"mailbox {self.rank} is closed")
            self._queue.append(msg)
            self._cond.notify_all()

    def get(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
            timeout: float | None = 60.0) -> Message:
        """Block until a matching message is available and remove it.

        Matching preserves per-(source, tag) FIFO order, which is all the
        collectives and the aggregate protocol rely on.  ``timeout``
        bounds the whole call with one monotonic deadline: a put that
        does not match wakes the receiver but does not extend its wait.
        """
        from time import monotonic, perf_counter

        from repro.trace.plane import tracer as trace_writer

        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        deadline = None if timeout is None else monotonic() + timeout
        with self._cond:
            while True:
                for i, m in enumerate(self._queue):
                    if ((source == ANY_SOURCE or m.src == source)
                            and (tag == ANY_TAG or m.tag == tag)):
                        msg = self._queue.pop(i)
                        # flow edge: the slice duration is the wait this
                        # receive paid; seq 0 = untraced envelope.
                        if tr.active and msg.seq > 0:
                            tr.recv(msg.src, msg.tag, msg.epoch, msg.seq,
                                    tw0)
                        return msg
                if self._closed:
                    raise MailboxClosed(f"mailbox {self.rank} is closed")
                left = None if deadline is None else deadline - monotonic()
                if (left is not None and left <= 0) \
                        or not self._cond.wait(left):
                    raise TimeoutError(
                        f"rank {self.rank}: no message from src={source} "
                        f"tag={tag} after {timeout}s "
                        f"(queued: {[(m.src, m.tag) for m in self._queue]})")

    def poll(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Non-blocking probe for a matching message."""
        with self._cond:
            return any(
                (source == ANY_SOURCE or m.src == source)
                and (tag == ANY_TAG or m.tag == tag)
                for m in self._queue)

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._queue)
