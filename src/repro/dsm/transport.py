"""The transport seam: how a communicator's envelopes reach their rank.

The algorithm layer (:class:`~repro.dsm.comm.Communicator` and its
process subclass) speaks to mailboxes only: it ``put``s envelopes into
``mailboxes[dest]`` and selectively ``get``s from its own.  A
:class:`Transport` is the factory for that endpoint list — the one
object that knows how bytes physically move:

* :class:`QueueTransport` — one :class:`~repro.dsm.procmail.Channel`
  (a pipe written in the sender's thread) per rank, every endpoint a
  :class:`~repro.dsm.procmail.ProcessMailbox` (the shm
  slab/borrow/inline tiers sit *above* this, in the data plane's
  payload packing — the transport carries descriptors);
* :class:`~repro.dsm.socketmail.SocketTransport` — remote peers behind
  length-prefixed TCP frames, co-located peers (same physical node)
  still on channels + slabs, with a per-rank progress thread serving
  one-sided traffic.

Keeping the seam this narrow is what lets the whole collective /
one-sided / movement stack run unchanged over threads, queues, shared
memory and sockets: a new fabric implements ``endpoints`` and nothing
above it changes.

The trace plane's cross-rank flow edges ride this seam for free: the
``(src, dst, tag, epoch, seq)`` message id is stamped into the
:class:`~repro.dsm.mailbox.Message` envelope at the communicator's send
chokepoints and read back at the mailbox ``get``s, so every fabric —
queues, sockets, in-process lists — carries causal edges without any
transport-specific code.  A transport that re-frames envelopes (the
socket progress thread's ``PUT_APPLIED`` rewrite) must preserve ``seq``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class Transport(ABC):
    """Endpoint factory for one rank of a communicator fabric.

    ``endpoints(rank)`` returns the mailbox list the communicator
    indexes by destination: entry ``rank`` is the owning rank's inbox
    (selective receive), every other entry an egress stub whose ``put``
    delivers to that peer.  The list covers the whole pre-sized fabric,
    which may exceed the active membership (elastic launches).
    """

    @abstractmethod
    def endpoints(self, rank: int) -> list:
        """Mailbox-likes for ``rank``, indexed by destination rank."""

    def frame_counts(self) -> dict[int, int]:
        """Wire frames sent per destination rank (empty when the
        transport has no wire links — rank channels are local pipes).
        The topology tests assert on this: co-located traffic
        must never show up here."""
        return {}

    def close(self) -> None:
        """Release connections/threads the transport owns (idempotent)."""


class QueueTransport(Transport):
    """The single-host process fabric: one channel per rank.

    The launches pass :class:`~repro.dsm.procmail.Channel` objects; any
    object with the mailbox's duck-typed channel surface serves (the
    tests use thread ``queue.Queue`` objects).
    """

    def __init__(self, channels) -> None:
        self.channels = channels

    def endpoints(self, rank: int) -> list:
        from repro.dsm.procmail import ProcessMailbox

        return [ProcessMailbox(r, ch) for r, ch in enumerate(self.channels)]
