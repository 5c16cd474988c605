"""MPI-like communicator over per-rank mailboxes, with virtual time.

API follows mpi4py's lower-case generic-object conventions (``send`` /
``recv`` / ``bcast`` / ``scatter`` / ``gather`` / ``reduce`` / ...): the
object is an argument, the received object is the return value.  numpy
arrays travel by reference but are defensively copied at the send side, so
ranks never alias each other's buffers (value semantics, like real MPI).

Every operation charges virtual time: the sender computes the arrival time
from the machine's network model (placement-aware: intra- vs inter-node);
the receiver couples its clock to it.

Collectives are the paper's flat root funnel: real point-to-point
messages through the root, whose linear-in-P root cost is exactly the
behaviour the paper's Figure 4/5 discussion describes for collecting
checkpoint data at the master.

The communicator also exposes a **one-sided** window API modelled on
OpenSHMEM: ``win_expose`` publishes an array as a named window,
``put`` writes a region of a remote window without the target calling
``recv``, and ``fence(schedule)`` makes a deterministic set of incoming
puts visible.  Cost accounting mirrors send/recv exactly (a put
charges the origin like a send; the fence charges the target's ingress
like a recv), so porting a protocol from send/recv to put+fence moves
no virtual time — only the synchronisation shape.  ``fence`` takes an
explicit source schedule because one-sided arrivals are unordered
across origins: draining them in arrival order would make the target's
clock coupling nondeterministic, while a schedule derived from the
(deterministic) communication pattern keeps virtual time
bit-reproducible.
"""

from __future__ import annotations

import operator
import queue
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.dsm.mailbox import ANY_SOURCE, ANY_TAG, Message, trace_writer
from repro.dsm.transport import QueueTransport, Transport
from repro.smp.barrier import AdaptiveBarrier
from repro.util.serialization import nbytes_of
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel

#: reserved tag space for collective plumbing (user tags must be < this).
TAG_COLL = 1 << 30
MAX_USER_TAG = TAG_COLL - 1

#: one-sided plumbing tag: put envelopes.
TAG_PUT = TAG_COLL + 6

#: payload marker for puts a transport already applied to the target
#: window (a socket rank's progress thread writes cross-node puts on
#: arrival): the fence still drains the envelope for clock coupling,
#: but has nothing left to copy.
PUT_APPLIED = "<put-applied>"

#: posted into a closed thread-queue mailbox's channel to wake its
#: blocked receiver: no receive matches a negative epoch and the drain
#: drops it, so the receive loop's next turn raises ``MailboxClosed``.
_WAKE = Message(src=ANY_SOURCE, dst=ANY_SOURCE, tag=ANY_TAG, payload=None,
                nbytes=0, arrival=0.0, epoch=-1)

_tl = threading.local()


def current_rank() -> "RankContext | None":
    """The rank context bound to the calling thread (None outside ranks)."""
    return getattr(_tl, "rank_ctx", None)


def _bind(ctx: "RankContext | None") -> None:
    _tl.rank_ctx = ctx


@dataclass
class RankContext:
    """Identity of one SPMD rank: id, clock, communicator."""

    rank: int
    nranks: int
    clock: VClock
    comm: "Communicator"


def _copy_payload(obj: Any) -> Any:
    """Value semantics for the common payload shapes."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (list, tuple)):
        t = type(obj)
        return t(_copy_payload(x) for x in obj)
    return obj  # scalars / immutables / user objects sent by reference


def axis_write(arr: np.ndarray, idx, axis: int, vals) -> None:
    """Assign ``vals`` into the region of ``arr`` described by ``idx``."""
    sl: list = [slice(None)] * arr.ndim
    sl[axis] = slice(idx[0], idx[1]) if isinstance(idx, tuple) else idx
    arr[tuple(sl)] = vals


class Communicator:
    """Collective + point-to-point communication among ``nranks`` ranks.

    Built as is, it is the simulated cluster's: ``clocks`` is the
    ranks' shared clock list, the barrier folds it under one thread
    barrier, and the endpoints come from a :class:`QueueTransport` over
    one thread ``queue.Queue`` per rank, shared by every rank thread.  A
    per-process subclass passes no clocks and its own ``transport``,
    with the ``rank`` whose endpoint list it takes and the membership
    ``mail_epoch`` that rank joins at.
    """

    def __init__(self, nranks: int, machine: MachineModel,
                 clocks: Sequence[VClock], *,
                 transport: Transport | None = None, rank: int = 0,
                 mail_epoch: int = 0) -> None:
        if nranks < 1:
            raise ValueError("communicator needs at least one rank")
        if transport is None:
            if len(clocks) != nranks:
                raise ValueError("one clock per rank required")
            transport = QueueTransport(
                [queue.Queue() for _ in range(nranks)])
        self.nranks = nranks
        self.machine = machine
        self.clocks = list(clocks)
        self.transport = transport
        self.mailboxes = transport.endpoints(rank)
        if len(self.mailboxes) < nranks:
            raise ValueError("transport fabric smaller than the membership")
        #: membership epoch stamped on every outgoing envelope; the
        #: thread fabric never bumps it (rank threads die with their
        #: membership), the process fabrics do.
        self.mail_epoch = mail_epoch
        self.mailboxes[rank].set_epoch(mail_epoch)
        self._barrier = (AdaptiveBarrier(nranks) if len(self.clocks) > 1
                         else None)
        self._epoch = 0.0
        #: one-sided windows, keyed ``(owner rank, name)``.  One shared
        #: dict in-process (all ranks of a simulated cluster see each
        #: other's windows directly); per-process transports hold only
        #: their own rank's entries.
        self._windows: dict[tuple[int, str], np.ndarray] = {}
        self._win_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _ctx(self) -> RankContext:
        ctx = current_rank()
        if ctx is None or ctx.comm is not self:
            raise RuntimeError(
                "communicator used outside a rank context of this cluster")
        return ctx

    def close(self) -> None:
        """Close every endpoint and wake the ranks blocked in a receive
        (a failed rank's peers must not sleep out their deadline)."""
        _shut(self.mailboxes, self.transport.channels)
        if self._barrier is not None:
            self._barrier.abort()

    # ------------------------------------------------------------------
    # elastic membership (see repro.elastic)
    # ------------------------------------------------------------------
    def reshape(self, new_n: int, clocks: Sequence[VClock]) -> None:
        """Re-size the membership to ``new_n`` ranks.

        MUST be called while every current rank is quiescent (parked in
        the membership-switch barrier — the elastic protocol guarantees
        this), with all mailboxes drained of user traffic.  The
        transport is rebuilt over the resized queue list: survivors keep
        their rank ids, queues and mailboxes; joiners get fresh ones;
        retiree mailboxes are closed so a stray send to a retired rank
        fails loudly instead of vanishing.
        """
        if len(clocks) != new_n:
            raise ValueError("one clock per surviving/joining rank required")
        channels = self.transport.channels
        _shut(self.mailboxes[new_n:], channels[new_n:])
        self.transport = QueueTransport(
            channels[:new_n]
            + [queue.Queue() for _ in range(self.nranks, new_n)])
        self.mailboxes = (self.mailboxes[:new_n]
                          + self.transport.endpoints(0)[self.nranks:])
        self.clocks = list(clocks)
        self.nranks = new_n
        self._barrier = AdaptiveBarrier(new_n) if new_n > 1 else None

    # ------------------------------------------------------------------
    # transport hooks (overridden by descriptor-based data planes)
    # ------------------------------------------------------------------
    def _egress(self, obj: Any, owned: bool, dest: int) -> Any:
        """What actually enters the destination mailbox for ``obj``.

        The base transport delivers by reference within one address
        space, so value semantics require a defensive copy — unless the
        sender *owns* the payload (``_send_owned``: a freshly built
        staging buffer nothing else aliases).  ``dest`` lets routing
        transports pick a packing per destination (slab descriptors to
        co-located ranks, plain frames to remote ones).
        """
        return obj if owned else _copy_payload(obj)

    def _ingress(self, msg: Message) -> Any:
        """Resolve a delivered envelope into the received object."""
        return self._ingress_value(msg.payload)

    def _ingress_value(self, obj: Any) -> Any:
        """Resolve one delivered payload value (descriptor -> array)."""
        return obj

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """LogGP-style cost: the sender's link serialises egress.

        The sender is charged latency + transfer (its NIC is busy for the
        whole message), so a root scattering P-1 partitions pays for them
        back-to-back — the behaviour behind the paper's Figure 5 comment
        that restart data "must be scattered across processors".
        """
        self._send(obj, dest, tag, owned=False)

    def _send_owned(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send a payload the caller provably no longer aliases.

        Skips the defensive copy: correct only for freshly built staging
        buffers (``np.take`` results, gathered parts) that the sender
        never touches again — partition movements qualify, arbitrary
        user payloads do not.  Identical cost accounting to :meth:`send`.
        """
        self._send(obj, dest, tag, owned=True)

    def _send(self, obj: Any, dest: int, tag: int, owned: bool) -> None:
        ctx = self._ctx()
        if not (0 <= dest < self.nranks):
            raise ValueError(f"bad destination rank {dest}")
        if dest == ctx.rank:
            raise ValueError("self-send would deadlock a blocking pair")
        nbytes = nbytes_of(obj)  # logical size: transport-independent cost
        cost = self.machine.p2p_cost(nbytes, ctx.rank, dest)
        ctx.clock.charge_comm(cost)
        # message id for the trace plane's cross-rank flow edges: the
        # NullTracer returns 0 ("untraced"), so envelopes are identical
        # with tracing off.
        seq = trace_writer().send(dest, tag, epoch=self.mail_epoch)
        self.mailboxes[dest].put(Message(
            src=ctx.rank, dst=dest, tag=tag,
            payload=self._egress(obj, owned, dest), nbytes=nbytes,
            arrival=ctx.clock.now, epoch=self.mail_epoch, seq=seq))

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive; the receiver's link serialises ingress.

        After waiting for the arrival stamp the receiver is charged the
        transfer time again on its own link, so a root gathering P-1
        contributions drains them sequentially — the behaviour behind the
        Figure 4 comment that distributed saves cost more "since the data
        must be collected at the root node".
        """
        ctx = self._ctx()
        msg = self.mailboxes[ctx.rank].get(source=source, tag=tag)
        ctx.clock.wait_comm(msg.arrival)
        same = self.machine.same_node(msg.src, ctx.rank)
        ctx.clock.charge_comm(
            self.machine.network.p2p_cost(msg.nbytes, same)
            - (self.machine.network.intra_latency if same
               else self.machine.network.inter_latency))
        return self._ingress(msg)

    def sendrecv(self, obj: Any, dest: int, source: int,
                 tag: int = 0) -> Any:
        """Paired exchange that cannot deadlock (send is asynchronous)."""
        self.send(obj, dest, tag)
        return self.recv(source=source, tag=tag)

    # ------------------------------------------------------------------
    # one-sided windows (OpenSHMEM-style put / fence)
    # ------------------------------------------------------------------
    def win_expose(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Publish ``arr`` as this rank's window ``name``.

        Incoming puts land in ``arr`` when this rank fences (or, on
        socket transports, when the progress thread applies a
        cross-node put).  Re-exposing a name rebinds it.
        """
        ctx = self._ctx()
        with self._win_lock:
            self._windows[(ctx.rank, name)] = arr
        return arr

    def win_drop(self, name: str) -> None:
        """Withdraw this rank's window ``name`` (idempotent)."""
        ctx = self._ctx()
        with self._win_lock:
            self._windows.pop((ctx.rank, name), None)

    def _window(self, owner: int, name: str) -> np.ndarray | None:
        with self._win_lock:
            return self._windows.get((owner, name))

    def put(self, name: str, values: np.ndarray, dest: int, idx,
            axis: int = 0, owned: bool = False) -> None:
        """Write ``values`` into region ``idx`` of ``dest``'s window.

        One-sided: the target does not post a receive — it sees the
        region once it fences this origin.  ``idx`` is ``(lo, hi)``
        bounds or an index vector along ``axis``.  Cost accounting is
        identical to :meth:`send` (origin pays latency + transfer), so
        protocols ported from send/recv to put+fence keep their virtual
        time.  ``owned`` has `_send_owned` semantics: the caller proves
        nothing else aliases ``values``.
        """
        ctx = self._ctx()
        if not (0 <= dest < self.nranks):
            raise ValueError(f"bad put destination rank {dest}")
        if dest == ctx.rank:
            raise ValueError("self-put: write the local window directly")
        nbytes = nbytes_of(values)
        ctx.clock.charge_comm(self.machine.p2p_cost(nbytes, ctx.rank, dest))
        seq = trace_writer().send(dest, TAG_PUT, epoch=self.mail_epoch)
        self.mailboxes[dest].put(Message(
            src=ctx.rank, dst=dest, tag=TAG_PUT,
            payload=(name, axis, idx, self._egress(values, owned, dest)),
            nbytes=nbytes, arrival=ctx.clock.now, epoch=self.mail_epoch,
            seq=seq))

    def fence(self, schedule: Sequence[int]) -> None:
        """Complete one incoming put per source listed in ``schedule``.

        The schedule is the deterministic list of origins whose puts
        this rank must observe (repeat a rank once per put), derived
        from the protocol's communication pattern — neighbour lists for
        a halo exchange, the move plan for a reshape.  Draining in
        schedule order rather than arrival order is what keeps the
        clock coupling (and therefore virtual time) bit-reproducible.
        """
        ctx = self._ctx()
        for src in schedule:
            msg = self.mailboxes[ctx.rank].get(source=src, tag=TAG_PUT)
            ctx.clock.wait_comm(msg.arrival)
            same = self.machine.same_node(msg.src, ctx.rank)
            ctx.clock.charge_comm(
                self.machine.network.p2p_cost(msg.nbytes, same)
                - (self.machine.network.intra_latency if same
                   else self.machine.network.inter_latency))
            name, axis, idx, packed = msg.payload
            if isinstance(packed, str) and packed == PUT_APPLIED:
                continue  # the progress thread wrote the window
            win = self._window(ctx.rank, name)
            if win is None:
                raise RuntimeError(
                    f"rank {ctx.rank}: put into unexposed window {name!r}")
            axis_write(win, idx, axis, self._ingress_value(packed))

    # ------------------------------------------------------------------
    # collectives (SPMD: every rank must call in the same order)
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        ctx = self._ctx()
        if self.nranks == 1:
            return
        assert self._barrier is not None

        def _sync() -> None:
            self._epoch = VClock.sync_max(
                self.clocks, extra=self.machine.barrier_cost(self.nranks))

        self._barrier.wait(action_override=_sync)
        ctx.clock.advance_to(self._epoch)
        ctx.clock.charge_comm(self.machine.oversub_epoch_cost(self.nranks))

    def bcast(self, obj: Any, root: int = 0) -> Any:
        ctx = self._ctx()
        if self.nranks == 1:
            return obj
        if ctx.rank == root:
            for r in range(self.nranks):
                if r != root:
                    self.send(obj, r, TAG_COLL + 1)
            return obj
        return self.recv(source=root, tag=TAG_COLL + 1)

    def scatter(self, parts: Sequence[Any] | None, root: int = 0) -> Any:
        ctx = self._ctx()
        if ctx.rank == root:
            if parts is None or len(parts) != self.nranks:
                raise ValueError(
                    f"root must supply exactly {self.nranks} parts")
            mine = parts[root]
            for r in range(self.nranks):
                if r != root:
                    self.send(parts[r], r, TAG_COLL + 2)
            return _copy_payload(mine)
        return self.recv(source=root, tag=TAG_COLL + 2)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        ctx = self._ctx()
        if ctx.rank == root:
            out: list[Any] = [None] * self.nranks
            out[root] = _copy_payload(obj)
            # source-specific receives: with per-(src, tag) FIFO this pins
            # each contribution to the right collective even when a fast
            # rank has already sent into the *next* collective.
            for src in range(self.nranks):
                if src == root:
                    continue
                msg = self.mailboxes[ctx.rank].get(source=src,
                                                   tag=TAG_COLL + 3)
                ctx.clock.wait_comm(msg.arrival)
                out[src] = self._ingress(msg)
            return out
        self.send(obj, root, TAG_COLL + 3)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        got = self.gather(obj, root=0)
        return self.bcast(got, root=0)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] | None = None,
               root: int = 0) -> Any | None:
        """Fold ``op`` (default: +, elementwise for arrays) at ``root``:
        gather everything at the root and left-fold in rank order."""
        ctx = self._ctx()
        fold = op if op is not None else operator.add
        vals = self.gather(obj, root=root)
        if ctx.rank != root:
            return None
        assert vals is not None
        acc = vals[0]
        for v in vals[1:]:
            acc = fold(acc, v)
        return acc

    def allreduce(self, obj: Any,
                  op: Callable[[Any, Any], Any] | None = None) -> Any:
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    def alltoall(self, parts: Sequence[Any]) -> list[Any]:
        ctx = self._ctx()
        if len(parts) != self.nranks:
            raise ValueError(f"need exactly {self.nranks} parts")
        out: list[Any] = [None] * self.nranks
        out[ctx.rank] = _copy_payload(parts[ctx.rank])
        for r in range(self.nranks):
            if r != ctx.rank:
                self.send(parts[r], r, TAG_COLL + 4)
        for src in range(self.nranks):
            if src == ctx.rank:
                continue
            msg = self.mailboxes[ctx.rank].get(source=src, tag=TAG_COLL + 4)
            ctx.clock.wait_comm(msg.arrival)
            out[src] = self._ingress(msg)
        return out


def _shut(mailboxes, channels) -> None:
    """Close thread-queue endpoints, posting each channel one
    :data:`_WAKE` for a receiver already blocked on it."""
    for mb, ch in zip(mailboxes, channels):
        mb.close()
        ch.put(_WAKE)
