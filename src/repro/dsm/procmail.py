"""The multiprocessing transport for collectives.

Every rank receives through the one :class:`~repro.dsm.mailbox.Mailbox`
(selective receive over ``(source, tag)``); this module carries it
across *process* boundaries so the whole
:class:`~repro.dsm.comm.Communicator` algorithm layer (point-to-point,
scatter/gather, halo exchange, reductions, one-sided put/fence)
runs unchanged over real processes — the collectives are bridged, not
reimplemented.

Transport: one :class:`Channel` per rank — a pipe whose ``put`` pickles
and writes the frame in the calling thread, so an envelope is in the
peer's pipe when ``put`` returns.  Any process may put into any rank's
channel; only the owning rank gets from its own, through its mailbox's
pending buffer.

Matching is **epoch-scoped**: every envelope carries the sender's
membership epoch, and the receiver only matches envelopes of its *own*
epoch.  The rank channels deliberately outlive elastic membership
switches (the pre-sized fabric), so without the epoch a retired rank's
still-queued frames could satisfy a later membership segment's
selective receive on the same ``(source, tag)`` — a use-after-retire
that shows up as silently wrong data.  Stale-epoch arrivals are dropped
at the drain; future-epoch arrivals (a peer that switched first) are
buffered until this rank catches up.

:class:`ProcCommunicator` subclasses :class:`Communicator`, swapping the
transport and replacing the shared-clock barrier — in separate address
spaces there is no clock list to ``sync_max`` over.  Ranks that share a
host meet at a :class:`Fence` in shared memory (1.2–1.5 µs per bare
barrier on two forked ranks of a 2-core VM, against 87–100 µs for two
messages).
The sockets fabric's members may sit on different hosts, so there the
barrier stays message-based; both give the same epochs, bit for bit.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import queue as _queue
import select
import threading
import time
import weakref
from collections import deque
from multiprocessing import context as _mpcontext
from multiprocessing import util as _mputil
from multiprocessing.reduction import ForkingPickler
from typing import TYPE_CHECKING, Any

from repro.dsm.comm import TAG_COLL, Communicator
from repro.dsm.links import frame
from repro.dsm.mailbox import Message
from repro.dsm.transport import QueueTransport, Transport
from repro.telemetry import schema as _ts
from repro.telemetry.plane import writer as telemetry_writer
from repro.trace import schema as _trs
from repro.trace.plane import tracer as trace_writer

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.shm import DataPlane
    from repro.vtime.machine import MachineModel

#: collective-plumbing tags private to the process transport.
_TAG_BARRIER_IN = TAG_COLL + 20
_TAG_BARRIER_OUT = TAG_COLL + 21
#: how long a :class:`Fence` wait polls before it sleeps: about one
#: block-and-wake of a rank (the sweep in README's "The rank barrier").
SPIN_SECONDS = 25e-6


class _Outbox:
    """One process's send side of a :class:`Channel`.

    ``send`` writes a whole frame straight into the non-blocking pipe
    when the pipe has room and no other writer holds the cross-process
    write lock.  Otherwise the frame — or the rest of a partly written
    one, with the lock still held — joins a FIFO that a flusher thread
    drains with blocking writes, and every later frame from this process
    queues behind it.  So per-sender order holds and ``send`` never
    waits for a reader.  The flusher is started on demand and exits once
    the FIFO is empty, so an idle channel holds no thread.
    """

    def __init__(self, writer, wlock) -> None:
        self.writer = writer
        self.wlock = wlock
        self.lock = threading.Lock()
        #: (frame, whether this process already holds the write lock)
        self.backlog: deque = deque()
        self.thread: threading.Thread | None = None
        self.running = False
        #: close the write end when the flusher is done with it.
        self.release = False
        self.joiner = None
        self.cancelled = False

    def send(self, frame) -> None:
        with self.lock:
            held = False
            if not self.backlog and self.wlock.acquire(False):
                try:
                    sent = os.write(self.writer.fileno(), frame)
                except BlockingIOError:
                    sent = 0
                except BaseException:
                    self.wlock.release()
                    raise
                if sent == len(frame):
                    self.wlock.release()
                    return
                held = sent > 0
                if held:
                    frame = memoryview(frame)[sent:]
                else:
                    self.wlock.release()
            self.backlog.append((frame, held))
            if not self.running:
                self._start()

    def _start(self) -> None:
        self.running = True
        self.thread = threading.Thread(target=self._run, daemon=True,
                                       name="channel-flusher")
        self.thread.start()
        if self.joiner is None and not self.cancelled:
            # like mp.Queue's feeder join: process exit waits for it
            self.joiner = _mputil.Finalize(
                self, _Outbox._finish, [weakref.ref(self)], exitpriority=-5)

    def _run(self) -> None:
        fd = self.writer.fileno()
        poller = select.poll()
        poller.register(fd, select.POLLOUT)
        while True:
            with self.lock:
                if not self.backlog:
                    self.running = False
                    if self.release:
                        self.writer.close()
                    return
                frame, held = self.backlog[0]
            try:
                if not held:
                    self.wlock.acquire()
                try:
                    while len(frame):
                        try:
                            frame = memoryview(frame)[os.write(fd, frame):]
                        except BlockingIOError:
                            poller.poll()
                finally:
                    self.wlock.release()
            except OSError:
                # every read end is closed (a broken pipe): no process
                # can ever receive what is queued here.
                with self.lock:
                    self.backlog.clear()
                continue
            with self.lock:
                self.backlog.popleft()

    def close(self) -> None:
        """Close the write end, after the flusher if one is running."""
        with self.lock:
            self.release = True
            if self.running:
                return
        self.writer.close()

    def cancel(self) -> None:
        self.cancelled = True
        if self.joiner is not None:
            self.joiner.cancel()

    @staticmethod
    def _finish(ref) -> None:
        out = ref()
        if out is not None and out.thread is not None:
            out.thread.join()


class Channel:
    """A rank inbox between processes, written without a feeder thread.

    ``multiprocessing.Queue.put`` only hands the object to a feeder
    thread, which pickles and writes it later and must win the GIL from
    the sender's compute to do so.  A barrier release then sat in the
    releasing rank's process until that rank next blocked, while the
    feeder preempted its kernels.  Here ``put`` pickles and writes the
    frame in the calling thread, so the envelope is in the peer's pipe
    when ``put`` returns.

    ``put`` still never blocks on a peer that is not reading: a frame
    the non-blocking pipe cannot take whole goes to this process's
    flusher (:class:`_Outbox`).  The flusher is joined at process exit,
    as ``mp.Queue``'s feeder is, unless :meth:`cancel_join_thread` was
    called.  A cross-process write lock keeps frames atomic, and ``get``
    reads whole frames under a read lock, so a parent draining a channel
    never tears a frame its owner is reading.  The surface is the part
    of ``mp.Queue`` the mailboxes use (``put``, ``get``, ``get_nowait``,
    ``close``, ``cancel_join_thread``) plus ``fileno`` for waits; like a
    queue, a channel reaches a child only as a process argument.
    """

    def __init__(self, ctx=None) -> None:
        ctx = ctx or mp.get_context()
        self._reader, self._writer = ctx.Pipe(duplex=False)
        self._rlock = ctx.Lock()
        self._wlock = ctx.Lock()
        os.set_blocking(self._writer.fileno(), False)
        self._after_fork()
        _mputil.register_after_fork(self, Channel._after_fork)

    def __getstate__(self):
        _mpcontext.assert_spawning(self)
        return self._reader, self._writer, self._rlock, self._wlock

    def __setstate__(self, state) -> None:
        self._reader, self._writer, self._rlock, self._wlock = state
        self._after_fork()
        _mputil.register_after_fork(self, Channel._after_fork)

    def _after_fork(self) -> None:
        """Fresh process-local state: no inherited backlog or flusher."""
        self._closed = self._reader.closed
        self._out = _Outbox(self._writer, self._wlock)

    # ------------------------------------------------------------------
    def put(self, obj) -> None:
        if self._closed:
            raise ValueError("channel is closed")
        self._out.send(frame(obj))

    def get(self, block: bool = True, timeout: float | None = None):
        """Next frame; ``queue.Empty`` when none arrives in time."""
        if self._closed:
            raise ValueError("channel is closed")
        if not block:
            timeout = 0.0
        deadline = None if timeout is None else time.monotonic() + timeout
        # wait for a frame without the read lock: a reader killed while
        # waiting must not take the lock with it.  The lock covers only
        # the read, after a re-check (another reader may have won).  The
        # poller is this call's: two threads' waits may not share one.
        poller = select.poll()
        poller.register(self._reader.fileno(), select.POLLIN)
        while True:
            left = None if deadline is None else \
                max(0.0, deadline - time.monotonic())
            if not poller.poll(None if left is None else left * 1e3):
                raise _queue.Empty
            if not self._rlock.acquire(True, left):
                raise _queue.Empty
            try:
                blob = self._reader.recv_bytes() if poller.poll(0) else None
            finally:
                self._rlock.release()
            if blob is not None:
                return ForkingPickler.loads(blob)

    def get_nowait(self):
        return self.get(False)

    def fileno(self) -> int:
        """The read end's descriptor: a channel is a waitable for
        ``multiprocessing.connection.wait`` (readable = a frame began)."""
        return self._reader.fileno()

    def close(self) -> None:
        """Release this process's ends; queued frames still go out."""
        if self._closed:
            return
        self._closed = True
        self._reader.close()
        self._out.close()

    def cancel_join_thread(self) -> None:
        """Let this process exit without delivering what its flusher
        still holds (the unwind path: the phase outcome is decided)."""
        self._out.cancel()


class Fence:
    """The barrier of ranks that share a host, in shared memory.

    One semaphore and one shared ``float64`` word per rank slot.  A rank
    writes its clock into its word, posts rank 0's semaphore and waits
    on its own; rank 0 takes ``n - 1`` posts, writes the epoch into each
    peer's word and posts the peer, which reads it and clears the word
    to NaN (not arrived).  The semaphores hand each word to one writer
    at a time, and a rank leaving the membership still reads its own
    epoch.  Sized to the pre-sized fabric (a reshape changes only
    ``n``), built before any fork, shipped to a child only as a process
    argument.  Not the one-sided ``Communicator.fence``.

    A wait spins, then blocks: it polls its semaphore without blocking
    (``sem_trywait``, no syscall) for ``SPIN_SECONDS``, so a post to a
    spinning peer costs no futex wake, and only then sleeps until the
    deadline.  A fence spins only when its slots fit the CPUs this
    process may run on; an oversubscribed fabric would spin against the
    very peers it waits for.  The spin holds the GIL between the
    interpreter's switch points (5 ms apart), so it delays the rank's
    channel flusher thread by at most the budget.
    """

    def __init__(self, slots: int, ctx=None) -> None:
        ctx = ctx or mp.get_context()
        self._sems = [ctx.Semaphore(0) for _ in range(slots)]
        self._words = ctx.RawArray("d", slots)
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        self._spin = SPIN_SECONDS if slots <= (cpus or 1) else 0.0
        self.reset()

    def reset(self) -> None:
        """Drop every stale post and arrival (no rank may be inside)."""
        for sem in self._sems:
            while sem.acquire(False):
                pass
        self._words[:] = [math.nan] * len(self._words)

    def sync(self, rank: int, n: int, now: float, cost: float,
             timeout: float = 60.0) -> float:
        """Arrive with clock ``now``; the epoch once all ``n`` arrived:
        the latest arrival plus ``cost``.  A wait past ``timeout`` is a
        ``TimeoutError`` naming this rank and the ranks not arrived."""
        words = self._words
        words[rank] = now
        deadline = time.monotonic() + timeout
        if rank != 0:
            self._sems[0].release()
            self._wait(rank, n, deadline, timeout)
            epoch = words[rank]
            words[rank] = math.nan
            return epoch
        for _ in range(n - 1):
            self._wait(0, n, deadline, timeout)
        epoch = max(words[:n]) + cost
        words[0] = math.nan
        for r in range(1, n):
            words[r] = epoch
            self._sems[r].release()
        return epoch

    def _wait(self, rank: int, n: int, deadline: float,
              timeout: float) -> None:
        sem = self._sems[rank]
        if self._spin:
            stop = time.perf_counter() + min(
                self._spin, deadline - time.monotonic())
            while time.perf_counter() < stop:
                if sem.acquire(False):
                    return
        if sem.acquire(timeout=max(0.0, deadline - time.monotonic())):
            return
        missing = [r for r in range(n) if math.isnan(self._words[r])]
        raise TimeoutError(
            f"rank {rank}: barrier of {n} ranks expired after {timeout}s; "
            f"never arrived: {missing}")


class ProcCommunicator(Communicator):
    """The MPI-like collective layer over per-rank process mailboxes.

    Inherits every algorithm (send/recv costs, the flat root-funnel
    collectives, the one-sided put/fence window protocol; the in-place
    partition movements consume it unchanged) and the base constructor's
    endpoint, epoch and window set-up (with no shared clock list);
    overrides the barrier (epoch agreement through a
    :class:`Fence`, or through messages when there is none, instead of
    ``VClock.sync_max`` across threads), and — when a
    :class:`~repro.dsm.shm.DataPlane` is wired — the transport hooks:
    large array payloads, puts included, cross as shared-memory slab
    descriptors instead of pickles through the channel pipes.  Virtual
    time is charged on the logical payload before packing, so the cost
    model cannot tell the transports apart (cross-backend vtime parity
    is preserved by construction).

    The endpoint fabric comes from a :class:`Transport` (defaulting to
    :class:`QueueTransport` over ``channels``); it may be pre-sized
    beyond the active rank count (elastic launches build it for
    ``max_ranks``): endpoints exist for every potential member, while
    the collectives only ever span ``self.nranks`` — an elastic reshape
    is then just an update of ``nranks`` and the mail epoch at a
    quiesced point, no new transport.
    """

    def __init__(self, rank: int, nranks: int, machine: "MachineModel",
                 channels=None, plane: "DataPlane | None" = None,
                 transport: Transport | None = None,
                 mail_epoch: int = 0, fence: Fence | None = None) -> None:
        if transport is None:
            if channels is None or len(channels) < nranks:
                raise ValueError("one channel per rank required")
            transport = QueueTransport(channels)
        # no clocks: there is no clock list or thread barrier to build
        # in a per-process communicator.
        super().__init__(nranks, machine, (), transport=transport,
                         rank=rank, mail_epoch=mail_epoch)
        self.plane = plane
        self._fence = fence
        self._rank = rank

    # ------------------------------------------------------------------
    def _egress(self, obj: Any, owned: bool, dest: int) -> Any:
        if self.plane is None:
            # keep the defensive copy: the duck-typed channel may be a
            # by-reference thread queue, or an mp.Queue whose feeder
            # pickles *after* put returns, so an un-owned payload could
            # still be mutated by the sender while in flight.
            return super()._egress(obj, owned, dest)
        return self.plane.outbound(obj, owned)

    def _ingress_value(self, obj: Any) -> Any:
        if self.plane is None:
            return obj
        return self.plane.inbound(obj)

    def reshape(self, new_n: int) -> None:
        """Adopt a new active membership (elastic protocol, quiesced).

        Valid only at a point where every in-flight collective has
        completed on every rank and ``new_n`` does not exceed the
        pre-sized channel fabric.  Bumps the mail epoch: anything a
        retired membership still has queued in the (surviving) channels
        becomes a dead letter rather than a candidate match for the new
        membership's selective receives.
        """
        if new_n < 1 or new_n > len(self.mailboxes):
            raise ValueError(
                f"membership {new_n} outside the pre-sized fabric "
                f"(1..{len(self.mailboxes)})")
        self.nranks = new_n
        self.mail_epoch += 1
        self.mailboxes[self._rank].set_epoch(self.mail_epoch)

    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """The barrier carrying the virtual-time epoch.

        Rank 0 takes every arrival time (through the :class:`Fence`, or
        as a message without one), lifts the epoch to the latest plus
        the barrier cost and hands it back; all clocks advance to it,
        exactly as the shared-memory implementation's ``sync_max`` does.
        """
        ctx = self._ctx()
        n = self.nranks
        if n == 1:
            return
        clk = ctx.clock
        t0 = time.perf_counter()
        if self._fence is not None:
            epoch = self._fence.sync(ctx.rank, n, clk.now,
                                    self.machine.barrier_cost(n))
        else:
            epoch = self._message_epoch(ctx.rank, clk.now)
        tele = telemetry_writer()
        if tele.active:
            tele.inc(_ts.BARRIER_WAIT_SECONDS, time.perf_counter() - t0)
        tr = trace_writer()
        if tr.active:
            tr.span(_trs.BARRIER, t0, a=epoch, b=float(n))
        clk.advance_to(epoch)
        clk.charge_comm(self.machine.oversub_epoch_cost(n))

    def _message_epoch(self, rank: int, now: float) -> float:
        if rank == 0:
            arrivals = [now]
            for src in range(1, self.nranks):
                msg = self.mailboxes[0].get(source=src, tag=_TAG_BARRIER_IN)
                arrivals.append(msg.payload)
            epoch = max(arrivals) + self.machine.barrier_cost(self.nranks)
            for r in range(1, self.nranks):
                self.mailboxes[r].put(Message(
                    src=0, dst=r, tag=_TAG_BARRIER_OUT, payload=epoch,
                    nbytes=8, arrival=epoch, epoch=self.mail_epoch))
            return epoch
        self.mailboxes[0].put(Message(
            src=rank, dst=0, tag=_TAG_BARRIER_IN, payload=now,
            nbytes=8, arrival=now, epoch=self.mail_epoch))
        return self.mailboxes[rank].get(
            source=0, tag=_TAG_BARRIER_OUT).payload
