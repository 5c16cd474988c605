"""MPI-like communicator over in-process mailboxes, with virtual time.

API follows mpi4py's lower-case generic-object conventions (``send`` /
``recv`` / ``bcast`` / ``scatter`` / ``gather`` / ``reduce`` / ...): the
object is an argument, the received object is the return value.  numpy
arrays travel by reference but are defensively copied at the send side, so
ranks never alias each other's buffers (value semantics, like real MPI).

Every operation charges virtual time: the sender computes the arrival time
from the machine's network model (placement-aware: intra- vs inter-node);
the receiver couples its clock to it.

Collective algorithms are selectable (``MachineModel.coll_algo``):

* ``"flat"`` (default) — real point-to-point messages through the root,
  a flat algorithm whose linear-in-P root cost is exactly the behaviour
  the paper's Figure 4/5 discussion describes for collecting checkpoint
  data at the master.  The default, so the paper's numbers reproduce
  unchanged.
* ``"tree"`` — binomial-tree bcast / gather / reduce
  (``ceil(log2 P)`` rounds).  Costs are not separately modelled: every
  tree edge is a real ``send``/``recv`` pair, so each algorithm charges
  virtual time faithfully by construction.  Tree reduce assumes an
  associative ``op`` (it folds subtree-wise, in a deterministic order
  that differs from the flat left fold).
* ``"auto"`` — per-collective choice: each call picks flat or tree from
  the machine's modelled cost for this payload size and rank count
  (:meth:`MachineModel.collective_algo`).  The decision inputs are
  SPMD-symmetric (rank count always; payload size only where every rank
  contributes the same logical bytes — the documented contract of
  gather/reduce), so all ranks pick the same algorithm without
  negotiating.

The communicator also exposes a **one-sided** window API modelled on
OpenSHMEM: ``win_expose`` publishes an array as a named window,
``put`` writes a region of a remote window without the target calling
``recv``, ``fence(schedule)`` makes a deterministic set of incoming
puts visible, ``get`` reads a remote region, ``quiet`` completes the
caller's outstanding puts.  Cost accounting mirrors send/recv exactly
(a put charges the origin like a send; the fence charges the target's
ingress like a recv), so porting a protocol from send/recv to
put+fence moves no virtual time — only the synchronisation shape.
``fence`` takes an explicit source schedule because one-sided arrivals
are unordered across origins: draining them in arrival order would
make the target's clock coupling nondeterministic, while a schedule
derived from the (deterministic) communication pattern keeps virtual
time bit-reproducible.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.dsm.mailbox import ANY_SOURCE, ANY_TAG, Mailbox, Message
from repro.smp.barrier import AdaptiveBarrier
from repro.util.serialization import nbytes_of
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel

_tracer = None


def trace_writer():
    """The calling thread's tracer.  Resolved on first use, not at
    import: the trace plane sits on :mod:`repro.dsm.shmplane`, and this
    module is part of the ``repro.dsm`` package import."""
    global _tracer
    if _tracer is None:
        from repro.trace.plane import tracer as _tracer
    return _tracer()


#: reserved tag space for collective plumbing (user tags must be < this).
TAG_COLL = 1 << 30
MAX_USER_TAG = TAG_COLL - 1

#: one-sided plumbing tags: put envelopes, remote-get request/reply.
TAG_PUT = TAG_COLL + 6
TAG_GETREQ = TAG_COLL + 7
TAG_GETREP = TAG_COLL + 8

#: payload marker for puts a transport already applied to the target
#: window (direct symmetric-heap writes): the fence still drains the
#: envelope for clock coupling, but has nothing left to copy.
PUT_APPLIED = "<put-applied>"

#: modelled wire size of a one-sided get request (a window descriptor).
_GETREQ_NBYTES = 64

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

    @property
    def is_root(self) -> bool:
        return self.rank == 0


def _copy_payload(obj: Any) -> Any:
    """Value semantics for the common payload shapes."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, (list, tuple)):
        t = type(obj)
        return t(_copy_payload(x) for x in obj)
    return obj  # scalars / immutables / user objects sent by reference


def axis_read(arr: np.ndarray, idx, axis: int) -> np.ndarray:
    """Region of ``arr`` along ``axis``: ``(lo, hi)`` bounds -> a view,
    an index vector -> a fresh ``np.take`` buffer."""
    if isinstance(idx, tuple):
        sl: list = [slice(None)] * arr.ndim
        sl[axis] = slice(idx[0], idx[1])
        return arr[tuple(sl)]
    return np.take(arr, idx, axis=axis)


def axis_write(arr: np.ndarray, idx, axis: int, vals) -> None:
    """Assign ``vals`` into the region of ``arr`` described by ``idx``."""
    sl: list = [slice(None)] * arr.ndim
    sl[axis] = slice(idx[0], idx[1]) if isinstance(idx, tuple) else idx
    arr[tuple(sl)] = vals


class Communicator:
    """Collective + point-to-point communication among ``nranks`` ranks."""

    def __init__(self, nranks: int, machine: MachineModel,
                 clocks: Sequence[VClock]) -> None:
        if nranks < 1:
            raise ValueError("communicator needs at least one rank")
        if len(clocks) != nranks:
            raise ValueError("one clock per rank required")
        self.nranks = nranks
        self.machine = machine
        self.coll_algo = getattr(machine, "coll_algo", "flat")
        self.clocks = list(clocks)
        self.mailboxes = [Mailbox(r) for r in range(nranks)]
        self._barrier = AdaptiveBarrier(nranks) if nranks > 1 else None
        self._epoch = 0.0
        #: membership epoch stamped on every outgoing envelope; the
        #: in-process transport never bumps it (rank threads die with
        #: their membership), the process transports do.
        self.mail_epoch = 0
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
        for mb in self.mailboxes:
            mb.close()
        if self._barrier is not None:
            self._barrier.abort()

    # ------------------------------------------------------------------
    # elastic membership (see repro.elastic)
    # ------------------------------------------------------------------
    def reshape(self, new_n: int, clocks: Sequence[VClock]) -> None:
        """Re-size the membership to ``new_n`` ranks.

        MUST be called while every current rank is quiescent (parked in
        the membership-switch barrier — the elastic protocol guarantees
        this), with all mailboxes drained of user traffic.  Survivors
        keep their rank ids and mailboxes; joiner mailboxes are created
        fresh; retiree mailboxes are closed so a stray send to a retired
        rank fails loudly instead of vanishing.
        """
        if len(clocks) != new_n:
            raise ValueError("one clock per surviving/joining rank required")
        if new_n > self.nranks:
            self.mailboxes.extend(
                Mailbox(r) for r in range(self.nranks, new_n))
        else:
            for mb in self.mailboxes[new_n:]:
                mb.close()
            del self.mailboxes[new_n:]
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
    # one-sided windows (OpenSHMEM-style put / get / fence / quiet)
    # ------------------------------------------------------------------
    def win_expose(self, name: str, arr: np.ndarray) -> np.ndarray:
        """Publish ``arr`` as this rank's window ``name``.

        Incoming puts land in ``arr`` when this rank fences; peers in
        the same address space (and remote progress threads, on socket
        transports) may ``get`` regions of it.  Re-exposing a name
        rebinds it.
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

    def win_alloc(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """Collectively allocate and expose a symmetric window.

        Every rank calls with identical arguments (SPMD) and gets back
        its local instance, zero-initialised.  The base transport backs
        it with a private array; heap-carrying transports override this
        to place it on the shared symmetric heap, which is what enables
        direct remote writes and co-located one-sided ``get``.  Like
        OpenSHMEM's ``shmem_malloc``, the allocation ends in an implicit
        barrier: when it returns, every rank's window exists and is
        addressable.
        """
        win = self.win_expose(name, np.zeros(shape, dtype=dtype))
        self.barrier()
        return win

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
        self._deliver_put(ctx, name, values, dest, idx, axis, owned, nbytes)

    def _deliver_put(self, ctx: RankContext, name: str, values, dest: int,
                     idx, axis: int, owned: bool, nbytes: int) -> None:
        """Transport half of :meth:`put` (overridden by heap routes)."""
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
                continue  # transport wrote the window directly
            win = self._window(ctx.rank, name)
            if win is None:
                raise RuntimeError(
                    f"rank {ctx.rank}: put into unexposed window {name!r}")
            axis_write(win, idx, axis, self._ingress_value(packed))

    def quiet(self) -> None:
        """Complete this rank's outstanding puts (OpenSHMEM ``quiet``).

        All transports here deliver puts synchronously at issue — the
        envelope is deposited (or the heap written) before :meth:`put`
        returns, and per-(origin, target) ordering is FIFO — so there
        is nothing left to drain.  Kept as an explicit point in the API
        so protocols state their ordering intent and a future
        asynchronous transport has a seam to hook.
        """
        self._ctx()

    def get(self, name: str, src: int, idx, axis: int = 0) -> np.ndarray:
        """Read region ``idx`` of ``src``'s window ``name`` (one-sided).

        The origin is charged a modelled round trip — request envelope
        out, region transfer back — and the target's clock is untouched
        (its CPU never participates; in the remote case a progress
        thread serves the window).  Callers bound racing writers with
        fences, exactly as OpenSHMEM requires.
        """
        ctx = self._ctx()
        if not (0 <= src < self.nranks):
            raise ValueError(f"bad get source rank {src}")
        if src == ctx.rank:
            win = self._window(ctx.rank, name)
            if win is None:
                raise RuntimeError(f"get from unexposed window {name!r}")
            return np.ascontiguousarray(axis_read(win, idx, axis))
        vals = self._fetch_window(ctx, name, src, idx, axis)
        ctx.clock.charge_comm(
            self.machine.p2p_cost(_GETREQ_NBYTES, ctx.rank, src)
            + self.machine.p2p_cost(nbytes_of(vals), src, ctx.rank))
        return vals

    def _fetch_window(self, ctx: RankContext, name: str, src: int, idx,
                      axis: int) -> np.ndarray:
        """Transport half of :meth:`get` (overridden by heap/socket
        routes).  The base transport shares one address space, so the
        peer's window is readable directly."""
        win = self._window(src, name)
        if win is None:
            raise RuntimeError(
                f"rank {src} has not exposed window {name!r}")
        return np.array(axis_read(win, idx, axis))

    # ------------------------------------------------------------------
    # collectives (SPMD: every rank must call in the same order)
    # ------------------------------------------------------------------
    def _algo(self, nbytes: int = 0) -> str:
        """The algorithm this collective call runs: the machine knob
        verbatim, or — under ``"auto"`` — the advisor's per-call choice
        from rank count and payload size.  Every input is identical on
        every rank (``nbytes`` by the SPMD symmetric-contribution
        contract of the callers that pass it), so the choice needs no
        agreement protocol."""
        if self.coll_algo != "auto":
            return self.coll_algo
        return self.machine.collective_algo(self.nranks, nbytes)

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

    # ------------------------------------------------------------------
    # binomial-tree helpers: ranks are relabelled so the root is virtual
    # rank 0; every edge is a real send/recv pair, so each algorithm's
    # virtual-time cost emerges from the network model untouched.
    # ------------------------------------------------------------------
    def _vrank(self, rank: int, root: int) -> int:
        return (rank - root) % self.nranks

    def _actual(self, vrank: int, root: int) -> int:
        return (vrank + root) % self.nranks

    def _tree_bcast(self, obj: Any, root: int) -> Any:
        ctx = self._ctx()
        n = self.nranks
        vr = self._vrank(ctx.rank, root)
        mask = 1
        while mask < n:  # receive from the parent (lowest set bit)
            if vr & mask:
                obj = self.recv(source=self._actual(vr - mask, root),
                                tag=TAG_COLL + 1)
                break
            mask <<= 1
        mask >>= 1
        while mask > 0:  # relay down the subtree, widest child first
            if vr + mask < n:
                self.send(obj, self._actual(vr + mask, root), TAG_COLL + 1)
            mask >>= 1
        return obj

    def _tree_gather(self, obj: Any, root: int) -> list[Any] | None:
        ctx = self._ctx()
        n = self.nranks
        vr = self._vrank(ctx.rank, root)
        got: dict[int, Any] = {ctx.rank: _copy_payload(obj)}
        mask = 1
        while mask < n:
            if vr & mask:  # forward the collected subtree to the parent
                self._send_owned(got, self._actual(vr - mask, root),
                                 TAG_COLL + 3)
                return None
            src = vr + mask
            if src < n:
                got.update(self.recv(source=self._actual(src, root),
                                     tag=TAG_COLL + 3))
            mask <<= 1
        return [got[r] for r in sorted(got)] if n > 1 else [got[ctx.rank]]

    def _tree_reduce(self, obj: Any, fold: Callable[[Any, Any], Any],
                     root: int) -> Any | None:
        ctx = self._ctx()
        n = self.nranks
        vr = self._vrank(ctx.rank, root)
        acc = _copy_payload(obj)
        mask = 1
        while mask < n:
            if vr & mask:
                self._send_owned(acc, self._actual(vr - mask, root),
                                 TAG_COLL + 3)
                return None
            src = vr + mask
            if src < n:  # deterministic order: nearest subtree first
                acc = fold(acc, self.recv(
                    source=self._actual(src, root), tag=TAG_COLL + 3))
            mask <<= 1
        return acc

    def bcast(self, obj: Any, root: int = 0) -> Any:
        ctx = self._ctx()
        if self.nranks == 1:
            return obj
        # non-roots hold no payload, so the auto decision for bcast is
        # made on rank count alone (the latency term dominates it).
        if self._algo() == "tree":
            return self._tree_bcast(obj, root)
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
        if self.nranks > 1 and self._algo(nbytes_of(obj)) == "tree":
            return self._tree_gather(obj, root)
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
        """Fold ``op`` (default: +, elementwise for arrays) at ``root``.

        Flat: gather everything at the root and left-fold in rank order.
        Tree: partial results combine up the binomial tree — moves
        ``O(log P)`` payloads per member instead of ``P`` through the
        root, at the price of a subtree-wise (associativity-assuming)
        fold order.
        """
        ctx = self._ctx()
        fold = op if op is not None else _default_add
        if self.nranks > 1 and self._algo(nbytes_of(obj)) == "tree":
            return self._tree_reduce(obj, fold, root)
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


def _default_add(a: Any, b: Any) -> Any:
    if isinstance(a, np.ndarray):
        return a + b
    return a + b
