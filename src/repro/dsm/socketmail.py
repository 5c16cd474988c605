"""TCP transport and topology-aware routing: the multi-node fabric.

This is the third transport behind the :class:`~repro.dsm.transport.
Transport` seam.  A :class:`SocketTransport` gives one rank a hybrid
endpoint list:

* **co-located peers** (same physical node) keep the process fabric —
  envelopes through the rank :class:`~repro.dsm.procmail.Channel`
  pipes, large payloads as
  shared-memory slab descriptors via the data plane; nothing crosses a
  wire;
* **remote peers** are reached over TCP: one cached
  :class:`~multiprocessing.connection.Connection` per destination,
  dialled on first send, one pickled :class:`Message` per frame.

Inbound frames are served by the rank's **progress thread**, one
:class:`~repro.dsm.links.LinkLoop` however many peers connect, which
*re-injects* each envelope into the rank's own channel: the receive
side stays one :class:`~repro.dsm.procmail.ProcessMailbox` with its
selective-receive, FIFO-per-(source, tag), epoch-scoped and deadline
semantics, and remote and local traffic are indistinguishable above
the seam.  Two frame kinds are served *in* the progress thread (that
is what makes the one-sided API genuinely one-sided across nodes):

* ``TAG_PUT`` into a known window is applied directly to the window
  memory and re-injected as a ``PUT_APPLIED`` envelope (the fence still
  drains it for virtual-time coupling, but has nothing left to copy);
* ``TAG_GETREQ`` reads the requested window region and replies with a
  ``TAG_GETREP`` frame; one that arrives before ``attach`` (a fast
  peer) is held and answered on ``attach``.

:class:`HierarchicalCommunicator` adds the routing policy on top:
placement-aware egress (slabs within a node, frames across),
heap-direct one-sided traffic for co-located peers, remote windows via
the progress thread, and — when the collective algorithm resolves to
``"tree"`` — leader-per-node collectives: one rank per physical node
relays on the wire, members fan out/in over shared memory.  Every hop
is a real modelled send/recv, so virtual time stays faithful; the
``"flat"`` algorithm is inherited unchanged and bit-exact.
"""

from __future__ import annotations

import pickle
import threading
import time
from functools import partial
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.dsm.comm import (
    _GETREQ_NBYTES,
    PUT_APPLIED,
    TAG_COLL,
    TAG_GETREP,
    TAG_GETREQ,
    TAG_PUT,
    axis_read,
    axis_write,
)
from repro.dsm.links import LinkLoop, dial
from repro.dsm.mailbox import Message
from repro.dsm.procmail import ProcCommunicator, ProcessMailbox
from repro.dsm.transport import Transport
from repro.telemetry import schema as _ts
from repro.telemetry.plane import writer as telemetry_writer
from repro.trace import schema as _tc
from repro.trace.plane import tracer as trace_writer

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.comm import RankContext
    from repro.dsm.shm import DataPlane
    from repro.vtime.machine import MachineModel

#: leader-per-node collective plumbing tags.
_TAG_HIER_BCAST = TAG_COLL + 30
_TAG_HIER_GATHER = TAG_COLL + 31
_TAG_HIER_REDUCE = TAG_COLL + 32

class SocketPeer:
    """Egress stub for a remote rank: ``put`` frames the envelope.

    The pickle happens synchronously inside ``put``, so senders need no
    defensive copy for socket-bound payloads — the bytes are captured
    before ``put`` returns.
    """

    def __init__(self, transport: "SocketTransport", dest: int) -> None:
        self._transport = transport
        self.rank = dest

    def put(self, msg: Message) -> None:
        self._transport.send_frame(self.rank, msg)

    def close(self) -> None:  # the transport owns the connections
        pass


class SocketTransport(Transport):
    """One rank's hybrid fabric: channels within the node, TCP across.

    ``channels`` is the full pre-sized rank-channel list (one
    :class:`~repro.dsm.procmail.Channel` per fabric slot in a launch;
    any mailbox channel serves); ``pnode_of`` maps a rank to its
    *physical* node (the deployment layout — distinct from
    ``MachineModel.node_of``, which is the modelled topology feeding
    the clocks).  Construction binds the rank's listener (port 0 — the
    OS picks); the caller publishes ``self.address`` to peers and
    installs the gathered map with :meth:`set_addresses` before the
    first remote send.
    """

    def __init__(self, rank: int, channels, pnode_of: Callable[[int], int],
                 bind_host: str = "127.0.0.1") -> None:
        self.rank = rank
        self.channels = channels
        self.pnode_of = pnode_of
        self._addresses: dict[int, tuple[str, int]] = {}
        self._conns: dict[int, Connection] = {}
        self._send_lock = threading.Lock()
        self._frames: dict[int, int] = {}
        self._comm: "HierarchicalCommunicator | None" = None
        self._loop = LinkLoop(f"sk-progress-{rank}")
        #: (host, port) peers reach this rank's progress thread at.
        self.address: tuple[str, int] = self._loop.bind(bind_host,
                                                        self._dispatch)
        self._loop.start()

    # ------------------------------------------------------------------
    def set_addresses(self, addresses: dict[int, tuple[str, int]]) -> None:
        """Install the rendezvous result (rank -> listener address)."""
        self._addresses.update(addresses)

    def attach(self, comm: "HierarchicalCommunicator") -> None:
        """Give the progress thread the window registry it serves."""
        self._comm = comm
        self._loop.wake()  # answer the window requests held for it

    def colocated(self, peer: int) -> bool:
        return self.pnode_of(peer) == self.pnode_of(self.rank)

    def endpoints(self, rank: int) -> list:
        if rank != self.rank:
            raise ValueError("a SocketTransport is bound to one rank")
        out: list = []
        for r, ch in enumerate(self.channels):
            if r == self.rank or self.colocated(r):
                out.append(ProcessMailbox(r, ch))
            else:
                out.append(SocketPeer(self, r))
        return out

    def frame_counts(self) -> dict[int, int]:
        """TCP frames sent per destination.  Co-located peers must never
        appear here — that absence is the routing assertion the topology
        tests make."""
        return dict(self._frames)

    # ------------------------------------------------------------------
    # egress
    # ------------------------------------------------------------------
    def send_frame(self, dest: int, msg: Message) -> None:
        blob = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        with self._send_lock:
            conn = self._conns.get(dest)
            if conn is None:
                addr = self._addresses.get(dest)
                if addr is None:
                    raise RuntimeError(
                        f"rank {self.rank}: no address for remote rank "
                        f"{dest} (rendezvous incomplete)")
                conn = self._conns[dest] = dial(addr)
            conn.send_bytes(blob)
            self._frames[dest] = self._frames.get(dest, 0) + 1
        tele = telemetry_writer()
        if tele.active:
            tele.inc(_ts.SEND_BYTES_TCP, float(len(blob)))
            tele.inc(_ts.SEND_MSGS_TCP)
        tr = trace_writer()
        if tr.active:
            tr.instant(_tc.TCP_FRAME, a=float(dest), b=float(len(blob)))

    # ------------------------------------------------------------------
    # ingress: the progress thread
    # ------------------------------------------------------------------
    def _dispatch(self, _link, msg: Message) -> None:
        if msg.tag == TAG_GETREQ:
            # served once attached: a fast peer may ask before this rank
            # built its communicator ("not exposed" if not within 30 s).
            self._loop.hold(lambda: self._comm is not None,
                            partial(self._serve_get, msg),
                            time.monotonic() + 30.0)
            return
        if msg.tag == TAG_PUT:
            name, axis, idx, values = msg.payload
            win = self._serve_window(name)
            if win is not None and not isinstance(values, str):
                # one-sided apply in the progress thread: the target CPU
                # never touches the payload; its fence only couples time.
                axis_write(win, idx, axis, values)
                msg = Message(src=msg.src, dst=msg.dst, tag=TAG_PUT,
                              payload=(name, axis, idx, PUT_APPLIED),
                              nbytes=msg.nbytes, arrival=msg.arrival,
                              epoch=msg.epoch, seq=msg.seq)
        self.channels[self.rank].put(msg)

    def _serve_window(self, name: str) -> np.ndarray | None:
        """This rank's window ``name`` as the progress thread sees it."""
        comm = self._comm
        if comm is None:
            return None
        heap = comm.plane.heap if comm.plane is not None else None
        if heap is not None and heap.has(name):
            return heap.window(name)
        return comm._window(self.rank, name)

    def _serve_get(self, msg: Message) -> None:
        name, idx, axis = msg.payload
        win = self._serve_window(name)
        if win is None:
            reply = Message(src=self.rank, dst=msg.src, tag=TAG_GETREP,
                            payload=RuntimeError(
                                f"rank {self.rank}: window {name!r} is not "
                                "exposed"),
                            nbytes=0, arrival=0.0, epoch=msg.epoch)
        else:
            vals = np.ascontiguousarray(axis_read(win, idx, axis))
            reply = Message(src=self.rank, dst=msg.src, tag=TAG_GETREP,
                            payload=vals, nbytes=vals.nbytes,
                            arrival=0.0, epoch=msg.epoch)
        self.send_frame(msg.src, reply)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._loop.stop(5.0)
        with self._send_lock:
            for conn in self._conns.values():
                conn.close()
            self._conns.clear()


class HierarchicalCommunicator(ProcCommunicator):
    """Topology-aware routing over a :class:`SocketTransport`.

    The algorithm layer is inherited whole; this class decides, per
    destination, *which* fabric a payload rides: co-located ranks get
    the zero-copy slab plane through channels, remote ranks get TCP
    frames (pickled synchronously at ``put`` — no defensive copy, and
    never a raw shm descriptor, which would be meaningless off-node).
    One-sided windows on the symmetric heap are written/read directly
    for co-located peers and served by the remote rank's progress
    thread otherwise.  Under the ``"tree"`` algorithm, collectives run
    leader-per-node so each inter-node link carries each payload once.
    """

    def __init__(self, rank: int, nranks: int, machine: "MachineModel",
                 transport: SocketTransport,
                 plane: "DataPlane | None" = None,
                 mail_epoch: int = 0) -> None:
        super().__init__(rank, nranks, machine, plane=plane,
                         transport=transport, mail_epoch=mail_epoch)
        self.pnode_of = transport.pnode_of
        transport.attach(self)

    # ------------------------------------------------------------------
    # placement-aware transport hooks
    # ------------------------------------------------------------------
    def colocated(self, peer: int) -> bool:
        return self.pnode_of(peer) == self.pnode_of(self._rank)

    def _egress(self, obj: Any, owned: bool, dest: int) -> Any:
        if self.colocated(dest):
            return super()._egress(obj, owned, dest)
        # socket-bound: SocketPeer pickles inside put, so the payload is
        # captured synchronously — by-reference is value-safe here, and
        # a slab descriptor would dangle on the far node.
        return obj

    def _put_direct(self, dest: int, name: str) -> np.ndarray | None:
        if not self.colocated(dest):
            return None
        return super()._put_direct(dest, name)

    def _fetch_window(self, ctx: "RankContext", name: str, src: int, idx,
                      axis: int) -> np.ndarray:
        win = self._put_direct(src, name)
        if win is not None:  # co-located: read the heap pages in place
            return np.ascontiguousarray(axis_read(win, idx, axis))
        self.mailboxes[src].put(Message(
            src=ctx.rank, dst=src, tag=TAG_GETREQ, payload=(name, idx, axis),
            nbytes=_GETREQ_NBYTES, arrival=ctx.clock.now,
            epoch=self.mail_epoch))
        rep = self.mailboxes[ctx.rank].get(source=src, tag=TAG_GETREP)
        if isinstance(rep.payload, Exception):
            raise rep.payload
        return rep.payload

    # ------------------------------------------------------------------
    # leader-per-node collectives (the "tree" routing on this fabric)
    # ------------------------------------------------------------------
    def _groups(self) -> tuple[dict[int, list[int]], list[int]]:
        """Active members grouped by physical node, plus the leaders
        (lowest rank per node, ordered by their node's first rank)."""
        groups: dict[int, list[int]] = {}
        for r in range(self.nranks):
            groups.setdefault(self.pnode_of(r), []).append(r)
        leaders = [members[0] for members in groups.values()]
        return groups, leaders

    def _multi_node(self) -> bool:
        return len({self.pnode_of(r) for r in range(self.nranks)}) > 1

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if self.nranks > 1 and self._multi_node() and self._algo() == "tree":
            return self._hier_bcast(obj, root)
        return super().bcast(obj, root)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        from repro.util.serialization import nbytes_of
        if (self.nranks > 1 and self._multi_node()
                and self._algo(nbytes_of(obj)) == "tree"):
            return self._hier_gather(obj, root)
        return super().gather(obj, root)

    def reduce(self, obj: Any, op: Callable[[Any, Any], Any] | None = None,
               root: int = 0) -> Any | None:
        from repro.dsm.comm import _default_add
        from repro.util.serialization import nbytes_of
        if (self.nranks > 1 and self._multi_node()
                and self._algo(nbytes_of(obj)) == "tree"):
            return self._hier_reduce(obj, op or _default_add, root)
        return super().reduce(obj, op=op, root=root)

    def _leader_tree(self, me: int, leaders: list[int],
                     root_leader: int) -> tuple[int | None, list[int]]:
        """Binomial-tree parent and children of ``me`` within the leader
        set, relabelled so ``root_leader`` is virtual rank 0."""
        n = len(leaders)
        pos = leaders.index(me)
        rpos = leaders.index(root_leader)
        vr = (pos - rpos) % n
        parent = None
        mask = 1
        while mask < n:
            if vr & mask:
                parent = leaders[((vr - mask) + rpos) % n]
                break
            mask <<= 1
        children = []
        # children: all set-bit extensions below the lowest set bit
        cm = 1
        limit = mask if parent is not None else n
        while cm < limit and vr + cm < n:
            children.append(leaders[((vr + cm) + rpos) % n])
            cm <<= 1
        # widest child first, matching _tree_bcast's relay order
        children.reverse()
        return parent, children

    def _hier_bcast(self, obj: Any, root: int) -> Any:
        ctx = self._ctx()
        groups, leaders = self._groups()
        my_node = self.pnode_of(ctx.rank)
        my_leader = groups[my_node][0]
        root_leader = groups[self.pnode_of(root)][0]
        # hop 1: the payload reaches the root's node leader
        if ctx.rank == root and root != root_leader:
            self.send(obj, root_leader, _TAG_HIER_BCAST)
        if ctx.rank == root_leader and root != root_leader:
            obj = self.recv(source=root, tag=_TAG_HIER_BCAST)
        # hop 2: binomial tree across node leaders (the only wire hops)
        if ctx.rank in leaders and len(leaders) > 1:
            parent, children = self._leader_tree(ctx.rank, leaders,
                                                 root_leader)
            if parent is not None:
                obj = self.recv(source=parent, tag=_TAG_HIER_BCAST)
            for child in children:
                self.send(obj, child, _TAG_HIER_BCAST)
        # hop 3: leaders fan out to their node members over shared memory
        if ctx.rank == my_leader:
            for r in groups[my_node]:
                if r not in (my_leader, root):
                    self.send(obj, r, _TAG_HIER_BCAST)
        elif ctx.rank != root:
            obj = self.recv(source=my_leader, tag=_TAG_HIER_BCAST)
        return obj

    def _hier_gather(self, obj: Any, root: int) -> list[Any] | None:
        ctx = self._ctx()
        groups, leaders = self._groups()
        my_node = self.pnode_of(ctx.rank)
        my_leader = groups[my_node][0]
        root_leader = groups[self.pnode_of(root)][0]
        from repro.dsm.comm import _copy_payload
        if ctx.rank != my_leader:
            # owned dict of copied values: safe for by-reference channels
            self._send_owned({ctx.rank: _copy_payload(obj)}, my_leader,
                             _TAG_HIER_GATHER)
            if ctx.rank != root:
                return None
            # the root still receives the final result from its leader
            got = self.recv(source=root_leader, tag=_TAG_HIER_GATHER)
            return [got[r] for r in range(self.nranks)]
        # leader: collect the node's contributions in rank order
        got: dict[int, Any] = {ctx.rank: _copy_payload(obj)}
        for r in groups[my_node]:
            if r != ctx.rank:
                got.update(self.recv(source=r, tag=_TAG_HIER_GATHER))
        # leaders fold up the binomial tree toward the root's leader
        if len(leaders) > 1:
            parent, children = self._leader_tree(ctx.rank, leaders,
                                                 root_leader)
            for child in children:
                got.update(self.recv(source=child, tag=_TAG_HIER_GATHER))
            if parent is not None:
                self._send_owned(got, parent, _TAG_HIER_GATHER)
                return None
        if ctx.rank == root:
            return [got[r] for r in range(self.nranks)]
        self._send_owned(got, root, _TAG_HIER_GATHER)
        return None

    def _hier_reduce(self, obj: Any, fold: Callable[[Any, Any], Any],
                     root: int) -> Any | None:
        ctx = self._ctx()
        groups, leaders = self._groups()
        my_node = self.pnode_of(ctx.rank)
        my_leader = groups[my_node][0]
        root_leader = groups[self.pnode_of(root)][0]
        if ctx.rank != my_leader:
            self.send(obj, my_leader, _TAG_HIER_REDUCE)
            if ctx.rank != root:
                return None
            return self.recv(source=root_leader, tag=_TAG_HIER_REDUCE)
        from repro.dsm.comm import _copy_payload
        acc = _copy_payload(obj)
        # fold the node's members in ascending rank order (deterministic)
        for r in groups[my_node]:
            if r != ctx.rank:
                acc = fold(acc, self.recv(source=r, tag=_TAG_HIER_REDUCE))
        # fold subtrees up the leader tree (associativity assumed, like
        # _tree_reduce: nearest subtree first)
        if len(leaders) > 1:
            parent, children = self._leader_tree(ctx.rank, leaders,
                                                 root_leader)
            for child in reversed(children):  # nearest first
                acc = fold(acc, self.recv(source=child,
                                          tag=_TAG_HIER_REDUCE))
            if parent is not None:
                self._send_owned(acc, parent, _TAG_HIER_REDUCE)
                return None
        if ctx.rank == root:
            return acc
        self._send_owned(acc, root, _TAG_HIER_REDUCE)
        return None
