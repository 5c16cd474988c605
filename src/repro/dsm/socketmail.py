"""TCP transport and topology-aware routing: the multi-node fabric.

This is the third transport behind the :class:`~repro.dsm.transport.
Transport` seam.  A :class:`SocketTransport` gives one rank a hybrid
endpoint list:

* **co-located peers** (same physical node) keep the process fabric —
  envelopes through the rank :class:`~repro.dsm.procmail.Channel`
  pipes, large payloads as
  shared-memory slab descriptors via the data plane; nothing crosses a
  wire;
* **remote peers** are reached over length-prefixed TCP frames
  (8-byte big-endian size + pickled :class:`Message`), one cached
  connection per destination, established lazily on first send.

Inbound TCP frames are handled by a per-rank **progress thread**: it
accepts peer connections and *re-injects* each received envelope into
the rank's own channel, so the receive side stays a single
:class:`~repro.dsm.procmail.ProcessMailbox` with its selective-receive,
FIFO-per-(source, tag), epoch-scoped and deadline semantics — remote
and local traffic are indistinguishable above the seam.  Two frame
kinds are served *in* the progress thread instead (that is what makes
the one-sided API genuinely one-sided across nodes — the target CPU
never participates):

* ``TAG_PUT`` into a known window is applied directly to the window
  memory and re-injected as a ``PUT_APPLIED`` envelope (the fence still
  drains it for virtual-time coupling, but has nothing left to copy);
* ``TAG_GETREQ`` reads the requested window region and replies with a
  ``TAG_GETREP`` frame.

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
import socket
import struct
import threading
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

_LEN = struct.Struct(">Q")


def _recv_exact(conn: socket.socket, n: int) -> bytes | None:
    """Read exactly ``n`` bytes, or None on a clean/broken EOF."""
    chunks = []
    while n:
        try:
            b = conn.recv(min(n, 1 << 20))
        except OSError:
            return None
        if not b:
            return None
        chunks.append(b)
        n -= len(b)
    return b"".join(chunks)


def wake_accept(listener: socket.socket, address) -> None:
    """Wake a thread blocked in ``listener.accept()``.

    A cross-thread ``close()`` of the listener does not; shutting it
    down does (Linux).  Where shutdown is refused, a self-connect hands
    ``accept`` a connection, which the accept loop must drop on seeing
    its stop flag.
    """
    try:
        listener.shutdown(socket.SHUT_RDWR)
    except OSError:
        try:
            socket.create_connection(address, 1.0).close()
        except OSError:
            pass


def send_framed(conn: socket.socket, obj) -> None:
    """Pickle ``obj`` and write it as one length-prefixed frame.

    The shared wire discipline of this module: the rank fabric, the
    socket checkpoint funnel and the runtime-service client API all
    speak ``>Q``-prefixed pickle frames, so any of them can be read
    with :func:`recv_framed`.
    """
    import pickle

    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    conn.sendall(_LEN.pack(len(blob)) + blob)


def recv_framed(conn: socket.socket):
    """Read one length-prefixed pickle frame; None on EOF/reset."""
    import pickle

    head = _recv_exact(conn, _LEN.size)
    if head is None:
        return None
    blob = _recv_exact(conn, _LEN.unpack(head)[0])
    if blob is None:
        return None
    return pickle.loads(blob)


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
        self._conns: dict[int, socket.socket] = {}
        self._send_lock = threading.Lock()
        self._frames: dict[int, int] = {}
        self._comm: "HierarchicalCommunicator | None" = None
        self._attached = threading.Event()
        self._stop = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((bind_host, 0))
        self._listener.listen()
        #: (host, port) peers reach this rank's progress thread at.
        self.address: tuple[str, int] = self._listener.getsockname()
        self._readers: list[threading.Thread] = []
        self._accepted: list[socket.socket] = []
        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"sk-progress-{rank}", daemon=True)
        self._acceptor.start()

    # ------------------------------------------------------------------
    def set_addresses(self, addresses: dict[int, tuple[str, int]]) -> None:
        """Install the rendezvous result (rank -> listener address)."""
        self._addresses.update(addresses)

    def attach(self, comm: "HierarchicalCommunicator") -> None:
        """Give the progress thread the window registry it serves."""
        self._comm = comm
        self._attached.set()

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
                conn = socket.create_connection(addr, timeout=30.0)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._conns[dest] = conn
            conn.sendall(_LEN.pack(len(blob)) + blob)
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
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener shut down: close() woke us
            if self._stop.is_set():
                conn.close()  # wake_accept's self-connect
                return
            self._accepted.append(conn)
            t = threading.Thread(target=self._read_loop, args=(conn,),
                                 name=f"sk-reader-{self.rank}", daemon=True)
            t.start()
            self._readers.append(t)

    def _read_loop(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                head = _recv_exact(conn, _LEN.size)
                if head is None:
                    return
                blob = _recv_exact(conn, _LEN.unpack(head)[0])
                if blob is None:
                    return
                self._dispatch(pickle.loads(blob))

    def _dispatch(self, msg: Message) -> None:
        if msg.tag == TAG_GETREQ:
            self._serve_get(msg)
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
        # Block (bounded) until the communicator is attached: a fast
        # peer can issue a get before this rank finished construction.
        self._attached.wait(timeout=30.0)
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
        self._stop.set()
        if self._listener.fileno() != -1:
            wake_accept(self._listener, self.address)
            self._acceptor.join(timeout=5.0)
            self._listener.close()
        with self._send_lock:
            for conn in self._conns.values():
                try:
                    conn.close()
                except OSError:
                    pass
            self._conns.clear()
        # unblock readers parked in recv(): their fds must close, a
        # cross-thread close of the peer's end is not guaranteed to wake
        # them.
        for conn in self._accepted:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        for t in self._readers:
            t.join(timeout=5.0)


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
