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
side stays one :class:`~repro.dsm.mailbox.Mailbox` with its
selective-receive, FIFO-per-(source, tag), epoch-scoped and deadline
semantics, and remote and local traffic are indistinguishable above
the seam.  A ``TAG_PUT`` into a window the rank has exposed is applied
*in* the progress thread, straight to the window memory, and
re-injected as a ``PUT_APPLIED`` envelope: the fence still drains it
for virtual-time coupling but has nothing left to copy, so the target
CPU never touches a cross-node put's payload.  A put that arrives
before its window exists (a fast peer) is re-injected as it came, and
the target's fence writes it once the window is exposed.

:class:`HierarchicalCommunicator` adds the routing policy on top:
placement-aware egress — slabs within a node, frames across.  The
collectives are the inherited flat root funnel; every hop is a real
modelled send/recv, so virtual time is the same on every fabric.
"""

from __future__ import annotations

import pickle
import threading
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Any, Callable

from repro.dsm.comm import PUT_APPLIED, TAG_PUT, axis_write
from repro.dsm.links import LinkLoop, dial
from repro.dsm.mailbox import Mailbox, Message
from repro.dsm.procmail import ProcCommunicator
from repro.dsm.transport import Transport
from repro.telemetry import schema as _ts
from repro.telemetry.plane import writer as telemetry_writer
from repro.trace import schema as _tc
from repro.trace.plane import tracer as trace_writer

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.shm import DataPlane
    from repro.vtime.machine import MachineModel


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

    def colocated(self, peer: int) -> bool:
        return self.pnode_of(peer) == self.pnode_of(self.rank)

    def endpoints(self, rank: int) -> list:
        if rank != self.rank:
            raise ValueError("a SocketTransport is bound to one rank")
        out: list = []
        for r, ch in enumerate(self.channels):
            if r == self.rank or self.colocated(r):
                out.append(Mailbox(r, ch))
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
        comm = self._comm
        if msg.tag == TAG_PUT and comm is not None:
            name, axis, idx, values = msg.payload
            win = comm._window(self.rank, name)
            if win is not None:
                # one-sided apply in the progress thread: the target CPU
                # never touches the payload; its fence only couples time.
                axis_write(win, idx, axis, values)
                msg = Message(src=msg.src, dst=msg.dst, tag=TAG_PUT,
                              payload=(name, axis, idx, PUT_APPLIED),
                              nbytes=msg.nbytes, arrival=msg.arrival,
                              epoch=msg.epoch, seq=msg.seq)
        self.channels[self.rank].put(msg)

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
    A one-sided put to a remote rank is applied by that rank's
    progress thread.
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
