"""Sockets execution: the first multi-node backend.

Structurally a :class:`~repro.exec.multiproc.MultiprocessBackend` —
rank processes, the parent-side funnel/unwind/unlink discipline — but
the communication fabric is the hybrid transport of
:mod:`repro.dsm.socketmail`: ranks are assigned to *physical nodes*
(``pnode_of``), co-located ranks keep the zero-copy queue/slab fabric,
and every cross-node byte rides length-prefixed TCP frames.  In CI the
"nodes" are a partition of localhost processes (every listener binds
loopback); a real deployment supplies ``hosts`` so each node's ranks
bind its interface.

What changes against the parent class, and why:

* **communicator** — a :class:`~repro.dsm.socketmail.
  HierarchicalCommunicator` over a per-rank
  :class:`~repro.dsm.socketmail.SocketTransport`; listener addresses
  are exchanged through a parent-mediated rendezvous (children post
  ``(rank, address)`` on a queue, the parent broadcasts the gathered
  map on the control channels) before the first remote send;
* **no shared fields** — partitioned fields stay private per rank:
  pages cannot alias across physical nodes, so scatter / halo / gather
  perform real data movement over the transport (which is exactly what
  this backend is for);
* **no elastic ranks** — membership transitions would need a second
  rendezvous for joiner listeners; a rank-count adaptation falls back
  to the relaunch path, honestly declared via ``Capabilities``;
* **checkpoint funnel** — the framed-TCP variant
  (:class:`~repro.ckpt.funnel.SocketCheckpointFunnel`): snapshots ride
  the wire like any other cross-node payload, always inline (a slab
  descriptor is meaningless off-node).

Results, checkpoint bytes and virtual time are identical to every
other backend: the modelled :class:`~repro.vtime.machine.MachineModel`
feeds the clocks, and the transport choice only moves wall-clock
bytes.  ``calibrate`` hands the advisor wire-realistic constants
(:data:`~repro.vtime.machine.SOCKET_RANKS_CALIBRATION`) for ranking
adaptations; they never touch a running phase's clocks.
"""

from __future__ import annotations

import queue as _queue
import time

from repro.ckpt.funnel import SocketCheckpointFunnel
from repro.core.modes import Capabilities, ExecConfig
from repro.dsm.mailbox import Message
from repro.dsm.shm import SegmentManager
from repro.dsm.socketmail import HierarchicalCommunicator, SocketTransport
from repro.exec.base import PhaseSpec
from repro.exec.multiproc import MultiprocessBackend
from repro.exec.worker import RankWiring
from repro.vtime.machine import SOCKET_RANKS_CALIBRATION

#: how long launch-time address exchange may take end to end.
_RENDEZVOUS_SECONDS = 60.0


class SocketsBackend(MultiprocessBackend):
    """Multi-node SPMD: queue/slab fabric within a node, TCP across.

    ``ranks_per_node`` partitions the rank space into physical nodes
    (rank ``r`` lives on node ``r // ranks_per_node``); ``hosts``
    optionally names one bind address per node for real multi-host
    deployments (default: every node is localhost, which is the CI
    topology).  Honest capabilities: rank collectives yes, shared
    fields no (no cross-node page aliasing), elastic ranks no (reshape
    falls back to relaunch), team regions no.
    """

    name = "sockets"
    proc_prefix = "sk-rank-"

    def __init__(self, start_method: str | None = None,
                 join_timeout: float = 120.0,
                 ranks_per_node: int = 2,
                 hosts: list[str] | None = None,
                 data_plane: bool = True,
                 plane_threshold: int | None = None) -> None:
        super().__init__(start_method=start_method,
                         join_timeout=join_timeout, max_ranks=None,
                         data_plane=data_plane,
                         plane_threshold=plane_threshold)
        if ranks_per_node < 1:
            raise ValueError("ranks_per_node must be >= 1")
        self.ranks_per_node = ranks_per_node
        self.hosts = list(hosts) if hosts else ["127.0.0.1"]

    # ------------------------------------------------------------------
    def pnode_of(self, rank: int) -> int:
        """The physical node hosting ``rank`` (the deployment layout)."""
        return rank // self.ranks_per_node

    def _bind_host(self, rank: int) -> str:
        return self.hosts[self.pnode_of(rank) % len(self.hosts)]

    def capabilities(self, config: ExecConfig) -> Capabilities:
        return Capabilities(rank_collectives=True, shared_fields=False,
                            elastic_ranks=False)

    def calibrate(self, machine):
        return machine.with_(**SOCKET_RANKS_CALIBRATION)

    def place_fields(self, ctx, instance, comm, launch_id: str
                     ) -> tuple[SegmentManager | None, dict]:
        # partitioned fields stay private: a page cannot alias across
        # physical nodes, so data movement must be real (and is — over
        # the transport this backend exists to exercise).
        ctx.shared_fields = set()
        return None, {}

    def _fabric_size(self, spec: PhaseSpec) -> int:
        # no in-place reshape over sockets: fork exactly the launch
        # shape, park nothing.
        return spec.config.nranks

    def _make_funnel(self, store, mpctx, max_ranks: int):
        return SocketCheckpointFunnel(store, mpctx, max_ranks,
                                      bind_host=self.hosts[0])

    def _rendezvous_queue(self, mpctx):
        return mpctx.Queue()

    # ------------------------------------------------------------------
    # address rendezvous: child half (in make_communicator) and parent
    # half (in _after_start)
    # ------------------------------------------------------------------
    def make_communicator(self, rank: int, nranks: int, machine,
                          wiring: RankWiring, plane, mail_epoch: int
                          ) -> HierarchicalCommunicator:
        transport = SocketTransport(rank, wiring.channels, self.pnode_of,
                                    bind_host=self._bind_host(rank))
        wiring.rendezvous.put((rank, transport.address))
        buffered: list[Message] = []
        deadline = time.monotonic() + _RENDEZVOUS_SECONDS
        while True:
            try:
                msg = wiring.channels[rank].get(
                    timeout=max(0.1, deadline - time.monotonic()))
            except _queue.Empty:
                transport.close()
                raise RuntimeError(
                    f"rank {rank}: no address map after "
                    f"{_RENDEZVOUS_SECONDS:.0f}s (rendezvous incomplete)"
                ) from None
            if isinstance(msg, Message):
                # a fast co-located peer (or a remote peer's re-injected
                # frame) got its map first and already sent: hold the
                # envelope, deliver it through the mailbox below.
                buffered.append(msg)
                continue
            if isinstance(msg, dict) and msg.get("kind") == "addresses":
                transport.set_addresses(msg["map"])
                break
            if isinstance(msg, dict) and msg.get("kind") == "stop":
                transport.close()
                raise RuntimeError(
                    f"rank {rank}: launch aborted before rendezvous")
        comm = HierarchicalCommunicator(rank, nranks, machine, transport,
                                        plane=plane, mail_epoch=mail_epoch)
        inbox = comm.mailboxes[rank]
        for m in buffered:  # pending is scanned before the channel: FIFO
            inbox._admit(m)
        return comm

    def _after_start(self, spec: PhaseSpec, procs, channels,
                     rendezvous) -> None:
        """Gather every rank's listener address, broadcast the map.

        On a child death mid-rendezvous the map is never posted; the
        survivors time out their wait and report, and ``_collect``
        attributes the root cause to the dead rank.
        """
        n = spec.config.nranks
        addresses: dict[int, tuple[str, int]] = {}
        deadline = time.monotonic() + _RENDEZVOUS_SECONDS
        while len(addresses) < n and time.monotonic() < deadline:
            try:
                rank, addr = rendezvous.get(timeout=0.5)
            except _queue.Empty:
                if any(not procs[r].is_alive()
                       and procs[r].exitcode is not None for r in range(n)):
                    return
                continue
            addresses[rank] = addr
        if len(addresses) < n:
            return
        for r in range(n):
            channels[r].put({"kind": "addresses", "map": addresses})
