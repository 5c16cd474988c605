"""The one-sided data plane: put / fence over windows, and the
topology-aware routing under it.

Two layers:

* **window protocol** — ``win_expose`` + ``put`` + ``fence(schedule)``
  on the process transport: values land exactly once, in disjoint
  regions, with the deterministic schedule coupling the clocks (the
  memory-ordering contract halo exchange and the elastic reshape are
  ported onto);
* **topology-aware routing** — a 2-node
  :class:`~repro.dsm.socketmail.HierarchicalCommunicator` layout:
  co-located ranks exchange through queues/slabs with **zero TCP
  frames** between them, remote ranks through frames, and the flat
  root-funnel collectives give the in-process cluster's values bit for
  bit while framing only messages to another node.
"""

import queue
import threading

import numpy as np
import pytest

from repro.dsm.comm import RankContext, _bind
from repro.dsm.partition import BlockLayout, exchange_halo, local_slice
from repro.dsm.procmail import ProcCommunicator
from repro.dsm.socketmail import HierarchicalCommunicator, SocketTransport
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)


def _run_ranks(nranks, fn, make_comm=None, machine=MACHINE):
    """Drive ``fn(rank, comm)`` on ``nranks`` bound rank threads."""
    channels = [queue.Queue() for _ in range(nranks)]
    if make_comm is None:
        def make_comm(rank):
            return ProcCommunicator(rank, nranks, machine, channels)
    results: list = [None] * nranks
    errors: list = []

    def main(rank):
        comm = make_comm(rank) if make_comm.__code__.co_argcount == 1 \
            else make_comm(rank, channels)
        _bind(RankContext(rank=rank, nranks=nranks, clock=VClock(),
                          comm=comm))
        try:
            results[rank] = fn(rank, comm)
        except BaseException as e:  # noqa: BLE001 - re-raised below
            errors.append((rank, e))
        finally:
            _bind(None)

    threads = [threading.Thread(target=main, args=(r,), daemon=True)
               for r in range(nranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert not [t for t in threads if t.is_alive()], "rank thread hung"
    if errors:
        raise errors[0][1]
    return results


# ---------------------------------------------------------------------------
# the window protocol on the process transport
# ---------------------------------------------------------------------------
class TestPutFence:
    def test_put_lands_after_fence(self):
        def body(rank, comm):
            from repro.dsm.comm import current_rank
            ctx = current_rank()
            win = comm.win_expose("w", np.zeros(8))
            if rank == 0:
                comm.put("w", np.full(4, 7.0), 1, (4, 8))
                comm.fence([])
            else:
                comm.fence([0])
            assert ctx.clock.now >= 0.0
            comm.win_drop("w")
            return win.copy()

        r = _run_ranks(2, body)
        np.testing.assert_array_equal(r[1], [0, 0, 0, 0, 7, 7, 7, 7])
        np.testing.assert_array_equal(r[0], np.zeros(8))

    def test_fence_schedule_completes_each_source_in_order(self):
        """Disjoint-region puts from several origins: the fence drains
        them in schedule order (deterministic clock coupling) and every
        region lands exactly once."""
        def body(rank, comm):
            win = comm.win_expose("w", np.zeros(9))
            if rank == 0:
                comm.fence([1, 2, 1])  # rank 1 puts twice, rank 2 once
            else:
                lo = 0 if rank == 1 else 3
                comm.put("w", np.full(3, float(rank)), 0, (lo, lo + 3))
                if rank == 1:
                    comm.put("w", np.full(3, 10.0), 0, (6, 9))
                comm.fence([])
            return win.copy()

        r = _run_ranks(3, body)
        np.testing.assert_array_equal(
            r[0], [1, 1, 1, 2, 2, 2, 10, 10, 10])

    def test_put_charges_origin_like_a_send(self):
        def body(rank, comm):
            from repro.dsm.comm import current_rank
            ctx = current_rank()
            comm.win_expose("w", np.zeros(4))
            if rank == 0:
                before = ctx.clock.now
                comm.put("w", np.ones(4), 1, (0, 4))
                assert ctx.clock.now > before  # latency + transfer
                comm.fence([])
            else:
                before = ctx.clock.now
                comm.fence([0])
                assert ctx.clock.now > before  # ingress transfer
            return None

        _run_ranks(2, body)

    def test_index_vector_put_scatters_noncontiguous_regions(self):
        def body(rank, comm):
            win = comm.win_expose("w", np.zeros(6))
            if rank == 0:
                comm.put("w", np.array([5.0, 6.0]), 1,
                         np.array([1, 4]))
                comm.fence([])
            else:
                comm.fence([0])
            return win.copy()

        r = _run_ranks(2, body)
        np.testing.assert_array_equal(r[1], [0, 5, 0, 0, 6, 0])

    def test_self_put_and_bad_dest_are_rejected(self):
        def body(rank, comm):
            comm.win_expose("w", np.zeros(2))
            with pytest.raises(ValueError, match="self-put"):
                comm.put("w", np.ones(2), rank, (0, 2))
            with pytest.raises(ValueError, match="bad put destination"):
                comm.put("w", np.ones(2), 5, (0, 2))
            comm.barrier()
            return None

        _run_ranks(2, body)

    def test_fence_into_unexposed_window_raises(self):
        def body(rank, comm):
            if rank == 0:
                comm.put("nope", np.ones(2), 1, (0, 2))
                comm.fence([])
                return None
            with pytest.raises(RuntimeError, match="unexposed window"):
                comm.fence([0])
            return None

        _run_ranks(2, body)

# ---------------------------------------------------------------------------
# topology-aware routing: 2 "physical nodes" x 2 ranks on loopback
# ---------------------------------------------------------------------------
def _hier_fabric(nranks, ranks_per_node, machine):
    """Per-rank factories for a loopback hierarchical fabric."""
    channels = [queue.Queue() for _ in range(nranks)]
    transports = [
        SocketTransport(r, channels, lambda x: x // ranks_per_node)
        for r in range(nranks)]
    addresses = {r: t.address for r, t in enumerate(transports)}
    for t in transports:
        t.set_addresses(addresses)

    def make_comm(rank):
        return HierarchicalCommunicator(rank, nranks, machine,
                                        transports[rank])

    return transports, make_comm


class TestHierarchicalTopology:
    def test_halo_exchange_routes_zero_tcp_frames_between_colocated(self):
        """The acceptance assertion: in a 2-node x 2-rank layout, a halo
        exchange sends no TCP frame between co-located ranks — their
        planes move through the queue fabric — while the node-boundary
        neighbours exchange exactly one frame each way."""
        nranks, n = 4, 16
        transports, make_comm = _hier_fabric(nranks, 2, MACHINE)
        layout = BlockLayout(halo=2)

        def body(rank, comm):
            arr = np.zeros(n)
            lo, hi = local_slice(n, rank, nranks)
            arr[lo:hi] = rank + 1.0
            exchange_halo(comm, arr, layout)
            return arr.copy()

        try:
            r = _run_ranks(nranks, body, make_comm=make_comm)
            for rank in range(nranks):
                lo, hi = local_slice(n, rank, nranks)
                if rank > 0:  # lower halo arrived from rank-1
                    np.testing.assert_array_equal(r[rank][lo - 2:lo],
                                                  np.full(2, float(rank)))
                if rank < nranks - 1:  # upper halo from rank+1
                    np.testing.assert_array_equal(r[rank][hi:hi + 2],
                                                  np.full(2, rank + 2.0))
            frames = {rank: t.frame_counts()
                      for rank, t in enumerate(transports)}
            # ranks 1 and 2 straddle the node boundary: one frame each
            # way; co-located pairs (0,1) and (2,3) never hit the wire.
            assert frames == {0: {}, 1: {2: 1}, 2: {1: 1}, 3: {}}, frames
        finally:
            for t in transports:
                t.close()

    @pytest.mark.parametrize("nranks,rpn", [(4, 2), (5, 2), (6, 3)])
    def test_flat_collectives_match_simcluster_and_cross_nodes_only(
            self, nranks, rpn):
        """The flat collectives on the hierarchical fabric give the
        in-process cluster's values bit for bit, and only messages to
        another physical node go on the wire."""
        from repro.dsm.comm import current_rank
        from repro.dsm.simcluster import SimCluster

        def body(rank, comm):
            arr = np.arange(4.0) * (rank + 1)
            b = comm.bcast(np.arange(5.0) if rank == 1 else None, root=1)
            g = comm.gather(arr, root=0)
            s = comm.reduce(arr, root=0)
            ag = comm.allgather(float(rank) / 3.0)
            return (b.tobytes(),
                    None if g is None else [x.tobytes() for x in g],
                    None if s is None else s.tobytes(), ag)

        cl = SimCluster(nranks, MACHINE)
        try:
            expected = cl.run(
                lambda: body(current_rank().rank, current_rank().comm))
        finally:
            cl.shutdown()
        transports, make_comm = _hier_fabric(nranks, rpn, MACHINE)
        try:
            got = _run_ranks(nranks, body, make_comm=make_comm)
            frames = {rank: t.frame_counts()
                      for rank, t in enumerate(transports)}
        finally:
            for t in transports:
                t.close()
        assert got == expected
        assert sum(sum(f.values()) for f in frames.values()) > 0
        for rank, f in frames.items():
            assert all(d // rpn != rank // rpn for d in f), frames
