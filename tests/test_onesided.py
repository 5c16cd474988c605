"""The one-sided data plane: put / get / fence over windows and heaps.

Three layers:

* **window protocol** — ``win_expose`` + ``put`` + ``fence(schedule)``
  on the process transport: values land exactly once, in disjoint
  regions, with the deterministic schedule coupling the clocks (the
  memory-ordering contract halo exchange and the elastic reshape are
  ported onto);
* **symmetric heap** — ``win_alloc`` places windows in per-rank shm
  segments at symmetric offsets, enabling direct remote writes
  (``PUT_APPLIED`` fast path) and one-sided ``get``;
* **topology-aware routing** — a 2-node x 2-rank
  :class:`~repro.dsm.socketmail.HierarchicalCommunicator` layout:
  co-located ranks exchange through queues/slabs with **zero TCP
  frames** between them (the ISSUE's acceptance assertion), remote
  ranks through frames; leader-per-node tree collectives put each
  payload on each inter-node link exactly once.
"""

import queue
import threading

import numpy as np
import pytest

from repro.dsm import shm
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

    def test_self_get_reads_local_window(self):
        def body(rank, comm):
            comm.win_expose("w", np.arange(6.0))
            out = comm.get("w", rank, (2, 5))
            comm.barrier()
            return out

        r = _run_ranks(2, body)
        np.testing.assert_array_equal(r[0], [2, 3, 4])

    def test_remote_get_needs_a_heap_on_the_process_transport(self):
        def body(rank, comm):
            comm.win_expose("w", np.zeros(2))
            if rank == 1:
                with pytest.raises(RuntimeError, match="symmetric-heap"):
                    comm.get("w", 0, (0, 2))
            comm.barrier()
            return None

        _run_ranks(2, body)

    def test_quiet_is_a_valid_ordering_point(self):
        def body(rank, comm):
            comm.win_expose("w", np.zeros(2))
            if rank == 0:
                comm.put("w", np.ones(2), 1, (0, 2))
                comm.quiet()
                comm.fence([])
            else:
                comm.fence([0])
            return None

        _run_ranks(2, body)


# ---------------------------------------------------------------------------
# the symmetric heap
# ---------------------------------------------------------------------------
class TestSymmetricHeap:
    def test_symmetric_offsets_and_peer_views(self):
        launch = shm.new_launch_id()
        heaps = [shm.SymmetricHeap(launch, r) for r in range(2)]
        try:
            # identical SPMD alloc sequence -> identical offsets
            for h in heaps:
                h.alloc("a", (16,), np.float64)
                h.alloc("b", (4, 4), np.int64)
            heaps[0].window("a")[:] = 1.5
            heaps[1].window("b")[:] = 7
            # rank 0 reads rank 1's "b" through a peer view, in place
            np.testing.assert_array_equal(heaps[0].peer_view(1, "b"),
                                          np.full((4, 4), 7))
            # ... and writes rank 1's "a" one-sidedly
            heaps[0].peer_view(1, "a")[:] = 9.0
            np.testing.assert_array_equal(heaps[1].window("a"),
                                          np.full(16, 9.0))
        finally:
            for h in heaps:
                h.close()
            shm.unlink_heaps(launch, 2)

    def test_alloc_is_idempotent_but_spec_changes_are_errors(self):
        launch = shm.new_launch_id()
        h = shm.SymmetricHeap(launch, 0)
        try:
            a = h.alloc("x", (8,), np.float64)
            b = h.alloc("x", (8,), np.float64)
            assert a.__array_interface__["data"][0] \
                == b.__array_interface__["data"][0]
            with pytest.raises(ValueError, match="different spec"):
                h.alloc("x", (9,), np.float64)
        finally:
            h.close()
            shm.unlink_heaps(launch, 1)

    def test_structured_windows_keep_their_dtype(self):
        """A window remembers its full dtype: an aligned structured one
        comes back structured, not as ``|V16``, and re-allocating it with
        another structured dtype of the same size is an error."""
        launch = shm.new_launch_id()
        h = shm.SymmetricHeap(launch, 0)
        cell = np.dtype([("tag", "i1"), ("w", "<f8")], align=True)
        other = np.dtype([("a", "<f8"), ("b", "<f8")])
        assert cell.itemsize == other.itemsize == 16
        try:
            w = h.alloc("cells", (4,), cell)
            assert w.dtype == cell and h.window("cells").dtype == cell
            w["w"] = np.arange(4.0)
            np.testing.assert_array_equal(h.window("cells")["w"],
                                          np.arange(4.0))
            assert h.alloc("cells", (4,), cell).dtype == cell
            with pytest.raises(ValueError, match="different spec"):
                h.alloc("cells", (4,), other)
        finally:
            h.close()
            shm.unlink_heaps(launch, 1)

    def test_exhaustion_raises_memory_error(self):
        launch = shm.new_launch_id()
        h = shm.SymmetricHeap(launch, 0, nbytes=1 << 12)
        try:
            with pytest.raises(MemoryError):
                h.alloc("big", (1 << 12,), np.float64)
        finally:
            h.close()
            shm.unlink_heaps(launch, 1)

    def test_win_alloc_put_get_fence_over_heap(self):
        """The full OpenSHMEM shape on the process transport: collective
        allocation, direct remote write (PUT_APPLIED fast path), fence
        observation, one-sided get."""
        launch = shm.new_launch_id()
        nranks = 2
        channels = [queue.Queue() for _ in range(nranks)]
        planes = [shm.DataPlane(shm.BufferPool(launch, r))
                  for r in range(nranks)]

        def make_comm(rank):
            return ProcCommunicator(rank, nranks, MACHINE, channels,
                                    plane=planes[rank])

        def body(rank, comm):
            win = comm.win_alloc("sym", (8,), np.float64)
            if rank == 0:
                comm.put("sym", np.full(4, 3.0), 1, (0, 4))
                comm.fence([])
            else:
                comm.fence([0])
                assert win[:4].tolist() == [3.0] * 4  # landed in my heap
            comm.barrier()
            # one-sided read of the peer's heap window
            peer = 1 - rank
            got = comm.get("sym", peer, (0, 4))
            comm.barrier()
            return got.copy()

        try:
            r = _run_ranks(nranks, body, make_comm=make_comm)
            np.testing.assert_array_equal(r[0], [3, 3, 3, 3])  # wrote it
            np.testing.assert_array_equal(r[1], np.zeros(4))
        finally:
            for p in planes:
                p.close()
            shm.unlink_pool(launch, nranks)
            shm.unlink_heaps(launch, nranks)


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
    def test_tree_collectives_match_flat_values(self, nranks, rpn):
        machines = {algo: MachineModel(nodes=2, cores_per_node=4,
                                       coll_algo=algo)
                    for algo in ("flat", "tree")}

        def body(rank, comm):
            arr = np.arange(4.0) * (rank + 1)
            root = 1 if comm.nranks > 1 else 0
            b = comm.bcast(np.arange(5.0) if rank == root else None,
                           root=root)
            g = comm.gather(arr, root=0)
            s = comm.reduce(float(rank + 1), root=0)
            comm.barrier()
            return (b.tolist(),
                    None if g is None else [x.tolist() for x in g], s)

        results = {}
        for algo, machine in machines.items():
            transports, make_comm = _hier_fabric(nranks, rpn, machine)
            try:
                results[algo] = _run_ranks(nranks, body,
                                           make_comm=make_comm,
                                           machine=machine)
            finally:
                for t in transports:
                    t.close()
        assert results["flat"] == results["tree"]

    def test_tree_bcast_crosses_each_node_link_once(self):
        """Leader-per-node routing: a broadcast from rank 0 in a
        2-node x 2-rank layout puts exactly one frame on the wire —
        leader 0 -> leader 2 — and the members get queue copies."""
        machine = MachineModel(nodes=2, cores_per_node=4,
                               coll_algo="tree")
        transports, make_comm = _hier_fabric(4, 2, machine)

        def body(rank, comm):
            return comm.bcast(np.arange(8.0) if rank == 0 else None,
                              root=0).tolist()

        try:
            r = _run_ranks(4, body, make_comm=make_comm, machine=machine)
            assert all(v == list(np.arange(8.0)) for v in r)
            frames = {rank: t.frame_counts()
                      for rank, t in enumerate(transports)}
            assert frames == {0: {2: 1}, 1: {}, 2: {}, 3: {}}, frames
        finally:
            for t in transports:
                t.close()

    def test_remote_get_served_by_progress_thread(self):
        """A get across the node boundary: the target rank's CPU is
        busy elsewhere (parked in a barrier it will reach later); the
        progress thread serves the window read."""
        transports, make_comm = _hier_fabric(2, 1, MACHINE)

        def body(rank, comm):
            comm.win_expose("w", np.arange(10.0) * (rank + 1))
            comm.barrier()
            got = comm.get("w", 1 - rank, (2, 6))
            comm.barrier()
            comm.win_drop("w")
            return got.copy()

        try:
            r = _run_ranks(2, body, make_comm=make_comm)
            np.testing.assert_array_equal(r[0], [4, 6, 8, 10])   # rank 1's
            np.testing.assert_array_equal(r[1], [2, 3, 4, 5])    # rank 0's
        finally:
            for t in transports:
                t.close()
