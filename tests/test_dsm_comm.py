"""Tests for the distributed substrate: mailbox, communicator, cluster."""

import queue
import threading
import time

import numpy as np
import pytest

from repro.dsm import Communicator, Mailbox, Message, RankFailure, SimCluster
from repro.dsm.comm import current_rank
from repro.dsm.mailbox import ANY_SOURCE, MailboxClosed
from repro.dsm.partition import BlockLayout, gather_inplace, scatter_inplace
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)


def run_spmd(nranks, fn, *args, machine=MACHINE):
    cluster = SimCluster(nranks, machine)
    return cluster, cluster.run(fn, *args)


# ---------------------------------------------------------------------------
# Mailbox over a thread queue (the simulated cluster's endpoint)
# ---------------------------------------------------------------------------
def thread_box():
    return Mailbox(1, queue.Queue())


class TestMailbox:
    def _msg(self, src=0, tag=0, payload="x"):
        return Message(src=src, dst=1, tag=tag, payload=payload, nbytes=1,
                       arrival=0.0)

    def test_fifo_per_source_tag(self):
        mb = thread_box()
        mb.put(self._msg(payload="a"))
        mb.put(self._msg(payload="b"))
        assert mb.get(source=0, tag=0).payload == "a"
        assert mb.get(source=0, tag=0).payload == "b"

    def test_selective_receive_by_tag(self):
        mb = thread_box()
        mb.put(self._msg(tag=1, payload="one"))
        mb.put(self._msg(tag=2, payload="two"))
        assert mb.get(tag=2).payload == "two"
        assert mb.get(tag=1).payload == "one"

    def test_selective_receive_by_source(self):
        mb = thread_box()
        mb.put(self._msg(src=3, payload="from3"))
        mb.put(self._msg(src=5, payload="from5"))
        assert mb.get(source=5).payload == "from5"

    def test_wildcard_source(self):
        mb = thread_box()
        mb.put(self._msg(src=7, payload="w"))
        assert mb.get(source=ANY_SOURCE).payload == "w"

    def test_poll(self):
        """A zero-timeout get is the mailbox's non-blocking poll."""
        mb = thread_box()
        with pytest.raises(TimeoutError):
            mb.get(timeout=0)
        mb.put(self._msg(tag=4))
        with pytest.raises(TimeoutError):
            mb.get(tag=5, timeout=0)
        assert mb.get(tag=4, timeout=0).tag == 4

    def test_get_timeout(self):
        mb = thread_box()
        with pytest.raises(TimeoutError):
            mb.get(timeout=0.05)

    def test_get_timeout_is_not_restarted_by_other_traffic(self):
        # a put that does not match wakes the receiver; it must not
        # re-arm the receiver's full timeout.
        mb = thread_box()
        stop = threading.Event()

        def chatter():
            end = time.monotonic() + 1.0
            while time.monotonic() < end and not stop.is_set():
                mb.put(self._msg(src=2, tag=3))
                stop.wait(0.05)

        t = threading.Thread(target=chatter)
        t.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                mb.get(source=1, tag=7, timeout=0.3)
            assert time.monotonic() - t0 < 0.6
        finally:
            stop.set()
            t.join(timeout=5)
        assert not t.is_alive()

    def test_closed_mailbox_raises(self):
        mb = thread_box()
        mb.close()
        with pytest.raises(MailboxClosed):
            mb.get(timeout=1)
        with pytest.raises(MailboxClosed):
            mb.put(self._msg())


# ---------------------------------------------------------------------------
# point-to-point
# ---------------------------------------------------------------------------
class TestPointToPoint:
    def test_send_recv_pair(self):
        def entry():
            ctx = current_rank()
            if ctx.rank == 0:
                ctx.comm.send({"a": 7}, dest=1, tag=11)
                return None
            return ctx.comm.recv(source=0, tag=11)

        _, res = run_spmd(2, entry)
        assert res[1] == {"a": 7}

    def test_array_send_is_by_value(self):
        def entry():
            ctx = current_rank()
            if ctx.rank == 0:
                x = np.arange(4.0)
                ctx.comm.send(x, dest=1)
                x[:] = -1  # must not affect the receiver
                return None
            return ctx.comm.recv(source=0)

        _, res = run_spmd(2, entry)
        np.testing.assert_array_equal(res[1], np.arange(4.0))

    def test_recv_couples_clocks(self):
        def entry():
            ctx = current_rank()
            if ctx.rank == 0:
                ctx.clock.charge_compute(1.0)  # sender is late
                ctx.comm.send(b"x" * 1000, dest=1)
            else:
                ctx.comm.recv(source=0)
                return ctx.clock.now
            return None

        _, res = run_spmd(2, entry)
        assert res[1] > 1.0  # receiver waited for the sender

    def test_self_send_rejected(self):
        def entry():
            ctx = current_rank()
            if ctx.rank == 0:
                ctx.comm.send("x", dest=0)

        with pytest.raises(RankFailure) as ei:
            run_spmd(2, entry)
        assert isinstance(ei.value.cause, ValueError)

    def test_bad_destination_rejected(self):
        def entry():
            ctx = current_rank()
            if ctx.rank == 0:
                ctx.comm.send("x", dest=99)

        with pytest.raises(RankFailure):
            run_spmd(2, entry)

    def test_sendrecv_ring(self):
        def entry():
            ctx = current_rank()
            right = (ctx.rank + 1) % ctx.nranks
            left = (ctx.rank - 1) % ctx.nranks
            ctx.comm.send(ctx.rank, dest=right, tag=5)  # never blocks
            return ctx.comm.recv(source=left, tag=5)

        _, res = run_spmd(4, entry)
        assert res == [3, 0, 1, 2]


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------
class TestCollectives:
    def test_bcast(self):
        def entry():
            ctx = current_rank()
            data = {"k": [1, 2]} if ctx.rank == 0 else None
            return ctx.comm.bcast(data, root=0)

        _, res = run_spmd(4, entry)
        assert all(r == {"k": [1, 2]} for r in res)

    def test_scatter_gather_roundtrip(self):
        """The in-place movements every run uses: root scatters its
        rows, each rank rewrites its own, root gathers them back."""
        def entry():
            ctx = current_rank()
            arr = (np.arange(40.0).reshape(10, 4) if ctx.rank == 0
                   else np.zeros((10, 4)))
            lo, hi = scatter_inplace(ctx.comm, arr, BlockLayout(axis=0),
                                     root=0)
            assert arr[lo:hi].sum() == np.arange(40.0).reshape(
                10, 4)[lo:hi].sum()
            arr[lo:hi] += 100 * ctx.rank
            gather_inplace(ctx.comm, arr, BlockLayout(axis=0), root=0)
            return ctx.comm.gather((lo, hi), root=0), arr

        _, res = run_spmd(4, entry)
        bounds, arr = res[0]
        expect = np.arange(40.0).reshape(10, 4)
        for r, (lo, hi) in enumerate(bounds):
            expect[lo:hi] += 100 * r
        np.testing.assert_array_equal(arr, expect)
        assert res[1][0] is None

    def test_reduce_sum_default(self):
        def entry():
            ctx = current_rank()
            return ctx.comm.reduce(ctx.rank + 1, root=0)

        _, res = run_spmd(4, entry)
        assert res[0] == 10
        assert res[1:] == [None, None, None]

    def test_reduce_custom_op(self):
        def entry():
            ctx = current_rank()
            return ctx.comm.reduce(ctx.rank + 1, op=max, root=0)

        _, res = run_spmd(5, entry)
        assert res[0] == 5

    def test_allreduce_arrays(self):
        def entry():
            ctx = current_rank()
            return ctx.comm.allreduce(np.full(3, float(ctx.rank)))

        _, res = run_spmd(3, entry)
        for r in res:
            np.testing.assert_array_equal(r, np.full(3, 3.0))

    def test_barrier_syncs_clocks(self):
        def entry():
            ctx = current_rank()
            ctx.clock.charge_compute(float(ctx.rank))  # rank r works r secs
            ctx.comm.barrier()
            return ctx.clock.now

        _, res = run_spmd(4, entry)
        assert all(t >= 3.0 for t in res)
        assert max(res) - min(res) < 1e-9

    def test_single_rank_collectives_trivial(self):
        def entry():
            ctx = current_rank()
            ctx.comm.barrier()
            assert ctx.comm.bcast("v", root=0) == "v"
            assert ctx.comm.gather(5, root=0) == [5]
            assert ctx.comm.allreduce(2) == 2
            return True

        _, res = run_spmd(1, entry)
        assert res == [True]


# ---------------------------------------------------------------------------
# SimCluster behaviour
# ---------------------------------------------------------------------------
class TestSimCluster:
    def test_per_rank_args(self):
        cluster = SimCluster(3, MACHINE)
        res = cluster.run(lambda x: x * 2, per_rank_args=[(1,), (2,), (3,)])
        assert res == [2, 4, 6]

    def test_rank_failure_wraps_cause(self):
        def entry():
            ctx = current_rank()
            if ctx.rank == 2:
                raise KeyError("bad")
            ctx.comm.barrier()  # would hang forever without teardown

        with pytest.raises(RankFailure) as ei:
            run_spmd(4, entry)
        assert ei.value.rank == 2
        assert isinstance(ei.value.cause, KeyError)

    def test_root_failure_releases_peers_blocked_in_recv(self):
        """Rank 0 raises while three peers wait in their receive from
        it: the close wakes them at once, so the run ends with the root
        cause instead of sleeping out the 60 s receive deadline."""
        def entry():
            ctx = current_rank()
            if ctx.rank == 0:
                time.sleep(0.2)  # the peers are parked in recv by now
                raise ValueError("root failed before sending")
            return ctx.comm.recv(source=0)

        t0 = time.monotonic()
        with pytest.raises(RankFailure) as ei:
            run_spmd(4, entry)
        assert time.monotonic() - t0 < 5.0
        assert ei.value.rank == 0
        assert isinstance(ei.value.cause, ValueError)

    def test_over_decomposition_sets_contention(self):
        m = MachineModel(nodes=1, cores_per_node=2)
        cluster = SimCluster(8, m)
        # 4 ranks per core, plus the cache-thrash penalty on the 3 extras
        expected = 4 + 3 * m.oversub_thrash
        assert all(c.contention == expected for c in cluster.clocks)

    def test_time_breakdown_keys(self):
        cluster = SimCluster(2, MACHINE)

        def entry():
            ctx = current_rank()
            ctx.clock.charge_compute(0.1)
            ctx.comm.barrier()

        cluster.run(entry)
        bd = cluster.time_breakdown()
        assert set(bd) == {"total", "compute", "comm", "io"}
        assert bd["total"] >= bd["compute"]

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            SimCluster(0, MACHINE)
        with pytest.raises(ValueError):
            Communicator(0, MACHINE, [])

    def test_inter_node_messages_cost_more(self):
        m = MachineModel(nodes=2, cores_per_node=2)
        payload = np.zeros(1 << 16)

        def entry(dest):
            ctx = current_rank()
            if ctx.rank == 0:
                ctx.comm.send(payload, dest=dest)
            elif ctx.rank == dest:
                ctx.comm.recv(source=0)
                return ctx.clock.comm_total
            return None

        c1 = SimCluster(4, m)
        t_intra = c1.run(entry, 1)[1]
        c2 = SimCluster(4, m)
        t_inter = c2.run(entry, 2)[2]
        assert t_inter > t_intra
