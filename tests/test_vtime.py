"""Tests for the virtual-time substrate (clocks + machine model)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vtime import MachineModel, NetworkModel, VClock
from repro.vtime.machine import EIGHT_CORE_CLUSTER, PAPER_CLUSTER


class TestVClock:
    def test_charges_accumulate_by_category(self):
        c = VClock()
        c.charge_compute(1.0)
        c.charge_comm(0.5)
        c.charge_io(0.25)
        assert c.now == pytest.approx(1.75)
        s = c.snapshot()
        assert s["compute"] == pytest.approx(1.0)
        assert s["comm"] == pytest.approx(0.5)
        assert s["io"] == pytest.approx(0.25)

    def test_contention_scales_compute_only(self):
        c = VClock()
        c.contention = 4
        c.charge_compute(1.0)
        c.charge_comm(1.0)
        assert c.compute_total == pytest.approx(4.0)
        assert c.comm_total == pytest.approx(1.0)

    def test_advance_to_is_monotone(self):
        c = VClock(5.0)
        c.advance_to(3.0)
        assert c.now == 5.0
        c.advance_to(7.0)
        assert c.now == 7.0

    def test_negative_charges_rejected(self):
        c = VClock()
        with pytest.raises(ValueError):
            c.charge_compute(-1)
        with pytest.raises(ValueError):
            c.charge_comm(-1)
        with pytest.raises(ValueError):
            c.charge_io(-1)

    def test_sync_max_lifts_all(self):
        clocks = [VClock(1.0), VClock(3.0), VClock(2.0)]
        t = VClock.sync_max(clocks, extra=0.5)
        assert t == pytest.approx(3.5)
        assert all(c.now == pytest.approx(3.5) for c in clocks)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=8),
           st.floats(min_value=0, max_value=10))
    def test_sync_max_property(self, starts, extra):
        clocks = [VClock(s) for s in starts]
        t = VClock.sync_max(clocks, extra=extra)
        assert t == pytest.approx(max(starts) + extra)
        assert all(c.now >= s for c, s in zip(clocks, starts))


class TestMachineModel:
    def test_paper_cluster_topology(self):
        assert PAPER_CLUSTER.total_cores == 48
        assert EIGHT_CORE_CLUSTER.total_cores == 32

    def test_node_placement_fills_in_order(self):
        m = MachineModel(nodes=2, cores_per_node=4)
        assert [m.node_of(r) for r in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        # over-subscription wraps around the core grid
        assert m.node_of(8) == 0
        assert m.node_of(12) == 1

    def test_same_node(self):
        m = MachineModel(nodes=2, cores_per_node=4)
        assert m.same_node(0, 3)
        assert not m.same_node(0, 4)

    def test_contention_under_subscription(self):
        m = MachineModel(nodes=2, cores_per_node=4)
        for r in range(8):
            assert m.contention(r, 8) == 1

    def test_contention_over_subscription(self):
        m = MachineModel(nodes=1, cores_per_node=4)
        # 10 ranks on 4 cores: cores 0,1 host 3 ranks; cores 2,3 host 2
        assert m.contention(0, 10) == 3
        assert m.contention(1, 10) == 3
        assert m.contention(2, 10) == 2
        assert m.contention(3, 10) == 2
        # total rank-slots must equal nranks
        assert sum(m.contention(c, 10) for c in range(4)) == 10

    def test_thread_contention_single_node(self):
        m = MachineModel(nodes=4, cores_per_node=8)
        assert m.thread_contention(0, 8) == 1
        assert m.thread_contention(0, 16) == 2  # threads cannot span nodes

    def test_barrier_cost_grows_with_parties(self):
        m = MachineModel()
        costs = [m.barrier_cost(p) for p in (1, 2, 8, 32, 256)]
        assert costs[0] == 0.0
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_p2p_inter_node_slower(self):
        m = MachineModel(nodes=2, cores_per_node=4)
        intra = m.p2p_cost(1 << 20, 0, 1)
        inter = m.p2p_cost(1 << 20, 0, 4)
        assert inter > intra * 5

    def test_oversub_epoch_cost(self):
        m = MachineModel(nodes=1, cores_per_node=4)
        assert m.oversub_epoch_cost(4) == 0.0
        assert m.oversub_epoch_cost(5) > 0.0

    def test_disk_model_costs(self):
        m = MachineModel()
        one_mb = 1 << 20
        assert m.disk.write_cost(one_mb) > m.disk.latency
        assert m.disk.read_cost(one_mb) < m.disk.write_cost(one_mb) + m.disk.latency

    @given(st.integers(min_value=1, max_value=512),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=32))
    def test_contention_partition_property(self, nranks, nodes, cores):
        """Contention slots across all cores always sum to nranks."""
        m = MachineModel(nodes=nodes, cores_per_node=cores)
        total = sum(m.contention(c, nranks) for c in range(m.total_cores))
        if nranks <= m.total_cores:
            # under-subscription: every rank has its own core
            assert all(m.contention(r, nranks) == 1 for r in range(nranks))
        else:
            assert total == nranks


class TestNetworkModel:
    def test_latency_dominates_small_messages(self):
        n = NetworkModel()
        assert n.p2p_cost(1, same_node=False) == pytest.approx(
            n.inter_latency, rel=1e-3)

    def test_bandwidth_dominates_large_messages(self):
        n = NetworkModel()
        big = 100 << 20
        assert n.p2p_cost(big, same_node=False) == pytest.approx(
            big / n.inter_bandwidth, rel=0.01)
