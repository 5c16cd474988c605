"""Tests for data layouts and scatter/gather/halo movements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm import (
    BlockLayout,
    CyclicLayout,
    HybridLayout,
    SimCluster,
    local_slice,
)
from repro.dsm.comm import current_rank
from repro.dsm.partition import (
    exchange_halo,
    gather_inplace,
    scatter_inplace,
)
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)

LAYOUTS = [
    BlockLayout(axis=0),
    BlockLayout(axis=1),
    CyclicLayout(axis=0),
    HybridLayout(axis=0, block=3),
    HybridLayout(axis=1, block=2),
]


class TestLocalSlice:
    def test_even(self):
        assert local_slice(8, 0, 4) == (0, 2)
        assert local_slice(8, 3, 4) == (6, 8)

    def test_remainder(self):
        bounds = [local_slice(10, r, 3) for r in range(3)]
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    @given(st.integers(0, 200), st.integers(1, 16))
    def test_tiles_range(self, n, p):
        idx = []
        for r in range(p):
            lo, hi = local_slice(n, r, p)
            idx.extend(range(lo, hi))
        assert idx == list(range(n))


class TestLayoutOwnership:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n,p", [(10, 1), (10, 3), (7, 7), (16, 4)])
    def test_owned_partitions_range(self, layout, n, p):
        """Every index owned by exactly one rank."""
        owned = [layout.owned(n, r, p) for r in range(p)]
        allidx = np.sort(np.concatenate(owned))
        np.testing.assert_array_equal(allidx, np.arange(n))

    def test_cyclic_is_round_robin(self):
        lay = CyclicLayout()
        np.testing.assert_array_equal(lay.owned(7, 1, 3), [1, 4])

    def test_hybrid_blocks(self):
        lay = HybridLayout(block=2)
        np.testing.assert_array_equal(lay.owned(8, 0, 2), [0, 1, 4, 5])
        np.testing.assert_array_equal(lay.owned(8, 1, 2), [2, 3, 6, 7])

    def test_hybrid_invalid_block(self):
        with pytest.raises(ValueError):
            HybridLayout(block=0).owned(8, 0, 2)

    def test_block_halo_bounds_clipped(self):
        lay = BlockLayout(halo=2)
        assert lay.halo_bounds(10, 0, 2) == (0, 7)
        assert lay.halo_bounds(10, 1, 2) == (3, 10)


class TestInplaceMovements:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_inplace_roundtrip_identity(self, layout, p):
        """scatter → local doubling of owned region → gather == doubled."""
        full = np.arange(60.0).reshape(10, 6)

        def entry():
            ctx = current_rank()
            arr = full.copy() if ctx.rank == 0 else np.zeros_like(full)
            owned = scatter_inplace(ctx.comm, arr, layout, root=0)
            if isinstance(owned, tuple):
                lo, hi = owned
                idx = np.arange(lo, hi)
            else:
                idx = owned
            sl = [slice(None)] * arr.ndim
            sl[layout.axis] = idx
            arr[tuple(sl)] *= 2.0
            gather_inplace(ctx.comm, arr, layout, root=0)
            return arr if ctx.rank == 0 else None

        res = SimCluster(p, MACHINE).run(entry)
        np.testing.assert_array_equal(res[0], full * 2.0)

    def test_halo_exchange_neighbours(self):
        lay = BlockLayout(axis=0, halo=1)
        n, p = 12, 4

        def entry():
            ctx = current_rank()
            arr = np.full((n, 3), -1.0)
            lo, hi = lay.bounds(n, ctx.rank, p)
            arr[lo:hi] = float(ctx.rank)  # own block carries rank id
            exchange_halo(ctx.comm, arr, lay)
            return arr

        res = SimCluster(p, MACHINE).run(entry)
        for r in range(p):
            lo, hi = lay.bounds(n, r, p)
            if r > 0:  # ghost row below mirrors the lower neighbour
                assert np.all(res[r][lo - 1] == float(r - 1))
            if r < p - 1:  # ghost row above mirrors the upper neighbour
                assert np.all(res[r][hi] == float(r + 1))

    def test_halo_noop_for_single_rank(self):
        lay = BlockLayout(axis=0, halo=1)

        def entry():
            ctx = current_rank()
            arr = np.ones((4, 2))
            exchange_halo(ctx.comm, arr, lay)
            return arr

        res = SimCluster(1, MACHINE).run(entry)
        np.testing.assert_array_equal(res[0], np.ones((4, 2)))

    @settings(deadline=None, max_examples=15)
    @given(n=st.integers(4, 40), p=st.integers(1, 4),
           axis=st.integers(0, 1))
    def test_inplace_roundtrip_property(self, n, p, axis):
        layout = BlockLayout(axis=axis)
        shape = (n, 5) if axis == 0 else (5, n)
        full = np.arange(float(np.prod(shape))).reshape(shape)

        def entry():
            ctx = current_rank()
            arr = full.copy() if ctx.rank == 0 else np.zeros_like(full)
            scatter_inplace(ctx.comm, arr, layout, root=0)
            gather_inplace(ctx.comm, arr, layout, root=0)
            return arr if ctx.rank == 0 else None

        res = SimCluster(p, MACHINE).run(entry)
        np.testing.assert_array_equal(res[0], full)

