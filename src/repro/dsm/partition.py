"""Data layouts: BLOCK / CYCLIC / HYBRID partitioning of numpy arrays.

The paper's ``Partitioned<field, layout>`` template distributes an object
field's primitive data among aggregate members "according to a pre-defined
partition (block, cyclic and hybrid)" (Section III.C).  This module
implements those layouts over a chosen axis, plus the scatter / gather /
halo-exchange data movements the ``ScatterBefore`` / ``GatherAfter``
templates need.

One storage convention is supported, *in-place*: each rank holds a
full-size array of which only its owned region is valid
(``scatter_inplace`` / ``gather_inplace``).  The weaver and the
hand-written MPI-style baselines both use it, so domain code keeps
indexing globally.

Invariant (property-tested): gather∘scatter is the identity for every
layout, axis, rank count and array shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.dsm.comm import Communicator

from repro.dsm.comm import TAG_COLL

_TAG_SCATTER = TAG_COLL + 10
_TAG_GATHER = TAG_COLL + 11
_TAG_HALO_UP = TAG_COLL + 12
_TAG_HALO_DOWN = TAG_COLL + 13


def local_slice(n: int, rank: int, nranks: int) -> tuple[int, int]:
    """Contiguous block of ``range(n)`` owned by ``rank`` (block layout)."""
    base, extra = divmod(n, nranks)
    lo = rank * base + min(rank, extra)
    return lo, lo + base + (1 if rank < extra else 0)


def contiguous_runs(indices) -> list[tuple[int, int]]:
    """Collapse a sorted unique index vector into ``[start, stop)`` runs."""
    idx = np.asarray(indices, dtype=np.int64)
    if not idx.size:
        return []
    first, last = int(idx[0]), int(idx[-1])
    if last - first == idx.size - 1:  # one run (a block layout): no cut
        return [(first, last + 1)]
    cut = np.flatnonzero(np.diff(idx) != 1)
    return list(zip([first, *idx[cut + 1].tolist()],
                    [*(idx[cut] + 1).tolist(), last + 1]))


# ---------------------------------------------------------------------------
# layouts
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Layout:
    """Base class: which indices along ``axis`` does ``rank`` own?"""

    axis: int = 0

    def owned(self, n: int, rank: int, nranks: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class BlockLayout(Layout):
    """Contiguous blocks; ``halo`` ghost planes on each side for stencils."""

    halo: int = 0

    def owned(self, n: int, rank: int, nranks: int) -> np.ndarray:
        lo, hi = local_slice(n, rank, nranks)
        return np.arange(lo, hi)

    def bounds(self, n: int, rank: int, nranks: int) -> tuple[int, int]:
        return local_slice(n, rank, nranks)

    def halo_bounds(self, n: int, rank: int, nranks: int) -> tuple[int, int]:
        lo, hi = local_slice(n, rank, nranks)
        return max(0, lo - self.halo), min(n, hi + self.halo)


@dataclass(frozen=True)
class CyclicLayout(Layout):
    """Round-robin assignment of single indices."""

    def owned(self, n: int, rank: int, nranks: int) -> np.ndarray:
        return np.arange(rank, n, nranks)


@dataclass(frozen=True)
class HybridLayout(Layout):
    """Block-cyclic: blocks of ``block`` indices dealt round-robin."""

    block: int = 2

    def owned(self, n: int, rank: int, nranks: int) -> np.ndarray:
        if self.block < 1:
            raise ValueError("block must be >= 1")
        idx = np.arange(n)
        return idx[(idx // self.block) % nranks == rank]


def _take(arr: np.ndarray, idx: np.ndarray, axis: int) -> np.ndarray:
    return np.take(arr, idx, axis=axis)


def _put(arr: np.ndarray, idx: np.ndarray, axis: int,
         vals: np.ndarray) -> None:
    sl: list = [slice(None)] * arr.ndim
    sl[axis] = idx
    arr[tuple(sl)] = vals


# ---------------------------------------------------------------------------
# in-place movements (full-size array on every rank)
# ---------------------------------------------------------------------------
def scatter_inplace(comm: "Communicator", arr: np.ndarray, layout: Layout,
                    root: int = 0) -> tuple[int, int] | np.ndarray:
    """Update each rank's owned region (incl. halo) from root's array.

    Returns this rank's owned index description: ``(lo, hi)`` bounds for
    block layouts, else the owned index vector.
    """
    from repro.dsm.comm import current_rank

    ctx = current_rank()
    assert ctx is not None
    n = arr.shape[layout.axis]
    if isinstance(layout, BlockLayout):
        if ctx.rank == root:
            for r in range(comm.nranks):
                if r == root:
                    continue
                lo, hi = layout.halo_bounds(n, r, comm.nranks)
                sl: list = [slice(None)] * arr.ndim
                sl[layout.axis] = slice(lo, hi)
                comm.send(arr[tuple(sl)], r, _TAG_SCATTER)
        else:
            lo, hi = layout.halo_bounds(n, ctx.rank, comm.nranks)
            part = comm.recv(source=root, tag=_TAG_SCATTER)
            sl = [slice(None)] * arr.ndim
            sl[layout.axis] = slice(lo, hi)
            arr[tuple(sl)] = part
        return layout.bounds(n, ctx.rank, comm.nranks)
    # cyclic / hybrid
    if ctx.rank == root:
        for r in range(comm.nranks):
            if r == root:
                continue
            idx = layout.owned(n, r, comm.nranks)
            # fresh ``np.take`` staging buffer: owned, no defensive copy
            comm._send_owned(_take(arr, idx, layout.axis), r, _TAG_SCATTER)
    else:
        idx = layout.owned(n, ctx.rank, comm.nranks)
        part = comm.recv(source=root, tag=_TAG_SCATTER)
        _put(arr, idx, layout.axis, part)
    return layout.owned(n, ctx.rank, comm.nranks)


def gather_inplace(comm: "Communicator", arr: np.ndarray, layout: Layout,
                   root: int = 0) -> None:
    """Collect every rank's owned region into root's full array."""
    from repro.dsm.comm import current_rank

    ctx = current_rank()
    assert ctx is not None
    n = arr.shape[layout.axis]
    if ctx.rank == root:
        for src in range(comm.nranks):
            if src == root:
                continue
            part = comm.recv(source=src, tag=_TAG_GATHER)
            _put(arr, layout.owned(n, src, comm.nranks), layout.axis, part)
    else:
        idx = layout.owned(n, ctx.rank, comm.nranks)
        # fresh ``np.take`` staging buffer: owned, no defensive copy
        comm._send_owned(_take(arr, idx, layout.axis), root, _TAG_GATHER)


#: window name the halo exchange exposes its array under.
_HALO_WINDOW = "halo"


def exchange_halo(comm: "Communicator", arr: np.ndarray,
                  layout: BlockLayout) -> None:
    """Swap ``halo`` boundary planes with block neighbours (stencil step).

    One-sided: each rank exposes its full-size array as a window and
    *puts* its boundary planes straight into its neighbours' halo
    regions — in the in-place storage convention the global indices of
    a sent plane are exactly where it lands, so source region and
    target region coincide and the payload needs no re-addressing.  The
    fence then completes both neighbours' incoming puts in sorted
    neighbour order (a deterministic schedule, which is what keeps the
    clock coupling bit-reproducible).  No even/odd phasing is needed:
    puts never block, only the fence waits.

    Cost accounting is identical to the former send/recv version — a
    put charges like a send, a fenced arrival like a receive — so the
    port moves synchronisation shape, not virtual time.
    """
    from repro.dsm.comm import current_rank

    ctx = current_rank()
    assert ctx is not None
    if layout.halo < 1 or comm.nranks == 1:
        return
    # a halo exchange is a synchronisation epoch: over-subscribed ranks
    # pay the context-switch cost here just as they do at barriers.
    ctx.clock.charge_comm(comm.machine.oversub_epoch_cost(comm.nranks))
    n = arr.shape[layout.axis]
    r, p = ctx.rank, comm.nranks
    lo, hi = layout.bounds(n, r, p)
    h = layout.halo
    ax = layout.axis

    def plane(a: int, b: int) -> tuple:
        sl: list = [slice(None)] * arr.ndim
        sl[ax] = slice(a, b)
        return tuple(sl)

    comm.win_expose(_HALO_WINDOW, arr)
    try:
        if r + 1 < p:  # my top planes are the upper neighbour's low halo
            comm.put(_HALO_WINDOW, arr[plane(hi - h, hi)], r + 1,
                     (hi - h, hi), axis=ax)
        if r - 1 >= 0:  # my bottom planes are the lower one's high halo
            comm.put(_HALO_WINDOW, arr[plane(lo, lo + h)], r - 1,
                     (lo, lo + h), axis=ax)
        comm.fence([src for src in (r - 1, r + 1) if 0 <= src < p])
    finally:
        comm.win_drop(_HALO_WINDOW)
