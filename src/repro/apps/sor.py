"""JGF SOR: red-black successive over-relaxation (five-point stencil).

The paper's evaluation benchmark: "a typical scientific application,
where a five-point stencil is successively applied to a matrix".  This is
pure domain code — no threads, ranks, checkpoints or adaptation — exactly
as the pluggable-parallelisation discipline demands.  The matching plug
modules live in :mod:`repro.apps.plugs.sor_plugs`.

Red-black ordering is used (as in the JGF parallel versions): within one
half-sweep every updated point depends only on points of the other
colour, so the update is order-independent and the sequential, threaded
and distributed executions produce *bit-identical* matrices — the
property the metamorphic tests rely on.

Method roles (what the plug modules attach to):

``execute``      entry point; scatter/gather of ``G`` hang here.
``run``          the iteration driver — the parallel region.
``sweep``        one red-black iteration — declared *ignorable* (its whole
                 effect lives in ``G``, which is SafeData).
``relax``        one colour half-sweep over a row range — the work-shared
                 loop (first two args are the row bounds).
``end_iteration``the per-iteration bookkeeping — the safe point.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import seeded_rng

#: bytes of one colour's rows updated per step (README, "The SOR kernel")
_BLOCK_BYTES = 256 * 1024


def init_grid(n: int, seed: int) -> np.ndarray:
    """The seeded ``n`` x ``n`` starting grid."""
    return seeded_rng(seed).random((n, n)) * 1e-6


def grid_checksum(G: np.ndarray) -> float:
    """JGF-style validation value: mean absolute grid value."""
    return float(np.abs(G).sum() / G.size)


def relax_rows(G: np.ndarray, lo: int, hi: int, parity: int,
               omega: float) -> None:
    """Half-sweep of ``G``'s ``parity`` rows in ``[lo, hi)``: strided views,
    ``_BLOCK_BYTES`` of rows at a time, each element computed as
    ``(1-w)*mid + w*0.25*(((up+down)+left)+right)`` in that order."""
    n = G.shape[0]
    lo, hi = max(lo, 1), min(hi, n - 1)
    start = lo + ((parity - lo) % 2)
    if start >= hi:
        return
    step = 2 * max(1, _BLOCK_BYTES // (G.itemsize * n))
    buf = np.empty((min(step, hi - start + 1) // 2, n - 2), G.dtype)
    for s in range(start, hi, step):
        e = min(s + step, hi)
        mid = G[s:e:2, 1:-1]
        acc = buf[:len(mid)]
        np.add(G[s - 1:e - 1:2, 1:-1], G[s + 1:e + 1:2, 1:-1], out=acc)
        acc += G[s:e:2, :-2]
        acc += G[s:e:2, 2:]
        acc *= omega * 0.25
        mid *= 1.0 - omega
        mid += acc


class SOR:
    """Red-black SOR over an ``n`` x ``n`` grid."""

    def __init__(self, n: int = 100, iterations: int = 100,
                 omega: float = 1.25, seed: int = 17) -> None:
        if n < 3:
            raise ValueError("grid must be at least 3x3")
        self.n = n
        self.iterations = iterations
        self.omega = omega
        self.G = init_grid(n, seed)
        self.iterations_done = 0

    # ------------------------------------------------------------------
    def execute(self) -> float:
        """Run the full benchmark and return the result checksum."""
        self.run()
        return self.checksum()

    def run(self) -> None:
        """Iteration driver (the parallel region when plugged).

        The loop trip count is fixed (not resumed from ``iterations_done``)
        on purpose: restart and adaptation replay the driver from the top,
        skipping the ignorable ``sweep`` until the recorded safe point is
        reached, so the control flow must be state-independent.
        """
        for _ in range(self.iterations):
            self.sweep()
            self.end_iteration()

    def sweep(self) -> None:
        """One full red-black iteration (two half-sweeps)."""
        self.relax(1, self.n - 1, 0)  # red points
        self.relax(1, self.n - 1, 1)  # black points

    def relax(self, lo: int, hi: int, parity: int) -> None:
        """Half-sweep of ``parity`` rows in ``[lo, hi)`` (:func:`relax_rows`);
        row ``i`` reads rows ``i±1``, hence the plugs' one-row halo."""
        relax_rows(self.G, lo, hi, parity, self.omega)

    def end_iteration(self) -> None:
        """Per-iteration bookkeeping (the safe point join point)."""
        self.iterations_done += 1

    # ------------------------------------------------------------------
    def checksum(self) -> float:
        """JGF-style validation value: mean absolute grid value."""
        return grid_checksum(self.G)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"SOR(n={self.n}, iterations={self.iterations}, "
                f"done={self.iterations_done})")
