"""JGF MonteCarlo: option pricing by Monte-Carlo path simulation.

Simulates geometric-Brownian price paths and averages the resulting
expected returns — the JGF financial kernel.  Embarrassingly parallel
over paths.  Two design points matter for the reproduction:

* each path draws from its **own** RNG stream keyed by the path index
  (:func:`repro.util.rng.spawn_rngs` semantics), so the result is
  independent of how paths are distributed over threads/ranks — the mode
  equivalence tests rely on it;
* the per-path results vector partitions block-wise and is made whole
  on every member after the work-shared loop (``AllGatherAfter``), so
  the final average is computed from the whole vector.

Domain code only — plugs in :mod:`repro.apps.plugs.montecarlo_plugs`.
"""

from __future__ import annotations

import numpy as np


class MonteCarloPricer:
    """Average expected return over ``npaths`` simulated price paths."""

    def __init__(self, npaths: int = 400, steps: int = 100,
                 s0: float = 100.0, sigma: float = 0.3, r: float = 0.05,
                 seed: int = 1234) -> None:
        if npaths < 1 or steps < 2:
            raise ValueError("need >= 1 path and >= 2 time steps")
        self.npaths = npaths
        self.steps = steps
        self.s0 = s0
        self.sigma = sigma
        self.r = r
        self.seed = seed
        self.dt = 1.0 / steps
        self.returns = np.zeros(npaths)
        self.paths_done = 0

    # ------------------------------------------------------------------
    def execute(self) -> float:
        self.run()
        return self.average_return()

    def run(self) -> None:
        self.simulate_paths(0, self.npaths)
        self.batch_done()

    def simulate_paths(self, lo: int, hi: int) -> None:
        """Simulate paths ``lo .. hi-1`` (the work-shared loop)."""
        seq = np.random.SeedSequence(self.seed)
        children = seq.spawn(self.npaths)  # stream per *path*, not per rank
        drift = (self.r - 0.5 * self.sigma ** 2) * self.dt
        vol = self.sigma * np.sqrt(self.dt)
        for p in range(lo, hi):
            rng = np.random.default_rng(children[p])
            increments = drift + vol * rng.standard_normal(self.steps)
            log_path = np.cumsum(increments)
            price = self.s0 * np.exp(log_path[-1])
            self.returns[p] = np.log(price / self.s0)

    def batch_done(self) -> None:
        self.paths_done += self.npaths

    # ------------------------------------------------------------------
    def average_return(self) -> float:
        return float(self.returns.sum() / self.npaths)
