"""Deterministic random-number helpers.

Every stochastic component in the library (MonteCarlo workload, failure
injection, synthetic Grid traces, evolutionary algorithms) takes an explicit
seed so that tests and benchmarks are reproducible run-to-run.
"""

from __future__ import annotations

# numpy loads ``numpy.random`` on first use; importing it here loads it
# once in a launch's parent, not again in every forked rank.
from numpy.random import Generator, SeedSequence, default_rng


def seeded_rng(seed: int | None) -> Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` yields a non-deterministic generator; library code should only
    pass ``None`` when the caller explicitly opted out of determinism.
    """
    return default_rng(seed)


def spawn_rngs(seed: int, n: int) -> list[Generator]:
    """Derive ``n`` independent child generators from a single seed.

    Used by SPMD workloads so that each rank draws from its own stream and
    the union of the streams is independent of the rank count (the streams
    are keyed by *logical* index, not by rank).
    """
    seq = SeedSequence(seed)
    return [default_rng(s) for s in seq.spawn(n)]
