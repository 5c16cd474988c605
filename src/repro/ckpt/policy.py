"""Checkpoint-frequency policies.

"The selection of the set of safe points is a trade-off between
checkpointing overhead and computation lost when a failure occurs.  Note
that a checkpoint might be taken only after a set of safe points."
(Section IV.A.)  Policies decide, given the current safe-point count,
whether a checkpoint is due.

Policies must be *deterministic functions of the count*: in a parallel
run every thread/rank evaluates the policy locally and all must agree
without communicating.  ``mark_taken`` makes re-evaluation at the same
count idempotent (a barrier generation can replay its parked action when
the team grows).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable


class CheckpointPolicy(ABC):
    """Decides at which safe-point counts checkpoints are taken."""

    def __init__(self) -> None:
        self._last_taken = -1

    @abstractmethod
    def _due(self, count: int) -> bool:
        """Pure frequency rule (no idempotence bookkeeping)."""

    def due(self, count: int) -> bool:
        if count <= self._last_taken:
            return False
        return self._due(count)

    def mark_taken(self, count: int) -> None:
        if count > self._last_taken:
            self._last_taken = count


class EveryN(CheckpointPolicy):
    """Checkpoint every ``n`` safe points."""

    def __init__(self, n: int) -> None:
        super().__init__()
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n

    def _due(self, count: int) -> bool:
        return count > 0 and count % self.n == 0


class AtCounts(CheckpointPolicy):
    """Checkpoint exactly at the given safe-point counts."""

    def __init__(self, counts: Iterable[int]) -> None:
        super().__init__()
        self.counts = frozenset(int(c) for c in counts)

    def _due(self, count: int) -> bool:
        return count in self.counts


class Never(CheckpointPolicy):
    """Safe points are counted but no checkpoint is ever taken.

    Used to measure the pure counting overhead (the paper's Figure 3
    "0 checkpoints" series).
    """

    def _due(self, count: int) -> bool:
        return False

