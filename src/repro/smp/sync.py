"""Data-sharing arbitration: ``single`` support.

``SingleArbiter`` backs the ``SingleMethod`` template: for each dynamic
occurrence of a single-region, exactly one live thread executes it.  An
occurrence is identified by a monotonically increasing per-thread sequence
number — every team member executes the same region code, so the Nth
single-construct encountered by thread A corresponds to the Nth encountered
by thread B (the OpenMP rule that work-sharing constructs must be
encountered by all threads in the same order).
"""

from __future__ import annotations

import threading


class SingleArbiter:
    """First-arriver election per single-construct occurrence."""

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._claimed: dict[tuple[str, int], int] = {}

    def claim(self, key: str, occurrence: int, tid: int) -> bool:
        """Return True iff ``tid`` is the executor for this occurrence."""
        with self._guard:
            owner = self._claimed.setdefault((key, occurrence), tid)
            return owner == tid

    def reset(self) -> None:
        with self._guard:
            self._claimed.clear()
