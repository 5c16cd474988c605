"""Per-rank virtual clocks.

Each simulated rank (or shared-memory thread) owns a :class:`VClock`.
Compute chunks advance only the local clock; communication and barriers
couple clocks together (a receive completes no earlier than the matching
send plus transfer cost; a barrier lifts every participant to the latest
arrival plus the barrier cost).

Clocks are manipulated from the owning thread except for the coupling
operations, which happen while the participants are quiescent (inside the
barrier/collective implementations), so a plain lock per clock suffices.
"""

from __future__ import annotations

import threading
from typing import Iterable


class VClock:
    """Monotone virtual clock for one rank.

    Attributes
    ----------
    now:
        Current virtual time in seconds.
    compute_total / comm_total / io_total:
        Per-category ledgers, useful for the benchmark breakdowns (the
        paper's Figure 4/5 split "save"/"load" from "replay" time).
    """

    __slots__ = ("_lock", "now", "compute_total", "comm_total", "io_total",
                 "contention")

    def __init__(self, start: float = 0.0) -> None:
        self._lock = threading.Lock()
        self.now = float(start)
        self.compute_total = 0.0
        self.comm_total = 0.0
        self.io_total = 0.0
        #: compute multiplier for core time-slicing (over-decomposition);
        #: a float >= 1 (includes the machine's cache-thrash penalty).
        self.contention = 1.0

    # ------------------------------------------------------------------
    def charge_compute(self, seconds: float) -> None:
        """Charge a modelled compute chunk (scaled by core contention)."""
        if seconds < 0:
            raise ValueError("negative compute charge")
        dt = seconds * self.contention
        with self._lock:
            self.now += dt
            self.compute_total += dt

    def charge_comm(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative communication charge")
        with self._lock:
            self.now += seconds
            self.comm_total += seconds

    def charge_io(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative I/O charge")
        with self._lock:
            self.now += seconds
            self.io_total += seconds

    def advance_to(self, t: float) -> None:
        """Raise the clock to ``t`` (idle wait); never moves backwards."""
        with self._lock:
            if t > self.now:
                self.now = t

    def wait_comm(self, t: float) -> None:
        """Advance to ``t`` attributing the wait to communication time.

        Used by blocking receives: the time between the local clock and the
        message's arrival time is spent waiting on the network.
        """
        with self._lock:
            if t > self.now:
                self.comm_total += t - self.now
                self.now = t

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                "now": self.now,
                "compute": self.compute_total,
                "comm": self.comm_total,
                "io": self.io_total,
            }

    # ------------------------------------------------------------------
    @staticmethod
    def sync_max(clocks: Iterable["VClock"], extra: float = 0.0) -> float:
        """Couple ``clocks`` at a barrier: all jump to max arrival + extra.

        Returns the post-barrier time.  Must be called while every owning
        thread is parked at the barrier (the barrier implementations
        guarantee this).
        """
        cs = list(clocks)
        t = max((c.now for c in cs), default=0.0) + extra
        for c in cs:
            c.advance_to(t)
        return t

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"VClock(now={self.now:.6f}, compute={self.compute_total:.6f},"
                f" comm={self.comm_total:.6f}, io={self.io_total:.6f})")
