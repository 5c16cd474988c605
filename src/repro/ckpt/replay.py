"""Safe-point counting and the replay protocol.

Restart "relies on a replay mechanism to reconstruct the stack ... we
actually only need to keep track of the number of safe points executed"
(Section IV.A).  :class:`ReplayState` drives that: while active, woven
ignorable methods are skipped and each safe point increments the counter;
when the counter reaches the snapshot's count the saved data is restored
and execution switches to normal mode.

The same object also drives *run-time adaptation* replays (Section IV.B):
rebuilding the call stack of new threads/ranks up to the team's current
safe point, in which case there may be no snapshot to load (shared data is
already in place) — ``snapshot=None`` expresses that.
"""

from __future__ import annotations

import threading

from repro.ckpt.snapshot import Snapshot


class SafePointCounter:
    """Thread-safe monotone counter of executed safe points."""

    def __init__(self, start: int = 0) -> None:
        self._lock = threading.Lock()
        self._count = int(start)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def increment(self) -> int:
        with self._lock:
            self._count += 1
            return self._count


class ReplayState:
    """Replay-to-safe-point driver.

    :meth:`observe_safepoint` says, exactly once, when the safe point
    whose count matches ``target`` is reached, and the context then runs
    :meth:`complete` (the paper's step 4: "the checkpoint data is loaded
    and execution proceeds normally from that point").
    """

    def __init__(self, target: int, snapshot: Snapshot | None = None
                 ) -> None:
        if target < 0:
            raise ValueError("replay target must be >= 0")
        self.target = target
        self.snapshot = snapshot
        self._active = target > 0

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot) -> "ReplayState":
        return cls(target=snapshot.safepoint_count, snapshot=snapshot)

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True while methods should be skipped (replay in progress)."""
        return self._active

    def observe_safepoint(self, count: int) -> bool:
        """Notify the replay driver that safe point ``count`` was reached.

        Returns True exactly once — at the restore point — so the caller
        can perform mode-specific post-restore work (e.g. scatter the
        restored arrays in a distributed run).
        """
        if not self._active:
            return False
        if count < self.target:
            return False
        self._active = False
        return True

    def complete(self, ctx, count: int) -> None:
        """Post-replay completion, run once at the target safe point.

        The default is the restore protocol: load the snapshot (scatter
        / broadcast it across ranks in distributed modes).  Subclasses
        reroute this — an elastic :class:`~repro.elastic.JoinReplay`
        enters the membership-transition rendezvous instead, receiving
        its partitions from the surviving owners rather than a snapshot.
        """
        ctx._restore(self.snapshot, count)
