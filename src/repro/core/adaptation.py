"""Adaptation plans: when and how the parallelism structure changes.

The paper assumes an external resource-selection tool decides *what*
resources the application should use (Section I cites [3]); the
contribution is the mechanism that reshapes the application.  An
:class:`AdaptationPlan` is the interface between the two: a deterministic
map from safe-point counts to target configurations (every thread/rank
evaluates it locally and agrees without communication — the same rule as
checkpoint policies), with each step flagged as *live* (run-time protocol:
in-memory state transfer plus replay) or *restart* (checkpoint to disk,
tear down, relaunch from the file).

Figure 7 of the paper is exactly the comparison of those two flags.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.core.modes import ExecConfig


@dataclass(frozen=True)
class AdaptStep:
    """One planned reshaping: at safe point ``at``, become ``config``.

    ``in_place`` selects the reshape kind within the run-time protocol:

    * ``None`` (default) — automatic: reshape in place when the backend
      advertises ``Capabilities.elastic_ranks`` and only the processing-
      element counts change; unwind and relaunch otherwise;
    * ``True`` — request the in-place membership transition; if the
      backend cannot honour it the step degrades to a relaunch (the
      documented fallback), never to an error;
    * ``False`` — force the unwind-and-relaunch path even where an
      in-place reshape is possible (the reshape-vs-relaunch benchmarks
      use this to measure both sides of the same step).

    ``via_restart=True`` always relaunches through the checkpoint file;
    ``in_place`` is ignored for such steps.
    """

    at: int
    config: ExecConfig
    #: True = checkpoint/restart through disk; False = run-time protocol.
    via_restart: bool = False
    #: None = auto, True = prefer in-place, False = force relaunch.
    in_place: bool | None = None

    def __post_init__(self) -> None:
        if self.at < 1:
            raise ValueError("adaptation steps fire at safe points >= 1")


class AdaptationPlan:
    """An ordered set of :class:`AdaptStep`, plus live external requests.

    ``step_at(count)`` is the deterministic lookup used on the hot path.
    ``request(config)`` injects an asynchronous external request (only
    honoured in sequential / shared-memory execution, where a single
    decision point exists — the parked team; distributed runs must use
    planned steps so all ranks agree).
    """

    def __init__(self, steps: list[AdaptStep] | None = None) -> None:
        steps = sorted(steps or [], key=lambda s: s.at)
        seen: set[int] = set()
        for s in steps:
            if s.at in seen:
                raise ValueError(f"two adaptation steps at safe point {s.at}")
            seen.add(s.at)
        self.steps = steps
        self._lock = threading.Lock()
        self._pending: ExecConfig | None = None

    # ------------------------------------------------------------------
    def step_at(self, count: int) -> AdaptStep | None:
        for s in self.steps:
            if s.at == count:
                return s
        return None

    # -- pickling (the lock is process-local state) ---------------------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- asynchronous requests ------------------------------------------
    def request(self, config: ExecConfig) -> None:
        with self._lock:
            self._pending = config

    def take_pending(self) -> ExecConfig | None:
        with self._lock:
            p, self._pending = self._pending, None
            return p

    def __bool__(self) -> bool:
        with self._lock:
            return bool(self.steps) or self._pending is not None


@dataclass
class AdaptationRecord:
    """What the runtime actually did (for tests and bench reporting)."""

    at_count: int
    from_config: ExecConfig
    to_config: ExecConfig
    via_restart: bool
    vtime: float = 0.0
    extra: dict = field(default_factory=dict)
