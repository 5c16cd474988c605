"""The wall-clock timer behind the virtual-time instrumentation.

``WallTimer`` measures ordinary wall-clock seconds
(``time.perf_counter``).  A woven region times each chunk with it and
charges the rank's virtual clock through
``GLOBAL_CALIBRATOR.charge_for`` (:mod:`repro.vtime.calibrate`): a pinned
or learnt per-unit rate when the region is keyed, the measured seconds
themselves otherwise.  The hand-written baselines time their chunks the
same way, and the harness uses it for wall-clock reporting.
"""

from __future__ import annotations

import time


class WallTimer:
    """Context manager measuring wall-clock seconds."""

    __slots__ = ("_start", "elapsed")

    def __init__(self) -> None:
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "WallTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        self.elapsed = time.perf_counter() - self._start
        return self.elapsed
