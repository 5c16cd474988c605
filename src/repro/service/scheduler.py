"""Job admission and fair-share allocation over the warm fleet.

A submitted job carries its shape envelope — ``nranks`` (preferred),
``min_ranks``/``max_ranks`` (the elastic range it tolerates) and a
``priority``.  The queue admits up to ``max_queue`` jobs (admission
control: a full queue rejects at submit time, it does not buffer
unboundedly) and releases them priority-first, FIFO within a priority.

The service's scheduler drives *elastic fair share* from queue depth:
each running or admissible job's fair share is ``workers // parties``,
clamped to its declared range.  When a higher-priority job is waiting
and the fleet has no idle workers, running jobs that declared
``min_ranks`` below their current size are candidates to shrink in
place — the smallest first, since an in-place shrink costs barriers of
the current membership and the barrier cost rises with the rank count:
the membership transition that frees workers cheapest is the one taken.
The shrink is delivered through the job's steer block and executed by
the elastic membership protocol at the job's next safe point; the freed
workers then admit the waiting job on the following scheduling round.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any


class QueueFull(RuntimeError):
    """Admission control rejected the submission."""


@dataclass
class Job:
    """One submitted job, from queue to terminal state."""

    id: int
    request: dict
    priority: int = 0
    status: str = "queued"  # queued|running|done|cancelled|error
    result: dict | None = None
    error: str | None = None
    lane: int | None = None
    backend: Any = None            # the job's FleetBackend while running
    resize_target: int | None = None
    submitted_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    finished_at: float | None = None
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def tag(self) -> str:
        return f"j{self.id}"

    @property
    def nranks(self) -> int:
        return int(self.request.get("nranks", 1))

    @property
    def min_ranks(self) -> int:
        return int(self.request.get("min_ranks") or self.nranks)

    @property
    def max_ranks(self) -> int:
        return int(self.request.get("max_ranks") or self.nranks)

    def clamp(self, n: int) -> int:
        return max(self.min_ranks, min(self.max_ranks, n))

    def snapshot(self) -> dict:
        """A picklable status view for the client protocol."""
        out = {"job": self.id, "status": self.status,
               "priority": self.priority}
        if self.backend is not None and self.status == "running":
            out["nranks"] = self.backend.current_nranks
        if self.finished_at is not None:
            out["latency_s"] = self.finished_at - self.submitted_at
            if self.started_at is not None:
                out["run_s"] = self.finished_at - self.started_at
        if self.result is not None:
            out.update(self.result)
        if self.error is not None:
            out["error"] = self.error
        return out


class JobQueue:
    """Priority-FIFO queue with admission control.  Thread-safe."""

    def __init__(self, max_queue: int = 256) -> None:
        self.max_queue = max_queue
        self._lock = threading.Lock()
        self._seq = 0
        self._jobs: dict[int, Job] = {}
        self._waiting: list[int] = []

    # ------------------------------------------------------------------
    def submit(self, request: dict, priority: int = 0) -> Job:
        with self._lock:
            if len(self._waiting) >= self.max_queue:
                raise QueueFull(
                    f"job queue is full ({self.max_queue} waiting)")
            self._seq += 1
            job = Job(id=self._seq, request=request, priority=priority)
            self._jobs[job.id] = job
            self._waiting.append(job.id)
            return job

    def get(self, job_id: int) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def depth(self) -> int:
        with self._lock:
            return len(self._waiting)

    # ------------------------------------------------------------------
    def _ordered(self) -> list[int]:
        return sorted(self._waiting,
                      key=lambda i: (-self._jobs[i].priority, i))

    def peek(self) -> Job | None:
        """The job the scheduler would admit next."""
        with self._lock:
            order = self._ordered()
            return self._jobs[order[0]] if order else None

    def take(self, job_id: int) -> Job | None:
        """Remove a specific waiting job for launch (None if it left the
        queue since the peek — cancelled, or taken by another round)."""
        with self._lock:
            if job_id not in self._waiting:
                return None
            self._waiting.remove(job_id)
            return self._jobs[job_id]

    def cancel_waiting(self, job_id: int) -> bool:
        """Cancel a job still in the queue (False if it already left)."""
        with self._lock:
            if job_id not in self._waiting:
                return False
            self._waiting.remove(job_id)
            job = self._jobs[job_id]
            job.status = "cancelled"
            job.done.set()
            return True
