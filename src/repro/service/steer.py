"""Job steering: out-of-band directives into a running job's safe points.

The service's scheduler must be able to cancel a running job and to
resize its rank team without being a rank itself.  Directives travel
through a tiny shared-memory **control block** per lane (four int64
words: serial, op, arg, ack-serial): the parent posts by writing the
operands and then bumping the serial, rank 0 polls the serial at every
safe point and acknowledges what it consumed.  Single-word aligned
stores make the protocol race-benign — a torn read is impossible and a
poll that misses a just-posted serial simply catches it one safe point
later.

Consensus is the subtle half: ranks reach safe points with skew (only
collectives synchronise them), so rank 0 *broadcasts its verdict
unconditionally at every safe point* — None almost always — and every
rank acts on the same directive at the same count.  A conditional
broadcast cannot be made deadlock-free against that skew, which is why
the poll result rides a real collective rather than the shared block.

Cancellation raises :class:`JobCancelled` on every rank — a
``BaseException`` like the other cooperative unwind signals, so domain
``except Exception`` handlers cannot swallow it; a resize feeds the
normal safe-point adaptation slot and reshapes in place through
:mod:`repro.elastic`.
"""

from __future__ import annotations

import numpy as np

from repro.dsm import shm

#: steering opcodes (the ``op`` word).
OP_NONE = 0
OP_CANCEL = 1
OP_RESIZE = 2

_WORDS = 4
_SERIAL, _OP, _ARG, _ACK = range(_WORDS)


class JobCancelled(BaseException):
    """Cooperative unwind: the service cancelled this job.

    Raised at the same safe point on every rank (the verdict broadcast
    above), so the whole membership unwinds together and no rank is left
    blocked in a collective.
    """

    def __init__(self, count: int) -> None:
        super().__init__(f"job cancelled at safe point {count}")
        self.count = count


def steer_name(fleet_id: str, lane: int) -> str:
    return f"{shm.SHM_PREFIX}-{fleet_id}-steer-l{lane}"


class SteerBlock:
    """Parent side: owns one lane's control block across jobs."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._seg = shm.ShmSegment.allocate(name, (_WORDS,), np.int64)
        self._w = self._seg.ndarray()
        self._w[:] = 0

    # ------------------------------------------------------------------
    def post(self, op: int, arg: int = 0) -> None:
        """Publish a directive (operands first, serial last)."""
        self._w[_OP] = op
        self._w[_ARG] = arg
        self._w[_SERIAL] = int(self._w[_SERIAL]) + 1

    def cancel(self) -> None:
        self.post(OP_CANCEL)

    def resize(self, nranks: int) -> None:
        self.post(OP_RESIZE, nranks)

    def acked(self) -> bool:
        """Has rank 0 consumed the newest directive?"""
        return int(self._w[_ACK]) >= int(self._w[_SERIAL])

    def reset(self) -> None:
        """Zero the block between jobs (no job is attached)."""
        self._w[:] = 0

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._w = None
        self._seg.close()

    def unlink(self) -> None:
        shm.unlink_by_name(self.name)


class SteerClient:
    """Worker side: rank 0 polls, every rank can raise the cancel.

    Built from the block *name* (ships in the job envelope); the mapping
    is attached lazily in the worker process.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._seg: shm.ShmSegment | None = None
        self._w = None
        self._seen = 0

    def _attach(self):
        if self._w is None:
            self._seg = shm.ShmSegment.attach(self.name, (_WORDS,), np.int64)
            self._w = self._seg.ndarray()
        return self._w

    # ------------------------------------------------------------------
    def poll(self, count: int) -> tuple[str, int] | None:
        """Rank 0's per-safe-point check of the control block."""
        w = self._attach()
        serial = int(w[_SERIAL])
        if serial == self._seen:
            return None
        self._seen = serial
        op, arg = int(w[_OP]), int(w[_ARG])
        w[_ACK] = serial
        if op == OP_CANCEL:
            return ("cancel", 0)
        if op == OP_RESIZE:
            return ("resize", arg)
        return None

    def raise_cancelled(self, count: int) -> None:
        raise JobCancelled(count)

    def close(self) -> None:
        if self._seg is not None:
            self._w = None
            self._seg.close()
            self._seg = None
