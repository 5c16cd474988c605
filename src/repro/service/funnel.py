"""The fleet's checkpoint funnel: one drain thread, many jobs.

The per-launch :class:`~repro.ckpt.funnel.CheckpointFunnel` serves one
master store for one launch and acks by rank.  The fleet variant is
long-lived and multiplexed: requests are keyed ``(job_tag, worker_id)``
— acks route by *worker* (a worker serves one rank of one job at a
time), writes route by *job* to that job's registered namespaced
sub-store, so two jobs' checkpoints can never interleave into one
store's delta chain.  It also answers the one non-checkpoint RPC the
fleet needs at job start: ``arena`` leases capacity-classed field
segments from the :class:`~repro.service.arena.SegmentArena` (rank 0
asks during field placement, when it alone knows the field shapes).
"""

from __future__ import annotations

import traceback
from typing import TYPE_CHECKING

from repro.ckpt.funnel import CheckpointFunnel

if TYPE_CHECKING:  # pragma: no cover
    from repro.ckpt.store import CheckpointStore
    from repro.service.arena import SegmentArena

_OP_ARENA = "arena"


class FleetFunnel(CheckpointFunnel):
    """Parent side: drains all jobs' worker requests into their stores."""

    def __init__(self, mpctx, workers: int, arena: "SegmentArena"
                 ) -> None:
        # no single master store: every write names its job's sub-store.
        super().__init__(store=None, mpctx=mpctx, nranks=workers)
        self.arena = arena
        #: job tag -> that job's namespaced CheckpointStore.
        self._stores: dict[str, CheckpointStore] = {}

    # ------------------------------------------------------------------
    def register(self, job: str, store: "CheckpointStore") -> None:
        self._stores[job] = store

    def unregister(self, job: str) -> None:
        self._stores.pop(job, None)

    def client(self, rank):  # pragma: no cover - workers build their own
        raise NotImplementedError(
            "fleet workers build their FunnelStore from the boot queues")

    # ------------------------------------------------------------------
    def _serve(self) -> None:
        for op, key, shard_rank, payload in self._pending():
            job, wid = key
            if op == _OP_ARENA:
                try:
                    reply = ("ok", self.arena.lease(job, payload), None, None)
                except Exception:  # noqa: BLE001 - worker must not hang
                    reply = ("error", traceback.format_exc(), None, None)
                self.acks[wid].put(reply)
                continue
            store = self._stores.get(job)
            if store is None:
                self.acks[wid].put(
                    ("error", f"no store registered for job {job!r}",
                     None, None))
                continue
            self.acks[wid].put(self._handle(op, shard_rank, payload,
                                            store=store))
