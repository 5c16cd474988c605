"""The fleet execution backend: a phase launch with zero forks.

One :class:`FleetBackend` instance serves one *job* on one fleet lane.
``launch`` leases warm workers instead of forking, sends the launch
envelope over their control channels, collects with the stock
multiprocess ``_collect`` over a rank→worker view and ends with its
``_finish``.  The lane inbox also carries each worker's ``"idle"``,
posted behind its report: the per-message hook then gives the worker
back to the pool (a shrink's retiree while the job still runs), and
``launch`` returns only once every worker it leased came back or died
— a dead one respawned at once, one still out after
:data:`RETURN_SECONDS` terminated and respawned.  Elastic grows ride
the same hook: on rank 0's grow note the backend parks idle workers on
the lane channels where the un-park messages already wait, the elastic
joiner path of a cold launch.  A steering cancel surfaces as a
:class:`~repro.service.steer.JobCancelled` raise to the job thread.
"""

from __future__ import annotations

import time
from multiprocessing.connection import wait

from repro.core.errors import WeaveError
from repro.dsm import shm
from repro.exec.base import PhaseOutcome, PhaseServices, PhaseSpec
from repro.exec.multiproc import MultiprocessBackend, drain_queues
from repro.exec.worker import WorkerEnv
from repro.service.fleet import CANCELLED, FleetWorkerBackend, WorkerFleet
from repro.service.steer import JobCancelled

#: how long a job's workers get to come back after its collection
#: before they are terminated and respawned.
RETURN_SECONDS = 15.0


class _DeadProc:
    """Stand-in for a rank with no leased worker behind it: no sentinel
    to wait on, and dead from the first look."""

    exitcode = 1
    sentinel = None

    @staticmethod
    def terminate() -> None:
        pass


_DEAD = _DeadProc()


class _RankProcs:
    """Rank-indexed view of the job's workers for ``_collect``; a rank
    whose worker came back (after its report, or without one) is dead."""

    def __init__(self, backend: "FleetBackend") -> None:
        self.backend = backend

    def __getitem__(self, rank: int):
        b = self.backend
        wid = b.assignment.get(rank)
        if wid is None or wid not in b.leased:
            return _DEAD
        return b.fleet.procs[wid]


class FleetBackend(MultiprocessBackend):
    """Launch phases of one job on a warm :class:`WorkerFleet`."""

    name = "fleet"
    proc_prefix = WorkerFleet.proc_prefix

    def __init__(self, fleet: WorkerFleet, job: str, lane: int,
                 join_timeout: float = 120.0,
                 lease_timeout: float = 30.0) -> None:
        super().__init__(start_method=fleet.start_method,
                         join_timeout=join_timeout)
        self.fleet = fleet
        self.job = job
        self.lane = lane
        self.lease_timeout = lease_timeout
        #: rank -> worker id, maintained across membership changes.
        self.assignment: dict[int, int] = {}
        #: workers leased to this launch that have not come back.
        self.leased: set[int] = set()
        #: ranks parked for a grow whose un-park may not be consumed.
        self._pending: dict[int, int] = {}
        #: retirees back before the shrink note that retires their rank.
        self._early: set[int] = set()
        #: the live membership size (scheduler reads this for fair-share).
        self.current_nranks = 0
        self._env: WorkerEnv | None = None

    # ------------------------------------------------------------------
    def launch(self, spec: PhaseSpec, services: PhaseServices
               ) -> PhaseOutcome:
        fleet = self.fleet
        n = spec.config.nranks
        if n > fleet.workers:
            raise WeaveError(
                f"job {self.job} wants {n} ranks; fleet has "
                f"{fleet.workers} workers")
        wids = fleet.lease(n, timeout=self.lease_timeout)
        if wids is None:
            raise RuntimeError(
                f"fleet could not supply {n} idle workers for job "
                f"{self.job} within {self.lease_timeout}s")
        launch_id = shm.new_launch_id(self.job)
        # the lane fabric is fleet-wide — any grow up to the whole fleet
        # is served in place — so every potential rank owns a region of
        # the launch's observability planes.
        planes = self.open_planes(services, fleet.workers,
                                  launch_id=launch_id)
        self.assignment = dict(enumerate(wids))
        self.leased = set(wids)
        self._pending = {}
        self._early = set()
        self.current_nranks = n
        fleet.changed.set()
        # the job's namespaced store: where its funnelled writes land.
        fleet.funnel.register(self.job, services.store)
        env = self._env = WorkerEnv.build(
            spec, services, FleetWorkerBackend(fleet.steer[self.lane].name),
            launch_id, fleet.workers, job=self.job, lane=self.lane)
        lane_qs = fleet.data[self.lane]
        inbox = fleet.inboxes[self.lane]
        # the lane's last job may have left posts or arrivals in its
        # fence (a rank that unwound mid-barrier); none may count here.
        fleet.fences[self.lane].reset()
        try:
            for r, w in enumerate(wids):
                fleet.activate(w, env, rank=r)
            reports, stray_events, _ = self._collect(
                _RankProcs(self), inbox, n, lane_qs)
        finally:
            # release joiners whose un-park never arrived (a message to
            # a consumed park lands in a drained channel — harmless).
            for r in list(self._pending):
                try:
                    lane_qs[r].put({"kind": "stop"})
                except (OSError, ValueError):
                    pass
            late = self._await_return(inbox)
            drain_queues(lane_qs + [inbox])
            fleet.funnel.unregister(self.job)
            fleet.arena.release(self.job)
            # workers are idle (or respawned) by here: their regions are
            # quiescent, so the scrape is race-free.
            planes.drain(services)
        cancelled = [rep for rep in reports.values()
                     if rep[1] == CANCELLED]
        if cancelled:
            # cooperative, not wreckage: unwind to the service's job
            # thread before _outcome can mistake it for an error.
            raise JobCancelled(cancelled[0][2])
        return self._finish(spec, services, reports, stray_events + late)

    def _await_return(self, inbox) -> list:
        """Wait until every worker still leased posts ``"idle"`` or dies;
        respawn the dead at once and the rest at the deadline.  Returns
        the timelines retirees shipped late."""
        for w in self._early:
            self._return(w)
        late: list = []
        deadline = time.monotonic() + RETURN_SECONDS
        while self.leased:
            # exits noted before the drain: an exit flushes the worker's
            # frames, so a dead worker with no "idle" after it sent none.
            dead = {w for w in self.leased
                    if self.fleet.procs[w].exitcode is not None}
            for msg in drain_queues([inbox]):
                if msg[0] == "idle":
                    self._on_message(msg)
                elif msg[0] == "events":
                    late += msg[2]
            left = deadline - time.monotonic()
            for w in list(self.leased if left <= 0 else self.leased & dead):
                self.leased.discard(w)
                self.fleet.respawn(w)
            if self.leased:
                wait([inbox] + [self.fleet.procs[w].sentinel
                                for w in self.leased], timeout=left)
        return late

    def _return(self, wid: int) -> None:
        self.leased.discard(wid)
        self.fleet.release(wid)

    # ------------------------------------------------------------------
    def _on_message(self, msg: tuple) -> None:
        if msg[0] == "idle" and msg[1] in self.leased:
            if msg[3] == "retired" and msg[1] in self.assignment.values():
                self._early.add(msg[1])  # its shrink note is in flight
            else:
                self._return(msg[1])
        if msg[0] != "reshape":
            return
        _, _count, old_n, new_n = msg
        self.current_nranks = new_n
        if new_n > old_n:
            # rank 0 already posted the un-park messages to the lane
            # channels; supply workers to consume them.
            for r in range(old_n, new_n):
                wids = self.fleet.lease(1, timeout=self.lease_timeout)
                if wids is None:
                    # no worker: the rendezvous will stall and the
                    # collector's deadline reaps the job.
                    continue
                self.assignment[r] = wids[0]
                self.leased.add(wids[0])
                self._pending[r] = wids[0]
                self.fleet.activate(wids[0], self._env, rank=r, park=True)
        else:
            for r in range(new_n, old_n):
                self._pending.pop(r, None)
                wid = self.assignment.pop(r, None)
                if wid in self._early:
                    self._early.discard(wid)
                    self._return(wid)
        self.fleet.changed.set()
