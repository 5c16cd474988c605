"""The fleet execution backend: a phase launch with zero forks.

One :class:`FleetBackend` instance serves one *job* on one fleet lane.
``launch`` leases warm workers instead of forking, sends the launch
envelope over their control queues instead of as process arguments,
and collects reports with the stock multiprocess machinery —
``_collect``, ``_merge_events``, ``_outcome`` run unchanged over a
rank→worker proxy.  Elastic grows
ride the ``_on_reshape`` hook: when rank 0 announces a membership grow,
the backend leases idle workers and parks them on the lane channels
where the un-park messages already wait, so the join path is byte-for-
byte the elastic joiner path of a cold launch.  Worker-side
cancellation reports (the steering block's cancel) surface here as a
:class:`~repro.service.steer.JobCancelled` raise, which unwinds through
the driver to the service's job thread.
"""

from __future__ import annotations

from repro.core.errors import WeaveError
from repro.dsm import shm
from repro.exec.base import PhaseOutcome, PhaseServices, PhaseSpec
from repro.exec.multiproc import MultiprocessBackend, drain_queues
from repro.exec.worker import FAILED, WorkerEnv
from repro.service.fleet import CANCELLED, FleetWorkerBackend, WorkerFleet
from repro.service.steer import JobCancelled


class _DeadProc:
    """Stand-in for a rank with no worker behind it at all."""

    exitcode = 1

    @staticmethod
    def is_alive() -> bool:
        return False

    @staticmethod
    def terminate() -> None:
        pass


_DEAD = _DeadProc()


class _GuardedProc:
    """Liveness passthrough with ``terminate`` disarmed.

    Used when a rank's worker is no longer leased to this job — back in
    the pool, or already serving another job.  Its *liveness* is still
    the truth (a worker that flushed its report and re-parked is alive,
    not dead; the report is merely behind a queue feeder), but the
    collector's reaping must never touch it.
    """

    def __init__(self, proc) -> None:
        self._proc = proc

    @property
    def exitcode(self):
        return self._proc.exitcode

    def is_alive(self) -> bool:
        return self._proc.is_alive()

    def terminate(self) -> None:
        pass


class _RankProcs:
    """Rank-indexed view of the job's workers for ``_collect``.

    Guarded: once a rank's worker leaves this job's lease, the
    collector sees its real liveness but cannot terminate it.
    """

    def __init__(self, backend: "FleetBackend") -> None:
        self.backend = backend

    def __getitem__(self, rank: int):
        b = self.backend
        wid = b.assignment.get(rank)
        if wid is None:
            return _DEAD
        proc = b.fleet.procs[wid]
        if b.fleet.job_of(wid) != b.job:
            return _GuardedProc(proc)
        return proc


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
        #: ranks parked for a grow whose un-park may not be consumed.
        self._pending: dict[int, int] = {}
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
        wids = fleet.lease(n, self.job, timeout=self.lease_timeout)
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
        self._pending = {}
        self.current_nranks = n
        # the job's namespaced store: where its funnelled writes land.
        fleet.funnel.register(self.job, services.store)
        env = self._env = WorkerEnv.build(
            spec, services, FleetWorkerBackend(fleet.steer[self.lane].name),
            launch_id, fleet.workers, job=self.job, lane=self.lane)
        lane_qs = fleet.data[self.lane]
        result_queue = fleet.results[self.lane]
        notify_queue = fleet.notifies[self.lane]
        try:
            for r, w in enumerate(wids):
                fleet.activate(w, env, rank=r)
            reports, stray_events, active = self._collect(
                _RankProcs(self), result_queue, notify_queue, n)
        finally:
            # release joiners whose un-park never arrived (a message to
            # a consumed park lands in a drained queue — harmless).
            for r in list(self._pending):
                try:
                    lane_qs[r].put({"kind": "stop"})
                except (OSError, ValueError):
                    pass
            owed = set(self.assignment.values()) | set(self._pending.values())
            stragglers = fleet.await_idle(
                owed, timeout=15.0,
                drain=lambda: drain_queues(
                    lane_qs + [result_queue, notify_queue]))
            for w in stragglers:
                fleet.respawn(w)
            drain_queues(lane_qs + [result_queue, notify_queue])
            fleet.funnel.unregister(self.job)
            fleet.arena.release(self.job)
            # workers are idle (or respawned) by here: their regions are
            # quiescent, so the scrape is race-free.
            planes.drain(services)
        self._merge_events(services.log, reports, stray_events)
        end = max([spec.start_vtime]
                  + [rep[3] for rep in reports.values()
                     if rep[3] is not None])
        if any(rep[1] == FAILED for rep in reports.values()):
            spec.injector.mark_fired()
        cancelled = [rep for rep in reports.values()
                     if rep[1] == CANCELLED]
        if cancelled:
            # cooperative, not wreckage: unwind to the service's job
            # thread before _outcome can mistake it for an error.
            raise JobCancelled(cancelled[0][2])
        return self._outcome(reports, end)

    # ------------------------------------------------------------------
    def _on_reshape(self, note: tuple) -> None:
        _, _count, old_n, new_n = note
        self.current_nranks = new_n
        if new_n > old_n:
            # rank 0 already posted the un-park messages to the lane
            # channels; supply workers to consume them.
            for r in range(old_n, new_n):
                wids = self.fleet.lease(1, self.job,
                                        timeout=self.lease_timeout)
                if wids is None:
                    # no worker: the rendezvous will stall and the
                    # collector's deadline reaps the job.
                    continue
                self.assignment[r] = wids[0]
                self._pending[r] = wids[0]
                self.fleet.activate(wids[0], self._env, rank=r, park=True)
        else:
            for r in range(new_n, old_n):
                self.assignment.pop(r, None)
                self._pending.pop(r, None)
