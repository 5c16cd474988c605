"""The warm worker fleet: pre-forked rank processes, reused across jobs.

One fork per worker for the *fleet's* lifetime, not one per rank per
job.  Between jobs a worker blocks on its control channel — the same
park the elastic membership protocol uses for surplus ranks — and a job
activation is a control message, not a fork: the worker receives the
job's :class:`~repro.exec.worker.WorkerEnv` (the same envelope a cold
launch hands its forks), wires it to the fleet's channels, and runs
:func:`repro.exec.worker.rank_main` exactly as a cold launch would.
Everything expensive is process-scoped and survives jobs:

* the worker's :class:`~repro.dsm.shm.BufferPool` slab ring and
  :class:`~repro.dsm.shm.DataPlane` (fleet-scoped names) — collective
  payloads and packed snapshots of *every* job ride the same slabs;
* the mailbox fabrics: each of the fleet's ``lanes`` (concurrent job
  slots) owns a fleet-wide fabric of rank
  :class:`~repro.dsm.procmail.Channel` objects, one parent inbox
  channel and one rank barrier (:class:`~repro.dsm.procmail.Fence`),
  created once; the channels are drained between jobs and the fence is
  reset when a job takes the lane;
* the checkpoint funnel: one serving thread for all jobs
  (a :class:`~repro.ckpt.funnel.CheckpointFunnel` with the fleet's
  segment arena), one pipe link per worker, routing each write to the
  owning job's namespaced store.

Per-job state is narrow by construction: a launch id (the
observability planes), a steer block serial, and the job's
envelope itself.  Every message between the parent and a worker is on
a :class:`~repro.dsm.procmail.Channel`: directives on the worker's
control channel, and everything back — rank reports and notes, then
``("idle", wid, job, how)`` when the worker returns — on the inbox of
the lane it served.  One sender on one channel keeps its order, so a
worker's report always precedes its ``"idle"``.  The job's collector
(:class:`~repro.service.backend.FleetBackend`) reads both and gives
the worker back with :meth:`WorkerFleet.release`; no thread of the
fleet's own watches the workers.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.ckpt.funnel import CheckpointFunnel
from repro.dsm import shm
from repro.dsm.procmail import Channel, Fence
from repro.exec.multiproc import (
    MultiprocessBackend,
    drain_queues,
    preferred_start_method,
)
from repro.exec.worker import (
    RankWiring,
    WorkerEnv,
    place_shared_fields,
    rank_main,
    wait_for_control,
)
from repro.service.arena import SegmentArena
from repro.service.steer import JobCancelled, SteerBlock, SteerClient, steer_name

#: worker report status for a steering cancel (extends the base set).
CANCELLED = "cancelled"


class FleetWorkerBackend(MultiprocessBackend):
    """The worker-side backend a fleet job runs under.

    Picklable by construction (no queues, no fleet reference): it adds
    the three service behaviours to the stock multiprocess worker —
    steering (a :class:`SteerClient` on every context), arena field
    placement (rank 0 leases capacity-classed segments over the funnel
    instead of allocating), and the cancel unwind classification.
    """

    name = "fleet-worker"

    def __init__(self, steer_block: str) -> None:
        super().__init__()
        self.steer_block = steer_block

    def make_context(self, spec, services, rankctx=None, team=None,
                     reshaper=None):
        ctx = super().make_context(spec, services, rankctx=rankctx,
                                   team=team, reshaper=reshaper)
        ctx.steer = SteerClient(self.steer_block)
        return ctx

    def place_fields(self, ctx, instance, comm, launch_id: str):
        names = None
        if ctx.rank == 0:
            specs = []
            for f in sorted(ctx.partitioned):
                arr = getattr(instance, f, None)
                if isinstance(arr, np.ndarray):
                    specs.append((f, arr.shape, arr.dtype))
            # rank 0 alone knows the field shapes (it builds the
            # instance first), so the arena lease is its RPC to make.
            names = ctx.store.lease_fields(specs)
        return place_shared_fields(ctx, instance, comm, launch_id,
                                   names_of=names)

    def classify_unwind_report(self, exc: BaseException):
        if isinstance(exc, JobCancelled):
            return CANCELLED, exc.count
        return super().classify_unwind_report(exc)


@dataclass
class _WorkerBoot:
    """One worker's share of the fleet plumbing (Process ctor args —
    channels cross a process start only as its arguments)."""

    fleet_id: str
    wid: int
    control: Channel
    lanes: list          # lanes[lane][rank] -> channel
    inboxes: list        # lanes' parent inbox channels
    fences: list         # lanes' rank barriers
    funnel: object       # this worker's funnel pipe end


def _worker_main(boot: _WorkerBoot) -> None:
    """A fleet worker's life: park on control, serve a rank, repeat.

    ``activate`` runs rank ``msg["rank"]`` of the envelope's job;
    ``park`` blocks on the job's lane channel instead, waiting for the
    un-park message a growing membership's rank 0 posts (the elastic
    joiner path, with the fleet standing in for the pre-forked surplus).
    Either way the segment runs with ``repark=False``: a retiring rank
    returns here — to the *fleet's* pool — rather than parking inside
    the job.
    """
    plane = shm.DataPlane(shm.BufferPool(boot.fleet_id, boot.wid))
    try:
        while True:
            msg = wait_for_control(boot.control)
            kind = msg.get("kind")
            if kind == "stop":
                return
            if kind not in ("activate", "park"):
                continue
            env: WorkerEnv = msg["env"]
            inbox = boot.inboxes[env.lane]
            how = "error"
            try:
                # the envelope crossed the control channel; the channels
                # it runs over are this worker's own, held since its fork.
                wiring = RankWiring(boot.lanes[env.lane], inbox,
                                    boot.funnel, boot.fences[env.lane])
                how = rank_main(msg["rank"], env, wiring, plane=plane,
                                repark=False, parked=(kind == "park"))
            except BaseException:  # noqa: BLE001 - the worker survives;
                how = "error"      # with no report, its rank reads dead
            finally:
                # behind the report on the same channel: the collector
                # reads the report first.
                inbox.put(("idle", boot.wid, env.job, how))
    finally:
        plane.close()


class WorkerFleet:
    """Parent side: the pool of warm workers and its lease bookkeeping.

    ``workers`` processes serve up to ``lanes`` concurrent jobs; a job
    of ``n`` ranks leases ``n`` workers and a lane.  Thread-safe — the
    scheduler and the per-job service threads touch the lease state
    under one condition variable.
    """

    proc_prefix = "fleet-w"

    def __init__(self, workers: int = 4, lanes: int = 1,
                 start_method: str | None = None) -> None:
        self.workers = workers
        self.lanes = lanes
        self.start_method = start_method or preferred_start_method()
        self.fleet_id = shm.new_launch_id("fleet")
        self.mpctx = mp.get_context(self.start_method)
        self.control = [Channel(self.mpctx) for _ in range(workers)]
        self.data = [[Channel(self.mpctx) for _ in range(workers)]
                     for _ in range(lanes)]
        self.inboxes = [Channel(self.mpctx) for _ in range(lanes)]
        self.fences = [Fence(workers, self.mpctx) for _ in range(lanes)]
        self.arena = SegmentArena(self.fleet_id)
        self.funnel = CheckpointFunnel(arena=self.arena)
        self.steer = [SteerBlock(steer_name(self.fleet_id, lane))
                      for lane in range(lanes)]
        self.procs: list = [None] * workers
        #: set on every change a scheduler acts on: a worker back in
        #: the pool, or (set by a job's backend) a membership launched
        #: or reshaped.
        self.changed = threading.Event()
        self._cv = threading.Condition()
        self._idle: set[int] = set()
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "WorkerFleet":
        if self._started:
            return self
        for w in range(self.workers):
            self._spawn(w)
        self.funnel.start()
        with self._cv:
            self._idle = set(range(self.workers))
        self._started = True
        return self

    def _spawn(self, wid: int) -> None:
        link = self.funnel.pipe()
        boot = _WorkerBoot(
            fleet_id=self.fleet_id, wid=wid, control=self.control[wid],
            lanes=self.data, inboxes=self.inboxes, fences=self.fences,
            funnel=link)
        p = self.mpctx.Process(target=_worker_main, args=(boot,),
                               daemon=True,
                               name=f"{self.proc_prefix}{wid}")
        self.procs[wid] = p
        p.start()
        link.close()  # the worker holds its end now

    # ------------------------------------------------------------------
    def idle_count(self) -> int:
        with self._cv:
            return len(self._idle)

    def lease(self, n: int, timeout: float = 30.0) -> list[int] | None:
        """Claim ``n`` idle workers (None if the fleet cannot supply them
        within ``timeout``)."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while len(self._idle) < n:
                left = deadline - time.monotonic()
                if left <= 0:
                    return None
                self._cv.wait(left)
            wids = sorted(self._idle)[:n]
            self._idle.difference_update(wids)
            return wids

    def release(self, wid: int) -> None:
        """Return a leased worker to the pool (its job read its
        ``"idle"``, or it was respawned)."""
        with self._cv:
            self._idle.add(wid)
            self._cv.notify_all()
        self.changed.set()

    def activate(self, wid: int, env: WorkerEnv, rank: int,
                 park: bool = False) -> None:
        """Hand a leased worker rank ``rank`` of the envelope's job.
        With ``park`` it first waits on the job's lane channel: it
        consumes the un-park message a growing membership posts there
        and joins via entry replay."""
        self.control[wid].put({"kind": "park" if park else "activate",
                               "env": env.for_rank(rank), "rank": rank})

    def respawn(self, wid: int) -> None:
        """Replace a leased worker that died or never came back, and
        return the replacement to the pool.

        The replacement gets a fresh control channel (the old one may
        hold a stale directive) and re-creates the worker's slab ring,
        so the old one's fleet-scoped names are unlinked first.
        """
        p = self.procs[wid]
        if p.is_alive():
            p.terminate()
        p.join(timeout=5.0)
        try:
            p.close()
        except ValueError:
            pass
        for s in range(shm.POOL_SLOTS):
            shm.unlink_by_name(shm.pool_slab_name(self.fleet_id, wid, s))
        old, self.control[wid] = self.control[wid], Channel(self.mpctx)
        old.cancel_join_thread()
        old.close()
        self._spawn(wid)
        self.release(wid)

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Drain the fleet: stop workers, funnel, channels; unlink every
        fleet-scoped shared-memory name."""
        if not self._started:
            return
        for w in range(self.workers):
            try:
                self.control[w].put({"kind": "stop"})
            except (OSError, ValueError):
                pass
        for p in self.procs:
            if p is not None and p.pid is not None:
                p.join(timeout=10.0)
        for p in self.procs:
            if p is not None and p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for p in self.procs:
            if p is not None:
                try:
                    p.close()
                except ValueError:
                    pass
        self.funnel.stop()
        flat = (self.control + [q for lane in self.data for q in lane]
                + self.inboxes)
        drain_queues(flat, close=True)
        for blk in self.steer:
            blk.close()
            blk.unlink()
        self.arena.unlink_all()
        shm.unlink_pool(self.fleet_id, self.workers)
        self._started = False

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()
