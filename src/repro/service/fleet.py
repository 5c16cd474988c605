"""The warm worker fleet: pre-forked rank processes, reused across jobs.

One fork per worker for the *fleet's* lifetime, not one per rank per
job.  Between jobs a worker blocks on its control channel — the same
park the elastic membership protocol uses for surplus ranks — and a job
activation is a control message, not a fork: the worker receives the
job's :class:`~repro.exec.worker.WorkerEnv` (the same envelope a cold
launch hands its forks), wires it to the fleet's queues, and runs
:func:`repro.exec.worker.rank_main` exactly as a cold launch would.
Everything expensive is process-scoped and survives jobs:

* the worker's :class:`~repro.dsm.shm.BufferPool` slab ring and
  :class:`~repro.dsm.shm.DataPlane` (fleet-scoped names) — collective
  payloads and packed snapshots of *every* job ride the same slabs;
* the mailbox fabrics: each of the fleet's ``lanes`` (concurrent job
  slots) owns a fleet-wide fabric of rank
  :class:`~repro.dsm.procmail.Channel` objects plus result/notify
  queues, created once and drained between jobs;
* the checkpoint funnel: one serving thread for all jobs
  (a :class:`~repro.ckpt.funnel.CheckpointFunnel` with the fleet's
  segment arena), one pipe link per worker, routing each write to the
  owning job's namespaced store.

Per-job state is narrow by construction: a launch id (the
observability planes), a steer block serial, and the job's
envelope itself.  Workers report back on a fleet-wide event queue
(``("joined", ...)`` on envelope pickup, ``("idle", ...)`` on return),
which is what the fleet's lease/await bookkeeping runs on.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.ckpt.funnel import CheckpointFunnel
from repro.dsm import shm
from repro.dsm.procmail import Channel
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
    queues and channels are picklable there, unlike through queues)."""

    fleet_id: str
    wid: int
    control: object
    lanes: list          # lanes[lane][rank] -> channel
    results: list        # lanes' result queues
    notifies: list       # lanes' notify queues
    events: object       # fleet-wide worker lifecycle events
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
            rank: int = msg["rank"]
            boot.events.put(("joined", boot.wid, env.job, rank))
            how = "error"
            try:
                # the envelope crossed the control queue; the queues it
                # runs over are this worker's own, held since its fork.
                wiring = RankWiring(
                    boot.lanes[env.lane], boot.results[env.lane],
                    boot.notifies[env.lane], boot.funnel)
                how = rank_main(rank, env, wiring, plane=plane,
                                repark=False, parked=(kind == "park"))
            except BaseException:  # noqa: BLE001 - the worker survives;
                how = "error"      # the parent times the rank out
            finally:
                boot.events.put(("idle", boot.wid, env.job, how))
    finally:
        plane.close()


class WorkerFleet:
    """Parent side: the pool of warm workers and its lease bookkeeping.

    ``workers`` processes serve up to ``lanes`` concurrent jobs; a job
    of ``n`` ranks leases ``n`` workers and a lane.  Thread-safe — the
    scheduler, per-job service threads and the event pump all touch the
    lease state under one condition variable.
    """

    proc_prefix = "fleet-w"

    def __init__(self, workers: int = 4, lanes: int = 1,
                 start_method: str | None = None) -> None:
        self.workers = workers
        self.lanes = lanes
        self.start_method = start_method or preferred_start_method()
        self.fleet_id = shm.new_launch_id("fleet")
        self.mpctx = mp.get_context(self.start_method)
        self.control = [self.mpctx.Queue() for _ in range(workers)]
        self.data = [[Channel(self.mpctx) for _ in range(workers)]
                     for _ in range(lanes)]
        self.results = [self.mpctx.Queue() for _ in range(lanes)]
        self.notifies = [self.mpctx.Queue() for _ in range(lanes)]
        self.events = self.mpctx.Queue()
        self.arena = SegmentArena(self.fleet_id)
        self.funnel = CheckpointFunnel(arena=self.arena)
        self.steer = [SteerBlock(steer_name(self.fleet_id, lane))
                      for lane in range(lanes)]
        self.procs: list = [None] * workers
        self._cv = threading.Condition()
        self._idle: set[int] = set()
        self._busy: dict[int, str] = {}
        self._pump_thread: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> "WorkerFleet":
        if self._started:
            return self
        for w in range(self.workers):
            self._spawn(w)
        self.funnel.start()
        self._pump_thread = threading.Thread(target=self._pump, daemon=True,
                                             name="fleet-events")
        self._pump_thread.start()
        with self._cv:
            self._idle = set(range(self.workers))
        self._started = True
        return self

    def _spawn(self, wid: int) -> None:
        link = self.funnel.pipe()
        boot = _WorkerBoot(
            fleet_id=self.fleet_id, wid=wid, control=self.control[wid],
            lanes=self.data, results=self.results, notifies=self.notifies,
            events=self.events, funnel=link)
        p = self.mpctx.Process(target=_worker_main, args=(boot,),
                               daemon=True,
                               name=f"{self.proc_prefix}{wid}")
        self.procs[wid] = p
        p.start()
        link.close()  # the worker holds its end now

    def _pump(self) -> None:
        while True:
            try:
                ev = self.events.get()  # shutdown() posts the "stop"
            except (OSError, ValueError):
                return
            if ev[0] == "stop":
                return
            if ev[0] == "idle":
                with self._cv:
                    self._busy.pop(ev[1], None)
                    self._idle.add(ev[1])
                    self._cv.notify_all()

    # ------------------------------------------------------------------
    def idle_count(self) -> int:
        with self._cv:
            return len(self._idle)

    def job_of(self, wid: int) -> str | None:
        with self._cv:
            return self._busy.get(wid)

    def lease(self, n: int, job: str, timeout: float = 30.0
              ) -> list[int] | None:
        """Claim ``n`` idle workers for ``job`` (None if the fleet cannot
        supply them within ``timeout``)."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while len(self._idle) < n:
                left = deadline - time.monotonic()
                if left <= 0:
                    return None
                self._cv.wait(left)
            wids = sorted(self._idle)[:n]
            for w in wids:
                self._idle.discard(w)
                self._busy[w] = job
            return wids

    def activate(self, wid: int, env: WorkerEnv, rank: int,
                 park: bool = False) -> None:
        """Hand a leased worker rank ``rank`` of the envelope's job.
        With ``park`` it first waits on the job's lane channel: it
        consumes the un-park message a growing membership posts there
        and joins via entry replay."""
        self.control[wid].put({"kind": "park" if park else "activate",
                               "env": env.for_rank(rank), "rank": rank})

    def await_idle(self, wids: set[int], timeout: float,
                   drain=None) -> list[int]:
        """Wait until every worker in ``wids`` is back in the pool;
        returns the stragglers.  ``drain`` (optional callable) runs each
        poll round to keep lane pipes moving while workers flush."""
        deadline = time.monotonic() + timeout
        while True:
            if drain is not None:
                drain()
            with self._cv:
                missing = [w for w in wids if w not in self._idle]
                if not missing:
                    return []
                left = deadline - time.monotonic()
                if left <= 0:
                    return missing
                self._cv.wait(min(left, 0.2))

    def respawn(self, wid: int) -> None:
        """Replace a wedged worker (terminated mid-job or unresponsive).

        The replacement re-creates the worker's slab ring, so the old
        one's fleet-scoped names are unlinked first.
        """
        p = self.procs[wid]
        if p is not None:
            if p.is_alive():
                p.terminate()
            p.join(timeout=5.0)
            try:
                p.close()
            except ValueError:
                pass
        for s in range(shm.POOL_SLOTS):
            shm.unlink_by_name(shm.pool_slab_name(self.fleet_id, wid, s))
        drain_queues([self.control[wid]])
        self._spawn(wid)
        with self._cv:
            self._busy.pop(wid, None)
            self._idle.add(wid)
            self._cv.notify_all()

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Drain the fleet: stop workers, funnel, queues; unlink every
        fleet-scoped shared-memory name."""
        if not self._started:
            return
        self.events.put(("stop",))
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
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=5.0)
        flat = (self.control + [q for lane in self.data for q in lane]
                + self.results + self.notifies + [self.events])
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
