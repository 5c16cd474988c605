"""The runtime service daemon: one warm world, many jobs.

``RuntimeService`` owns the long-lived pieces — the pre-forked
:class:`~repro.service.fleet.WorkerFleet`, the master
:class:`~repro.ckpt.store.CheckpointStore` whose per-job namespaces
isolate checkpoint files, the
:class:`~repro.service.scheduler.JobQueue`, and a loopback front door:
one :class:`~repro.dsm.links.LinkLoop` thread serving the RPC port and
the HTTP metrics port for every client, a waiting ``result`` call
parked in it.  Each admitted job runs a
full :class:`~repro.core.runtime.Runtime` pass on a service thread —
pcr start-up check, phase driver, restarts and adaptations included —
against a per-job :class:`~repro.service.backend.FleetBackend`, so a
job through the service is *semantically* a normal run whose world
already exists.

The scheduler thread admits queued jobs to free lanes, sizes each to
its fair share of the fleet, and steers running jobs: a shrink when a
higher-priority job waits on a full fleet (the smallest candidate
first: its in-place shrink is the cheapest membership transition), a
grow back when the queue drains and workers idle.
"""

from __future__ import annotations

import tempfile
import threading
import time
import traceback

from repro.ckpt.policy import Never
from repro.ckpt.store import CheckpointStore, RunLedger
from repro.core.modes import ExecConfig, Mode
from repro.core.rewriter import plug
from repro.core.runtime import Runtime
from repro.dsm.links import LinkLoop
from repro.exec.registry import BackendRegistry
from repro.service.backend import FleetBackend
from repro.service.fleet import WorkerFleet
from repro.service.scheduler import JobQueue, QueueFull
from repro.service.steer import JobCancelled
from repro.telemetry import CONTENT_TYPE, MetricsRegistry
from repro.vtime.machine import MachineModel


class RuntimeService:
    """The daemon: fleet + queue + scheduler + socket front door."""

    def __init__(self, workers: int = 4, lanes: int = 2,
                 ckpt_dir: str | None = None,
                 machine: MachineModel | None = None,
                 policy=None, max_queue: int = 256,
                 join_timeout: float = 120.0,
                 host: str = "127.0.0.1",
                 ckpt_cas: bool = False) -> None:
        if lanes < 1 or workers < 1:
            raise ValueError("need at least one worker and one lane")
        self.fleet = WorkerFleet(workers=workers, lanes=lanes)
        self.machine = machine if machine is not None else MachineModel()
        self.policy = policy if policy is not None else Never()
        self.ckpt_dir = ckpt_dir or tempfile.mkdtemp(prefix="repro-svc-")
        #: with ``ckpt_cas`` every job namespace shares one dedup CAS —
        #: a job checkpointing state another job already wrote stores
        #: only a recipe; namespace teardown GCs what no job references.
        self.ckpt_cas = ckpt_cas
        if ckpt_cas:
            from repro.ckpt.cas import CasCheckpointStore

            self.store: CheckpointStore = CasCheckpointStore(self.ckpt_dir)
        else:
            self.store = CheckpointStore(self.ckpt_dir)
        self.queue = JobQueue(max_queue)
        self.join_timeout = join_timeout
        self._host = host
        self._lock = threading.Lock()
        self._lanes_free = set(range(lanes))
        self._running: dict[int, object] = {}   # job id -> Job
        self._threads: list[threading.Thread] = []
        #: set by submit, cancel, job end and stop, and by the fleet: a
        #: worker back in the pool, a job's launch or reshape note.
        self._sched_wake = self.fleet.changed
        self._stopping = threading.Event()
        #: the front door: the RPC port and the metrics port.
        self._front = LinkLoop("svc-front")
        self.address: tuple[str, int] | None = None
        self._started = False
        # the service-wide metrics registry: every finished job's
        # snapshot is folded in under a ``job=<tag>`` label, and the
        # fleet/arena occupancies surface as callback gauges — the one
        # surface behind the ``stats`` RPC and the scrape endpoint.
        self.metrics = MetricsRegistry()
        self.metrics.gauge_set(
            "repro_service_workers_total", float(workers),
            help="Fleet worker processes")
        self.metrics.gauge_set(
            "repro_service_lanes_total", float(lanes),
            help="Concurrent job lanes")
        self.metrics.gauge_fn(
            "repro_service_workers_idle",
            lambda: float(self.fleet.idle_count()),
            help="Fleet workers parked in the pool")
        self.metrics.gauge_fn(
            "repro_service_jobs_queued",
            lambda: float(self.queue.depth()),
            help="Jobs waiting for a lane")
        self.metrics.gauge_fn(
            "repro_service_jobs_running",
            lambda: float(len(self._running)),
            help="Jobs currently holding a lane")
        arena = self.fleet.arena
        self.metrics.gauge_fn(
            "repro_arena_segments_total",
            lambda: float(arena.stats()["segments"]),
            help="Shared segments the arena ever allocated")
        self.metrics.gauge_fn(
            "repro_arena_segments_free",
            lambda: float(arena.stats()["free"]),
            help="Arena segments on the free lists")
        self.metrics.gauge_fn(
            "repro_arena_segments_leased",
            lambda: float(arena.stats()["leased"]),
            help="Arena segments leased to running jobs")
        self.metrics_address: tuple[str, int] | None = None

    # ------------------------------------------------------------------
    def start(self) -> "RuntimeService":
        if self._started:
            return self
        self.fleet.start()
        t = threading.Thread(target=self._scheduler, daemon=True,
                             name="svc-sched")
        t.start()
        self._threads.append(t)
        self.address = self._front.bind(self._host, self._dispatch)
        self._front.start()
        self._started = True
        return self

    # ------------------------------------------------------------------
    def serve_metrics(self, host: str | None = None
                      ) -> tuple[str, int]:
        """Expose the registry over plain HTTP for curl-style scraping.

        Binds a loopback socket (ephemeral port) and answers every GET
        with the Prometheus text exposition of :attr:`metrics` — enough
        protocol for ``curl`` and a Prometheus scrape target, with no
        server framework.  Idempotent; returns ``(host, port)``.
        """
        if self.metrics_address is None:
            self.metrics_address = self._front.bind(
                host or self._host, self._serve_metrics, http=True)
        return self.metrics_address

    def _serve_metrics(self, _link, _head: bytes) -> bytes:
        # the request path is irrelevant: there is one resource to serve.
        body = self.metrics.to_prometheus().encode("utf-8")
        return (b"HTTP/1.0 200 OK\r\n"
                b"Content-Type: " + CONTENT_TYPE.encode() + b"\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body)

    def stop(self) -> None:
        if not self._started:
            return
        self._stopping.set()
        self._sched_wake.set()
        # cancel whatever is still waiting, steer whatever is running.
        while True:
            job = self.queue.peek()
            if job is None:
                break
            self.queue.cancel_waiting(job.id)
        with self._lock:
            running = list(self._running.values())
        for job in running:
            if job.lane is not None:
                self.fleet.steer[job.lane].cancel()
        for job in running:
            job.done.wait(timeout=self.join_timeout)
        for t in self._threads:
            t.join(timeout=5.0)
        self._front.stop(5.0)  # after the job threads' last wake
        self.fleet.shutdown()
        self._started = False

    def __enter__(self) -> "RuntimeService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _fair_share(self, parties: int) -> int:
        return max(1, self.fleet.workers // max(1, parties))

    def _scheduler(self) -> None:
        while not self._stopping.is_set():
            self._sched_wake.wait()
            self._sched_wake.clear()
            if self._stopping.is_set():
                return
            try:
                self._schedule_once()
            except Exception:  # noqa: BLE001 - scheduler must survive
                traceback.print_exc()

    def _schedule_once(self) -> None:
        # 1. admit: queued jobs onto free lanes, sized to fair share.
        while True:
            job = self.queue.peek()
            if job is None:
                break
            with self._lock:
                if not self._lanes_free:
                    break
                parties = len(self._running) + 1
            share = self._fair_share(parties)
            want = job.clamp(min(job.nranks, max(job.min_ranks, share)))
            if self.fleet.idle_count() < want:
                self._make_room(job, want)
                break
            taken = self.queue.take(job.id)
            if taken is None:
                continue  # cancelled between peek and take
            with self._lock:
                lane = min(self._lanes_free)
                self._lanes_free.discard(lane)
                self._running[taken.id] = taken
            taken.lane = lane
            # arm the lane's steer block *before* the job is visibly
            # running: a cancel that races the launch must land on a
            # reset block, not be wiped by one.
            self.fleet.steer[lane].reset()
            taken.status = "running"
            t = threading.Thread(target=self._run_job, args=(taken, want),
                                 daemon=True, name=f"svc-{taken.tag}")
            t.start()
            self._threads.append(t)
        # 2. relax: queue empty and workers idle -> grow shrunken jobs.
        if self.queue.depth() == 0:
            self._grow_back()

    def _make_room(self, waiting, want: int) -> None:
        """Shrink a running job in place to free workers for ``waiting``.

        Candidates: running jobs at least as low-priority as the waiter
        whose declared ``min_ranks`` leaves headroom; the smallest is
        shrunk (ties to the older job).  That is the advisor's order
        too: a same-backend in-place shrink is priced two barriers of
        the current membership, and the barrier cost rises strictly
        with the rank count.
        """
        with self._lock:
            running = list(self._running.values())
        candidates = []
        for job in running:
            b = job.backend
            if b is None or job.priority > waiting.priority:
                continue
            cur = b.current_nranks
            target = job.clamp(self._fair_share(len(running) + 1))
            if target >= cur:
                continue
            blk = self.fleet.steer[job.lane]
            if not blk.acked() or job.resize_target == target:
                continue  # one outstanding resize per job
            candidates.append((cur, job.id, job, target))
        if not candidates:
            return
        _, _, job, target = min(candidates)
        job.resize_target = target
        self.fleet.steer[job.lane].resize(target)

    def _grow_back(self) -> None:
        with self._lock:
            running = list(self._running.values())
        if not running:
            return
        share = self._fair_share(len(running))
        for job in running:
            b = job.backend
            if b is None:
                continue
            cur = b.current_nranks
            target = job.clamp(min(share, cur + self.fleet.idle_count()))
            if target <= cur:
                continue
            blk = self.fleet.steer[job.lane]
            if not blk.acked() or job.resize_target == target:
                continue
            job.resize_target = target
            blk.resize(target)

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _run_job(self, job, nranks: int) -> None:
        req = job.request
        job.started_at = time.monotonic()
        try:
            store = self.store.namespace(str(job.id))
            ledger = RunLedger(self.ckpt_dir,
                               name=f"run_status_{job.tag}.json")
            backend = FleetBackend(self.fleet, job.tag, job.lane,
                                   join_timeout=self.join_timeout)
            job.backend = backend
            registry = BackendRegistry()
            registry.register(backend, mode=Mode.DISTRIBUTED)
            woven = req["woven"]
            if req.get("plugs") is not None:
                woven = plug(woven, req["plugs"])
            config = ExecConfig.distributed(nranks).with_backend("fleet")
            rt = Runtime(machine=self.machine, ckpt_dir=self.ckpt_dir,
                         policy=req.get("policy") or self.policy,
                         ckpt_strategy=req.get("ckpt_strategy", "master"),
                         store=store, ledger=ledger, registry=registry,
                         telemetry=req.get("telemetry", True),
                         trace=req.get("trace", False))
            res = rt.run(woven,
                         ctor_args=tuple(req.get("ctor_args", ())),
                         ctor_kwargs=req.get("ctor_kwargs") or {},
                         entry=req.get("entry", "run"),
                         entry_args=tuple(req.get("entry_args", ())),
                         config=config)
            job.result = {"value": res.value, "vtime": res.vtime,
                          "relaunches": res.relaunches,
                          "reshapes": len(res.in_place_reshapes),
                          "metrics": res.metrics,
                          "trace": res.trace}
            if res.metrics is not None:
                # fold the job's run into the service-wide registry,
                # labelled so multi-job aggregates stay attributable.
                self.metrics.absorb_snapshot(
                    res.metrics, extra_labels={"job": job.tag})
            job.status = "done"
        except JobCancelled:
            job.status = "cancelled"
        except BaseException:  # noqa: BLE001 - job error, not service error
            job.error = traceback.format_exc()
            job.status = "error"
        finally:
            if self.ckpt_cas:
                # job-namespace teardown: drop the job's recipes and
                # sweep every chunk no surviving job references.  The
                # job's funnel traffic has drained (rt.run returned and
                # the backend unregistered its store), so nothing can
                # re-reference the swept chunks.
                try:
                    self.store.namespace(str(job.id)).clear()
                except Exception:  # noqa: BLE001 - job teardown is
                    pass           # best-effort; the next GC catches up
            self.store.drop_namespace(str(job.id))
            job.finished_at = time.monotonic()
            with self._lock:
                self._running.pop(job.id, None)
                self._lanes_free.add(job.lane)
            job.done.set()
            self._sched_wake.set()
            self._front.wake()  # answer the result calls parked on it

    # ------------------------------------------------------------------
    # the socket front door
    # ------------------------------------------------------------------
    def _dispatch(self, link, req: dict) -> dict | None:
        """Answer one RPC (None: the link is parked); errors travel
        back to the client in the reply."""
        try:
            op = req.get("op")
            if op == "submit":
                return self._op_submit(req)
            if op == "stats":
                # one registry snapshot, the wire shape of
                # RunResult.metrics; fleet, queue and arena occupancy
                # are its repro_service_* / repro_arena_* gauges.
                return {"ok": True, "metrics": self.metrics.snapshot()}
            if op == "shutdown":
                threading.Thread(target=self.stop, daemon=True,
                                 name="svc-stop").start()
                return {"ok": True}
            if op not in ("status", "result", "cancel", "trace"):
                return {"ok": False, "error": f"unknown op {op!r}"}
            job = self.queue.get(int(req["job"]))
            if job is None:
                return {"ok": False, "error": "no such job"}
            if op == "cancel":
                return self._op_cancel(job)
            if op == "trace":
                return self._op_trace(job)
            if op == "status":
                return self._view(job)
            # park the link: the loop replies once the job is done (its
            # _run_job wakes the loop) or the wait runs out.
            self._front.hold(job.done.is_set, lambda: self._view(job),
                             time.monotonic() + (req.get("wait") or 0), link)
            return None
        except Exception:  # noqa: BLE001 - protocol errors go to the client
            return {"ok": False, "error": traceback.format_exc()}

    @staticmethod
    def _view(job) -> dict:
        """The ``status`` / ``result`` reply."""
        return {**job.snapshot(), "ok": True, "ready": job.done.is_set()}

    def _op_submit(self, req: dict) -> dict:
        try:
            job = self.queue.submit(req["request"],
                                    priority=int(req.get("priority", 0)))
        except QueueFull as exc:
            return {"ok": False, "error": str(exc), "full": True}
        self._sched_wake.set()
        return {"ok": True, "job": job.id}

    def _op_cancel(self, job) -> dict:
        if self.queue.cancel_waiting(job.id):
            self._sched_wake.set()
            return {"ok": True, "was": "queued"}
        if job.status == "running" and job.lane is not None:
            self.fleet.steer[job.lane].cancel()
            return {"ok": True, "was": "running"}
        return {"ok": True, "was": job.status}

    @staticmethod
    def _op_trace(job) -> dict:
        """A finished job's assembled Chrome trace document (submit the
        job with ``trace=True``/``"flight"``)."""
        if not job.done.is_set():
            return {"ok": False, "error": "job still running"}
        doc = (job.result or {}).get("trace")
        if doc is None:
            return {"ok": False,
                    "error": "job ran without tracing (trace=False)"}
        return {"ok": True, "trace": doc}
