"""The seven workloads: what one *op* is, and how it is checked.

Each workload stresses a different layer, so that an optimisation has
one workload that exercises its mechanism and others that bypass it
(prediction there: no change); each class says which.  Sizes are fixed;
only the number of ops a run completes depends on ``--seconds``.

An op times exactly the call(s) a user would wait for and nothing else:
directories are made and removed, values compared and bytes counted
outside the timed region.  ``op`` returns ``(seconds, disk_bytes)`` and
raises when the op failed any of its checks.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time

import adapters as api
from spans import span

#: a service client gives up on one job after this long (an op that
#: hangs is a failed op, not a stuck benchmark).
OP_DEADLINE_S = 60.0


class OpFailed(Exception):
    """An op completed but one of its correctness checks did not hold."""


class Workload:
    name = ""
    #: closed-loop clients; each has one op outstanding at a time.
    clients = 1
    #: set by ``teardown`` when bytes can only be counted once, at the
    #: end, over every op attempted
    disk_bytes_total: int | None = None

    def setup(self, seed: int, tmp: str) -> None:
        raise NotImplementedError

    def op(self, i: int) -> tuple[float, int]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


def _no_leak() -> None:
    leaked = api.leaked_segments()
    if leaked:
        raise OpFailed(f"left shared-memory segments behind: {leaked}")


class RunWorkload(Workload):
    """One ``Runtime.run`` of woven SOR in a fresh checkpoint directory."""

    size: dict = {}
    backend = ("multiproc", 2)
    knobs: dict = {}
    #: a directory every op runs in (prepared state); None = a fresh one each
    kept_dir: str | None = None

    def setup(self, seed: int, tmp: str) -> None:
        self.tmp = tmp
        self.kwargs = dict(self.size, seed=seed)
        self.woven = api.weave("sor")
        self.cfg = api.config(*self.backend)
        self.reference = api.plain("sor", self.kwargs)

    def op(self, i: int) -> tuple[float, int]:
        ckpt_dir = self.kept_dir or tempfile.mkdtemp(dir=self.tmp)
        try:
            t0 = time.perf_counter()
            with span("op"):
                res, rt = api.run_app(self.woven, self.kwargs, self.cfg,
                                      ckpt_dir, **self.knobs)
            seconds = time.perf_counter() - t0
            self.check(res, rt)
            return seconds, api.disk_bytes(ckpt_dir)
        finally:
            if not self.kept_dir:
                shutil.rmtree(ckpt_dir, ignore_errors=True)

    def check(self, res, rt) -> None:
        if res.value != self.reference:
            raise OpFailed(f"value {res.value!r} is not the plain "
                           f"reference {self.reference!r}")
        _no_leak()


class ComputeBound(RunWorkload):
    """Time to solution where the apps kernels dominate and ckpt, elastic
    and service do nothing: the control on which their optimisations
    must show no change.
    """

    name = "compute_bound"
    size = {"n": 2048, "iterations": 30}


class SyncBound(RunWorkload):
    """Small grid, many iterations: the per-iteration safe-point protocol,
    barriers and mailbox waits dominate, so dsm/core wake-up work and
    telemetry overhead show here.
    """

    name = "sync_bound"
    size = {"n": 256, "iterations": 300}


class CkptWrite(RunWorkload):
    """The paper's Figure 3/4 path: ten 8.4 MB collections through capture,
    funnel and the default store's write.
    """

    name = "ckpt_write"
    size = {"n": 1024, "iterations": 20}
    knobs = {"every": 2}


class CkptCasWrite(RunWorkload):
    """The dedup store's write path on per-rank shards: chunk, hash,
    presence handshake, durable put per chunk; disk bytes guard the
    saving while speed is worked on.
    """

    name = "ckpt_cas_write"
    size = {"n": 384, "iterations": 8}
    knobs = {"every": 2, "store": "cas", "local_shards": True}

    def check(self, res, rt) -> None:
        super().check(res, rt)
        orphans = api.cas_unreferenced(rt)
        if orphans:
            raise OpFailed(f"{len(orphans)} chunks no recipe references")


class CkptRecover(RunWorkload):
    """Reads beside writes: pcr check, shard reassembly, chunk fetch and
    verify, replay, in another mode than the one that crashed, so a
    write-side gain that costs restores shows.
    """

    name = "ckpt_recover"
    size = {"n": 1024, "iterations": 20}
    knobs = {"store": "cas", "local_shards": True, "resume": True}
    CKPT_AT, FAIL_AT = 18, 19

    def setup(self, seed: int, tmp: str) -> None:
        super().setup(seed, tmp)
        self.kept_dir = tempfile.mkdtemp(dir=tmp)
        api.crash_run(self.woven, self.kwargs, self.cfg, self.kept_dir,
                      at=[self.CKPT_AT], fail_at=self.FAIL_AT, store="cas",
                      local_shards=True)
        self.cfg = api.config("threads", 2)

    def check(self, res, rt) -> None:
        super().check(res, rt)
        restored = api.restore_counts(res)
        if restored != [self.CKPT_AT]:
            raise OpFailed(f"restore events at {restored}, expected "
                           f"exactly one at {self.CKPT_AT}")

class AdaptChain(RunWorkload):
    """Run-time adaptation by both mechanisms: three cross-mode relaunches
    (launch and teardown) and four in-place membership changes
    (elastic).
    """

    name = "adapt_chain"
    size = {"n": 512, "iterations": 40}
    backend = ("sequential", 1)
    knobs = {"steps": [(5, "threads", 2), (10, "multiproc", 2),
                       (15, "multiproc", 4), (20, "multiproc", 2),
                       (25, "multiproc", 3), (30, "multiproc", 2),
                       (35, "threads", 2)]}

    def check(self, res, rt) -> None:
        super().check(res, rt)
        got = (res.relaunches, len(res.in_place_reshapes))
        if got != (3, 4):
            raise OpFailed(f"(relaunches, in-place reshapes) = {got}, "
                           "expected (3, 4)")


class ServiceJobs(Workload):
    """Short jobs through the daemon: queue, scheduler, fleet activation
    and result delivery with negligible compute; the only workload with
    contention (2 clients, 2 lanes, 4 workers).
    """

    name = "service_jobs"
    clients = 2
    JOBS = {"sor": {"n": 32, "iterations": 4},
            "moldyn": {"n": 24, "steps": 3}}

    def setup(self, seed: int, tmp: str) -> None:
        self.ckpt_dir = tempfile.mkdtemp(dir=tmp)
        self.jobs = {app: (api.weave(app), dict(kw, seed=seed))
                     for app, kw in self.JOBS.items()}
        self.reference = {app: api.plain(app, kw)
                          for app, (_, kw) in self.jobs.items()}
        # 2/3 SOR, 1/3 MolDyn, in an order the seed picks
        self.mix = ["sor", "sor", "moldyn"] * 100
        random.Random(seed).shuffle(self.mix)
        self.svc = api.service(self.ckpt_dir).start()
        self.client = api.client(self.svc)

    def op(self, i: int) -> tuple[float, int]:
        app = self.mix[i % len(self.mix)]
        woven, kwargs = self.jobs[app]
        t0 = time.perf_counter()
        with span("op"):
            job = api.submit(self.client, woven, kwargs)
            out = api.result(self.client, job, OP_DEADLINE_S)
        seconds = time.perf_counter() - t0
        if out["status"] != "done":
            raise OpFailed(f"job {job} ended {out['status']!r}: "
                           f"{out.get('error')}")
        if out["value"] != self.reference[app]:
            raise OpFailed(f"{app} job value {out['value']!r} is not the "
                           f"plain reference {self.reference[app]!r}")
        return seconds, 0

    def teardown(self) -> None:
        self.svc.stop()
        self.disk_bytes_total = api.disk_bytes(self.ckpt_dir)
        shutil.rmtree(self.ckpt_dir, ignore_errors=True)
        _no_leak()


WORKLOADS = {w.name: w for w in (
    ComputeBound, SyncBound, CkptWrite, CkptCasWrite, CkptRecover,
    AdaptChain, ServiceJobs)}
