"""The persistent runtime service: fleet hygiene, isolation, steering.

What must hold for a warm world to be safe to share:

* **Parity** — a job through the service produces the bit-identical
  value a direct ``Runtime.run`` on the multiprocess backend produces.
* **Hygiene** — consecutive and concurrent jobs recycle pool slabs and
  arena segments instead of growing them; a drained fleet leaves no
  worker processes and no shared-memory segments behind; a cancelled
  job's workers come back idle and serve the next job.
* **Isolation** — two jobs checkpointing the *same field names* land
  distinct bytes in distinct per-job namespaces; two complete worlds
  built by one parent process never alias a segment name.
* **Steering** — a waiting higher-priority job shrinks a running
  elastic job in place (no relaunch) and both finish correct.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt.policy import EveryN
from repro.core import ExecConfig, Runtime, plug
from repro.dsm import shm
from repro.dsm.comm import current_rank
from repro.exec.multiproc import _PEER_GRACE_SECONDS
from repro.service import JobQueue, RuntimeService, ServiceClient
from repro.service.backend import FleetBackend, _RankProcs
from repro.service.scheduler import QueueFull
from repro.telemetry import MetricsRegistry
from repro.vtime import MachineModel

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the service pre-forks its worker fleet")

MACHINE = MachineModel(nodes=2, cores_per_node=4)
WOVEN = plug(SOR, SOR_ADAPTIVE)
N, ITERS = 40, 12
REF = SOR(n=N, iterations=ITERS).execute()
KW = {"n": N, "iterations": ITERS}


def _no_leaks():
    left = shm.live_segments()
    assert left == [], f"leaked segments: {left}"


def _gauge(client, name):
    """One service gauge off the ``stats`` RPC's registry snapshot."""
    reg = MetricsRegistry()
    reg.absorb_snapshot(client.stats()["metrics"])
    return reg.value(name)


def _submit(client, **kw):
    kw.setdefault("ctor_kwargs", KW)
    kw.setdefault("entry", "execute")
    kw.setdefault("nranks", 2)
    return client.submit(WOVEN, **kw)


# ---------------------------------------------------------------------------
# parity + recycling
# ---------------------------------------------------------------------------

def test_single_job_matches_direct_run(tmp_path):
    """Acceptance: service value bit-identical to direct multiproc."""
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "direct")
    direct = rt.run(WOVEN, ctor_kwargs=KW, entry="execute",
                    config=ExecConfig.distributed(2).with_backend(
                        "multiproc"), fresh=True)
    with RuntimeService(workers=3, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        out = client.result(_submit(client), timeout=120.0)
        assert out["status"] == "done", out
        assert out["value"] == direct.value
        assert out["value"] == REF
    _no_leaks()


def test_consecutive_jobs_recycle_not_grow(tmp_path):
    """Jobs 2..n re-lease the same arena segments and pool slabs."""
    with RuntimeService(workers=3, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        out = client.result(_submit(client), timeout=120.0)
        assert out["status"] == "done" and out["value"] == REF
        segments_after_first = len(shm.live_segments())
        arena_after_first = _gauge(client, "repro_arena_segments_total")
        assert arena_after_first > 0
        for _ in range(3):
            out = client.result(_submit(client), timeout=120.0)
            assert out["status"] == "done" and out["value"] == REF
        assert _gauge(client, "repro_arena_segments_total") \
            == arena_after_first
        assert _gauge(client, "repro_arena_segments_leased") == 0
        assert _gauge(client, "repro_service_workers_idle") == 3
        assert len(shm.live_segments()) == segments_after_first
    _no_leaks()


def test_concurrent_jobs_both_lanes(tmp_path):
    """Four queued jobs drain over two lanes; all correct, all clean."""
    with RuntimeService(workers=4, lanes=2, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        ids = [_submit(client) for _ in range(4)]
        for jid in ids:
            out = client.result(jid, timeout=120.0)
            assert out["status"] == "done", out
            assert out["value"] == REF
        assert _gauge(client, "repro_service_workers_idle") == 4
        assert _gauge(client, "repro_arena_segments_leased") == 0
        # fleet still alive: every worker process parked, none dead
        assert all(p.is_alive() for p in svc.fleet.procs)
    left = [p.name for p in mp.active_children()
            if p.name.startswith(svc.fleet.proc_prefix)]
    assert left == [], f"workers survived fleet shutdown: {left}"
    _no_leaks()


# ---------------------------------------------------------------------------
# cancellation
# ---------------------------------------------------------------------------

def test_cancel_returns_workers_to_pool(tmp_path):
    """A cancelled job's workers park again and serve the next job."""
    with RuntimeService(workers=3, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        jid = _submit(client, ctor_kwargs={"n": 64, "iterations": 200000})
        deadline = time.monotonic() + 30.0
        while client.status(jid)["status"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.05)
        time.sleep(0.2)
        assert client.cancel(jid)["was"] == "running"
        out = client.result(jid, timeout=60.0)
        assert out["status"] == "cancelled", out
        # the fleet recovered: same workers run the next job
        out = client.result(_submit(client), timeout=120.0)
        assert out["status"] == "done" and out["value"] == REF
        assert _gauge(client, "repro_service_workers_idle") == 3
    _no_leaks()


def test_cancel_queued_job(tmp_path):
    """Cancelling a job still in the queue never touches the fleet."""
    with RuntimeService(workers=3, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        blocker = _submit(client, ctor_kwargs={"n": 64,
                                               "iterations": 200000})
        queued = _submit(client)
        assert client.cancel(queued)["was"] == "queued"
        assert client.result(queued, timeout=10.0)["status"] == "cancelled"
        client.cancel(blocker)
        client.result(blocker, timeout=60.0)
    _no_leaks()


class DyingSOR(SOR):
    """SOR whose first rank to claim ``marker`` writes its rank there
    and leaves its process at iteration 3 with exit code 3."""

    def __init__(self, marker: str = "", **kw) -> None:
        super().__init__(**kw)
        self.marker = marker

    def end_iteration(self) -> None:
        super().end_iteration()
        rc = current_rank()
        if rc is None or self.iterations_done != 3:
            return
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.write(fd, str(rc.rank).encode())
        os.close(fd)
        os._exit(3)


def test_worker_death_is_named_and_the_fleet_recovers(tmp_path):
    """A rank's worker dies mid-job: the job errors with a failure
    naming that rank within the peer grace, both workers are respawned
    at once, and the lane serves the next jobs bit-identically."""
    marker = tmp_path / "dead-rank"
    with RuntimeService(workers=3, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        jid = client.submit(plug(DyingSOR, SOR_ADAPTIVE),
                            ctor_kwargs={**KW, "marker": str(marker)},
                            entry="execute", nranks=2)
        out = client.result(jid, timeout=120.0)
        assert out["status"] == "error", out
        dead = int(marker.read_text())
        assert "RankFailure" in out["error"], out["error"]
        assert (f"rank {dead} died with exit code 3 before reporting"
                in out["error"]), out["error"]
        assert out["run_s"] < _PEER_GRACE_SECONDS + 2.0, out["run_s"]
        for _ in range(3):
            out = client.result(_submit(client), timeout=60.0)
            assert out["status"] == "done", out
            assert out["value"] == REF
        assert _gauge(client, "repro_service_workers_idle") == 3
    _no_leaks()


class _PoolSpy:
    """Just enough fleet for a backend's inbox hook: records releases."""

    start_method = "fork"
    procs = [f"worker-{w}" for w in range(8)]

    def __init__(self) -> None:
        self.released: list[int] = []
        self.changed = threading.Event()

    def release(self, wid: int) -> None:
        self.released.append(wid)


def test_a_retiree_back_before_its_shrink_note_stays_leased():
    """A retiree's ``"idle"`` can overtake rank 0's shrink note (the
    note may still sit in rank 0's flusher).  Its worker stays with the
    job until the note drops its rank, so the collector never reads a
    retired rank as dead; a rank's own worker goes back after its
    report."""
    fleet = _PoolSpy()
    b = FleetBackend(fleet, "j1", lane=0)
    b.assignment, b.leased = {0: 5, 1: 6, 2: 7}, {5, 6, 7}
    b._on_message(("idle", 7, "j1", "retired"))
    assert fleet.released == [] and _RankProcs(b)[2] == "worker-7"
    b._on_message(("reshape", 4, 3, 2))
    assert fleet.released == [7] and b.current_nranks == 2
    assert fleet.changed.is_set()
    b._on_message(("report", 1, "completed", None, 1.0, [], []))
    b._on_message(("idle", 6, "j1", "done"))
    assert fleet.released == [7, 6] and b.leased == {5}
    assert _RankProcs(b)[1].exitcode is not None


# ---------------------------------------------------------------------------
# isolation
# ---------------------------------------------------------------------------

def test_checkpoint_namespaces_isolate_jobs(tmp_path):
    """Two jobs, same app, same field names -> distinct bytes in
    distinct namespaces, and nothing in the master namespace."""
    with RuntimeService(workers=3, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        a = _submit(client, ctor_kwargs={**KW, "seed": 1},
                    policy=EveryN(4))
        b = _submit(client, ctor_kwargs={**KW, "seed": 2},
                    policy=EveryN(4))
        for jid in (a, b):
            assert client.result(jid, timeout=120.0)["status"] == "done"
        # count -> file, whatever run token the job's ledger minted
        sa, sb = ({c: svc.store.dir / name for name, c, _ in
                   svc.store.namespace(str(j))._files(every_run=True)}
                  for j in (a, b))
        assert sa and sorted(sa) == sorted(sb)
        assert list(svc.store._files(every_run=True)) == [], \
            "job checkpoints leaked into the master namespace"
        for count in sa:
            assert sa[count].read_bytes() != sb[count].read_bytes(), \
                f"jobs aliased checkpoint bytes at count {count}"
    _no_leaks()


def test_two_worlds_one_parent(tmp_path):
    """Two complete multiproc worlds built concurrently by one parent:
    per-launch namespaced segment names never collide."""
    cfg = ExecConfig.distributed(2).with_backend("multiproc")
    results, errors = {}, []

    def run(tag):
        try:
            rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag)
            results[tag] = rt.run(WOVEN, ctor_kwargs=KW, entry="execute",
                                  config=cfg, fresh=True).value
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append((tag, exc))

    threads = [threading.Thread(target=run, args=(t,))
               for t in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    assert not errors, errors
    assert results == {"a": REF, "b": REF}
    _no_leaks()


def test_idle_service_never_schedules_and_stops_at_once(tmp_path,
                                                        monkeypatch):
    """The scheduler sleeps until a change it acts on: an idle service
    runs no scheduling round, and ``stop()`` wakes it at once."""
    rounds = []
    schedule_once = RuntimeService._schedule_once

    def counted(self):
        rounds.append(time.monotonic())
        schedule_once(self)

    monkeypatch.setattr(RuntimeService, "_schedule_once", counted)
    svc = RuntimeService(workers=1, lanes=1, machine=MACHINE,
                         ckpt_dir=str(tmp_path / "svc")).start()
    time.sleep(1.0)
    t0 = time.perf_counter()
    svc.stop()
    took = time.perf_counter() - t0
    assert rounds == []
    assert took < 0.05, took
    _no_leaks()


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------

def test_queue_admission_control():
    q = JobQueue(max_queue=2)
    q.submit({"nranks": 1})
    q.submit({"nranks": 1})
    with pytest.raises(QueueFull):
        q.submit({"nranks": 1})
    # draining one waiter re-opens admission
    first = q.peek()
    assert q.take(first.id) is not None
    q.submit({"nranks": 1})
    assert q.depth() == 2


def test_priority_orders_the_queue():
    q = JobQueue()
    low = q.submit({"nranks": 1}, priority=0)
    high = q.submit({"nranks": 1}, priority=5)
    assert q.peek().id == high.id
    assert q.cancel_waiting(high.id)
    assert q.peek().id == low.id


# ---------------------------------------------------------------------------
# elastic steering
# ---------------------------------------------------------------------------

def test_priority_job_shrinks_running_job(tmp_path):
    """A full-fleet elastic job yields workers to a waiting
    higher-priority job via an in-place membership shrink, then grows
    back — zero relaunches, correct values on both."""
    with RuntimeService(workers=4, lanes=2, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        big = _submit(client, ctor_kwargs={"n": 48, "iterations": 2500},
                      nranks=4, min_ranks=2)
        deadline = time.monotonic() + 30.0
        while client.status(big)["status"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.05)
        time.sleep(0.3)
        small = _submit(client, priority=5)
        out_small = client.result(small, timeout=120.0)
        assert out_small["status"] == "done", out_small
        assert out_small["value"] == REF
        out_big = client.result(big, timeout=300.0)
        assert out_big["status"] == "done", out_big
        assert out_big["reshapes"] >= 1, \
            "the scheduler never steered a shrink"
        assert out_big["relaunches"] == 0
        assert out_big["value"] == SOR(n=48, iterations=2500).execute()
    _no_leaks()
