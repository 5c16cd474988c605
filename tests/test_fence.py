"""The shared-memory barrier of co-located process ranks.

Process ranks that share a host meet at a ``procmail.Fence`` — one
semaphore per rank slot and a shared array of arrival clocks — instead
of a two-message barrier through rank 0's channel.  What must hold:

* **the same epochs** — preset distinct rank clocks, charge the same
  per-rank work between barriers, and every rank's clock after every
  barrier is bit-identical to the message barrier's, at 2, 3 and 5
  ranks and across a shrink inside a pre-sized fabric;
* **never a hang** — a rank that dies while its peer waits in the fence
  surfaces as a ``RankFailure`` naming it within the peer grace, and a
  wait that expires names the waiting rank and the ranks that never
  arrived;
* **clean lane reuse** — the service fleet's per-lane fence carries no
  stale post or arrival from a cancelled job into the next one.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.core import ExecConfig, Runtime, plug
from repro.dsm.comm import RankContext, _bind, current_rank
from repro.dsm.procmail import Channel, Fence, ProcCommunicator
from repro.dsm.simcluster import RankFailure
from repro.exec import MultiprocessBackend, build_default_registry
from repro.exec.multiproc import _PEER_GRACE_SECONDS
from repro.service import RuntimeService, ServiceClient
from repro.vtime import MachineModel
from repro.vtime.clock import VClock

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the ranks are forked processes")

FORK = mp.get_context("fork") if "fork" in mp.get_all_start_methods() \
    else None
MACHINE = MachineModel(nodes=2, cores_per_node=4)
BARRIERS = 12
#: what a dying launch may take beyond the peer grace: fork, the
#: iterations before the crash, terminating and reaping the survivors.
SLACK_SECONDS = 2.0


# ---------------------------------------------------------------------------
# the fence computes the message barrier's epochs, bit for bit
# ---------------------------------------------------------------------------
def _clock_trace(rank: int, n: int, shrink_to: int, channels, fence,
                 out) -> None:
    """Run ``BARRIERS`` barriers over ``n`` ranks, then (when
    ``shrink_to`` is below ``n``) ``BARRIERS`` more over the first
    ``shrink_to``; post every clock reading after a barrier."""
    comm = ProcCommunicator(rank, n, MACHINE, channels, fence=fence)
    clock = VClock(1e-3 * (rank + 1) * 1.37)
    _bind(RankContext(rank=rank, nranks=n, clock=clock, comm=comm))
    rng = np.random.default_rng(rank)
    seen = []
    try:
        for step in range(2 * BARRIERS):
            if step == BARRIERS and shrink_to < n:
                comm.barrier()  # quiesce before the membership switch
                seen.append(clock.now)
                if rank >= shrink_to:
                    break
                comm.reshape(shrink_to)
            clock.charge_compute(float(rng.uniform(1e-6, 1e-3)))
            comm.barrier()
            seen.append(clock.now)
        out.put((rank, seen))
    finally:
        _bind(None)


def _trace(n: int, shrink_to: int, with_fence: bool) -> dict:
    channels = [Channel(FORK) for _ in range(n)]
    fence = Fence(n, FORK) if with_fence else None
    out = Channel(FORK)
    procs = [FORK.Process(target=_clock_trace, daemon=True,
                          args=(r, n, shrink_to, channels, fence, out))
             for r in range(n)]
    try:
        for p in procs:
            p.start()
        return dict(out.get(timeout=30.0) for _ in range(n))
    finally:
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)


@pytest.mark.parametrize("n,shrink_to", [(2, 2), (3, 3), (5, 5), (5, 3)])
def test_fence_epochs_match_the_message_barrier(n, shrink_to):
    fenced = _trace(n, shrink_to, with_fence=True)
    messaged = _trace(n, shrink_to, with_fence=False)
    assert sorted(fenced) == list(range(n))
    for r in range(n):
        assert [t.hex() for t in fenced[r]] \
            == [t.hex() for t in messaged[r]], r
    # the barrier really synchronised: every member leaves at one epoch
    assert len({fenced[r][BARRIERS - 1] for r in range(n)}) == 1
    if shrink_to < n:
        assert len(fenced[0]) == 2 * BARRIERS + 1
        assert len(fenced[n - 1]) == BARRIERS + 1


# ---------------------------------------------------------------------------
# dead ranks and expired waits
# ---------------------------------------------------------------------------
class DyingInFenceSOR(SOR):
    """SOR whose rank 1 leaves its process while rank 0 waits in the
    next barrier: it lingers first, so rank 0 is inside the fence."""

    def end_iteration(self) -> None:
        super().end_iteration()
        rc = current_rank()
        if rc is not None and rc.rank == 1 and self.iterations_done == 3:
            time.sleep(0.2)
            os._exit(3)


def test_rank_exit_while_peer_waits_in_fence_raises_named_failure(tmp_path):
    reg = build_default_registry()
    reg.register(MultiprocessBackend(join_timeout=30.0), replace=True)
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path, registry=reg)
    started = time.monotonic()
    with pytest.raises(RankFailure) as exc_info:
        rt.run(plug(DyingInFenceSOR, SOR_ADAPTIVE),
               ctor_kwargs={"n": 24, "iterations": 8}, entry="execute",
               config=ExecConfig.distributed(2).with_backend("multiproc"),
               fresh=True)
    elapsed = time.monotonic() - started
    assert exc_info.value.rank == 1, exc_info.value
    assert "exit code 3 before reporting" in str(exc_info.value)
    assert elapsed < _PEER_GRACE_SECONDS + SLACK_SECONDS, elapsed


def test_expired_wait_names_the_barrier_the_rank_and_the_absent():
    fence = Fence(3)
    late: list = []

    def rank1():
        try:
            fence.sync(1, 3, 2.0, 0.0, timeout=1.0)
        except TimeoutError as exc:
            late.append(str(exc))

    t = threading.Thread(target=rank1)
    t.start()
    time.sleep(0.1)  # rank 1 has arrived; rank 2 never does
    started = time.monotonic()
    with pytest.raises(TimeoutError) as exc_info:
        fence.sync(0, 3, 1.0, 0.0, timeout=0.3)
    assert time.monotonic() - started < 1.0
    msg = str(exc_info.value)
    assert "rank 0: barrier of 3 ranks" in msg
    assert "never arrived: [2]" in msg
    t.join(timeout=5.0)
    assert len(late) == 1
    assert "rank 1: barrier of 3 ranks" in late[0]
    assert "never arrived: [2]" in late[0]


def test_reset_drops_stale_posts_and_arrivals():
    fence = Fence(2)
    fence._sems[0].release()      # a peer posted, then unwound
    fence._words[1] = 1e9         # ... leaving its arrival behind
    fence.reset()
    with pytest.raises(TimeoutError, match=r"never arrived: \[1\]"):
        fence.sync(0, 2, 1.0, 0.0, timeout=0.1)


# ---------------------------------------------------------------------------
# a service lane reused after a cancel mid-barrier
# ---------------------------------------------------------------------------
def test_cancelled_job_leaves_the_lane_fence_clean(tmp_path):
    woven = plug(SOR, SOR_ADAPTIVE)
    kw = {"n": 40, "iterations": 12}
    ref = SOR(**kw).execute()
    with RuntimeService(workers=2, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path)) as svc:
        client = ServiceClient(svc.address)
        first = client.result(client.submit(woven, ctor_kwargs=kw,
                                            entry="execute", nranks=2),
                              timeout=120.0)
        assert first["status"] == "done" and first["value"] == ref
        # every iteration runs four barriers: the cancel lands while
        # the ranks are in and out of them.
        jid = client.submit(woven, ctor_kwargs={"n": 64,
                                                "iterations": 200000},
                            entry="execute", nranks=2)
        deadline = time.monotonic() + 30.0
        while client.status(jid)["status"] != "running":
            assert time.monotonic() < deadline, "job never started"
            time.sleep(0.05)
        time.sleep(0.2)
        assert client.cancel(jid)["was"] == "running"
        assert client.result(jid, timeout=60.0)["status"] == "cancelled"
        # what a rank that posted its arrival and then unwound leaves
        # behind: a post on rank 0's semaphore and a far-future clock.
        fence = svc.fleet.fences[0]
        fence._sems[0].release()
        fence._words[1] = 1e9
        out = client.result(client.submit(woven, ctor_kwargs=kw,
                                          entry="execute", nranks=2),
                            timeout=120.0)
        assert out["status"] == "done", out
        assert out["value"] == ref
        # a stale arrival counted in a barrier would lift its epoch,
        # and so the job's virtual time, past 1e9 s.
        assert out["vtime"] < 1.0, out["vtime"]
