"""The shared-memory barrier of co-located process ranks.

Process ranks that share a host meet at a ``procmail.Fence`` — one
semaphore per rank slot and a shared array of arrival clocks — instead
of a two-message barrier through rank 0's channel.  What must hold:

* **the same epochs** — preset distinct rank clocks, charge the same
  per-rank work between barriers, and every rank's clock after every
  barrier is bit-identical to the message barrier's, at 2, 3 and 5
  ranks and across a shrink inside a pre-sized fabric;
* **under load, on both sides of the spin gate** — 5 000 barriers with
  random per-rank charges give every rank the message barrier's epoch
  sequence, at 2, 3 and 5 ranks, once with a fence that spins before it
  blocks and once with one that never polls (the gate's CPU count is
  patched, so both run on any host);
* **never a hang** — a rank that dies while its peer waits in the fence
  surfaces as a ``RankFailure`` naming it within the peer grace, and a
  wait that expires names the waiting rank and the ranks that never
  arrived, spinning or not, never past its deadline;
* **clean lane reuse** — the service fleet's per-lane fence carries no
  stale post or arrival from a cancelled job into the next one.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import os
import queue
import threading
import time

import numpy as np
import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.core import ExecConfig, Runtime, plug
from repro.dsm.comm import RankContext, _bind, current_rank
from repro.dsm.procmail import (SPIN_SECONDS, Channel, Fence,
                                 ProcCommunicator)
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
def _clock_trace(rank: int, n: int, shrink_to: int, barriers: int,
                 channels, fence, start, out) -> None:
    """Run ``barriers`` barriers over ``n`` ranks, then ``barriers``
    more over the first ``shrink_to``; post every clock reading after a
    barrier, or the iteration that failed."""
    try:
        comm = ProcCommunicator(rank, n, MACHINE, channels, fence=fence)
        clock = VClock(1e-3 * (rank + 1) * 1.37)
        _bind(RankContext(rank=rank, nranks=n, clock=clock, comm=comm))
        rng = np.random.default_rng(rank)
    except BaseException:
        start.abort()  # the parent and every peer stop waiting
        raise
    step, seen = "start", []
    try:
        start.wait()
        for step in range(2 * barriers):
            if step == barriers and shrink_to < n:
                comm.barrier()  # quiesce before the membership switch
                seen.append(clock.now)
                if rank >= shrink_to:
                    break
                comm.reshape(shrink_to)
            clock.charge_compute(float(rng.uniform(1e-6, 1e-3)))
            comm.barrier()
            seen.append(clock.now)
        out.put((rank, seen))
    except Exception as exc:
        out.put((rank, f"iteration {step}: {exc!r}"))
    finally:
        _bind(None)


def _trace(n: int, shrink_to: int, fence: Fence | None,
           barriers: int = BARRIERS) -> dict:
    """Every rank's clock readings, over ``fence`` or (``None``) the
    message barrier.  A rank that fails names itself and its iteration;
    a rank that never reports is named after every wait's deadline."""
    channels = [Channel(FORK) for _ in range(n)]
    start = FORK.Barrier(n + 1, timeout=30.0)
    out = Channel(FORK)
    procs = [FORK.Process(target=_clock_trace, daemon=True,
                          args=(r, n, shrink_to, barriers, channels, fence,
                                start, out))
             for r in range(n)]
    seen: dict = {}
    try:
        for p in procs:
            p.start()
        start.wait()  # BrokenBarrierError when a rank's set-up failed
        while len(seen) < n:
            try:
                rank, readings = out.get(timeout=60.0)
            except queue.Empty:
                pytest.fail(f"ranks {sorted(set(range(n)) - set(seen))} "
                            f"never reported")
            assert not isinstance(readings, str), f"rank {rank}: {readings}"
            seen[rank] = readings
        return seen
    finally:
        grace = 10.0 if len(seen) == n else 0.0  # a failed peer blocks
        for p in procs:
            p.join(timeout=grace)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)


def _fence(n: int, spin: bool, monkeypatch) -> Fence:
    """A fence on the chosen side of the spin gate, whatever the CPUs
    of this host: the gate reads the process's CPU affinity."""
    cpus = set(range(n if spin else n - 1))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                        raising=False)
    fence = Fence(n, FORK)
    assert bool(fence._spin) is spin
    return fence


@pytest.mark.parametrize("n,shrink_to", [(2, 2), (3, 3), (5, 5), (5, 3)])
def test_fence_epochs_match_the_message_barrier(n, shrink_to):
    fenced = _trace(n, shrink_to, Fence(n, FORK))
    messaged = _trace(n, shrink_to, None)
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
# the hammer: thousands of barriers on both sides of the spin gate
# ---------------------------------------------------------------------------
HAMMER_BARRIERS = 5000


@functools.cache
def _message_epochs(n: int) -> tuple:
    """Rank 0's clock after each of the hammer's message barriers."""
    return tuple(_trace(n, n, None, barriers=HAMMER_BARRIERS // 2)[0])


def _count_trywaits(fence: Fence):
    """Count the fence's non-blocking semaphore polls, in every forked
    rank (racy increments: enough to tell none from some)."""
    tries = FORK.RawValue("q", 0)
    for sem in fence._sems:
        def acquire(block=True, timeout=None, _acquire=sem.acquire):
            if not block:
                tries.value += 1
            return _acquire(block, timeout)
        sem.acquire = acquire
    return tries


@pytest.mark.parametrize("spin", [True, False], ids=["spins", "sleeps"])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_fence_hammer(n, spin, monkeypatch):
    fence = _fence(n, spin, monkeypatch)
    tries = _count_trywaits(fence)
    fenced = _trace(n, n, fence, barriers=HAMMER_BARRIERS // 2)
    expected = [t.hex() for t in _message_epochs(n)]
    assert len(expected) == HAMMER_BARRIERS
    for r in range(n):
        got = [t.hex() for t in fenced[r]]
        assert len(got) == HAMMER_BARRIERS, (r, len(got))
        bad = next((i for i, (a, b) in enumerate(zip(got, expected))
                    if a != b), None)
        assert bad is None, f"rank {r}, barrier {bad}: {got[bad]} " \
                            f"!= {expected[bad]}"
    assert (tries.value > 0) is spin, tries.value


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


@pytest.mark.parametrize("spin", [True, False], ids=["spins", "sleeps"])
@pytest.mark.parametrize("timeout", [0.0, 50e-6, 0.05, 0.3])
def test_a_spinning_wait_keeps_its_deadline(timeout, spin, monkeypatch):
    for rank in (0, 1):  # rank 0 waits for 1; rank 1 for its epoch
        fence = _fence(2, spin, monkeypatch)
        tries = _count_trywaits(fence)
        started = time.monotonic()
        with pytest.raises(TimeoutError) as exc_info:
            fence.sync(rank, 2, 1.0, 0.0, timeout=timeout)
        assert time.monotonic() - started < timeout + 0.5
        msg = str(exc_info.value)
        assert f"rank {rank}: barrier of 2 ranks" in msg
        assert f"never arrived: [{1 - rank}]" in msg
        if timeout == 0 or not spin:  # an expired deadline spins not at all
            assert tries.value == 0
        elif timeout > 100 * SPIN_SECONDS:
            assert tries.value > 0


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
