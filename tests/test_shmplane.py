"""The per-rank region primitive and the launch envelope, tested once.

``repro.dsm.shmplane`` is what both observability planes stand on, so
its contract is pinned here against the primitive itself — on a
process-local buffer *and* on a shared segment, with thread *and*
forked-process writers (the mpmetrics ``ParallelLoop`` shape) — rather
than once per plane:

* region lifecycle EMPTY -> ACTIVE -> FROZEN -> ACTIVE, and a scrape
  that skips frozen regions unless asked for them;
* attach-by-launch-name sees the creator's writes; out-of-range ranks
  are rejected; ``unlink`` leaves no ``ppshm-*`` name behind;
* the bounded seqlock read returns a best-effort copy instead of
  hanging when a writer died mid-store (sequence word left odd), and
  drops a lapped generation-stamped record;
* single-writer regions hammered from every rank at once lose nothing
  and never show a reader a torn pair.

The schema-specific hammers (histogram triples, ring wraparound) stay
with their planes in ``test_telemetry.py`` / ``test_trace.py``.

The second half pins the launch envelope: one picklable ``WorkerEnv``
serves the cold launch and the service fleet alike.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from collections import namedtuple

import numpy as np
import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt.policy import Never
from repro.ckpt.replay import ReplayState
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.store import CheckpointStore
from repro.core import ExecConfig, plug
from repro.dsm import shm, shmplane
from repro.dsm.shmplane import ACTIVE, EMPTY, FROZEN, HEADER_WORDS
from repro.exec.base import PhaseServices, PhaseSpec
from repro.exec.multiproc import MultiprocessBackend
from repro.exec.worker import WorkerEnv
from repro.telemetry import MetricsRegistry
from repro.trace import TraceCollector
from repro.util.events import EventLog
from repro.vtime import MachineModel

#: one substrate to run a writer loop on; ``shared`` says whether its
#: writers need the plane in a shared segment to see one buffer.
Parallel = namedtuple("Parallel", ("spawn", "barrier", "shared"))


def _parallels():
    out = {"thread": Parallel(threading.Thread, threading.Barrier,
                              shared=False)}
    if "fork" in mp.get_all_start_methods():
        # forked, so the writers inherit the test's loop object
        ctx = mp.get_context("fork")
        out["process"] = Parallel(ctx.Process, ctx.Barrier, shared=True)
    return out


@pytest.fixture(params=("thread", "process"))
def parallel(request):
    found = _parallels().get(request.param)
    if found is None:
        pytest.skip("no fork start method on this platform")
    return found


#: the smallest schema that exercises the primitive: one seqlocked
#: pair per region — a sequence word, then two payload words the
#: writer always stores as (i, 2 * i).
SEQ = HEADER_WORDS
PAIR_WORDS = HEADER_WORDS + 3


class PairPlane(shmplane.RankPlane):
    kind = "pairs"

    def __init__(self, max_ranks: int, backend: str = "", **where) -> None:
        super().__init__(max_ranks, PAIR_WORDS, backend, **where)

    def writer(self, rank: int) -> "PairWriter":
        return PairWriter(self.region(rank), rank)

    def scrape(self, include_frozen: bool = False) -> dict:
        out = {}
        for rank in self.live(include_frozen):
            vals, ok = shmplane.read_stable(self.region(rank), SEQ,
                                            SEQ + 1, SEQ + 3)
            out[rank] = (float(vals[0]), float(vals[1]), ok)
        return out


class PairWriter(shmplane.RegionWriter):
    def store(self, i: float) -> None:
        p = self._region
        s = p[SEQ] + 1.0
        p[SEQ] = s          # odd: write in progress
        p[SEQ + 1] = i
        p[SEQ + 2] = 2.0 * i
        p[SEQ] = s + 1.0    # even: consistent


def _open_plane(shared: bool, n: int):
    """A plane for ``n`` ranks on the substrate under test: process
    writers need the shared segment, thread writers the local buffer."""
    if not shared:
        return PairPlane.local(n, backend="t"), None
    launch_id = shm.new_launch_id()
    plane = PairPlane(n, launch_id=launch_id, create=True, backend="t")
    return plane, launch_id


def _ppshm_names() -> list[str]:
    if not os.path.isdir("/dev/shm"):
        return []
    return [n for n in os.listdir("/dev/shm") if n.startswith("ppshm-")]


class ParallelLoop:
    """``n`` writers run ``loop(i)`` ``count`` times behind one start
    barrier while the caller's thread runs ``check()`` until they are
    done — the same body over threads and over forked processes."""

    def __init__(self, parallel: Parallel, n: int, count: int) -> None:
        self.parallel = parallel
        self.n = n
        self.count = count
        self.barrier = parallel.barrier(n + 1)

    def target(self, rank: int) -> None:
        try:
            self.setup(rank)
        except BaseException:
            self.barrier.abort()
            raise
        self.barrier.wait(timeout=30.0)
        for i in range(1, self.count + 1):
            self.loop(rank, i)

    def run(self) -> None:
        procs = [self.parallel.spawn(target=self.target, args=(r,),
                                     daemon=True) for r in range(self.n)]
        for p in procs:
            p.start()
        self.barrier.wait(timeout=30.0)
        try:
            while any(p.is_alive() for p in procs):
                self.check()
                time.sleep(0)
        finally:
            for p in procs:
                p.join(timeout=60.0)
                assert not p.is_alive(), "writer never finished"


# ---------------------------------------------------------------------------
# the primitive: lifecycle, naming, bounds
# ---------------------------------------------------------------------------
class TestRegionLifecycle:
    @pytest.mark.parametrize("shared", [False, True])
    def test_empty_active_frozen_active(self, shared):
        plane, _ = _open_plane(shared, 3)
        try:
            assert float(plane.region(1)[0]) == EMPTY
            assert plane.scrape() == {}            # nothing ever bound
            w = plane.writer(1)
            assert float(plane.region(1)[0]) == ACTIVE
            w.store(7.0)
            assert plane.scrape() == {1: (7.0, 14.0, True)}
            w.freeze()
            assert float(plane.region(1)[0]) == FROZEN
            # frozen: live scrapes skip it, the drain scrape folds it in
            assert plane.scrape() == {}
            assert plane.scrape(include_frozen=True) == \
                {1: (7.0, 14.0, True)}
            # un-park: a fresh writer thaws the region, words intact
            w = plane.writer(1)
            assert float(plane.region(1)[0]) == ACTIVE
            assert plane.scrape() == {1: (7.0, 14.0, True)}
            w.store(8.0)
            assert plane.scrape() == {1: (8.0, 16.0, True)}
            # never-bound neighbours stay out of every scrape
            assert set(plane.scrape(include_frozen=True)) == {1}
        finally:
            plane.close()
            plane.unlink()

    @pytest.mark.parametrize("shared", [False, True])
    def test_out_of_range_rank_rejected(self, shared):
        plane, _ = _open_plane(shared, 2)
        try:
            for bad in (-1, 2, 99):
                with pytest.raises(ValueError, match="outside"):
                    plane.writer(bad)
        finally:
            plane.close()
            plane.unlink()

    def test_attach_by_name_sees_creator_writes_and_unlink_is_clean(self):
        launch_id = shm.new_launch_id()
        name = shm.segment_name(launch_id, PairPlane.kind)
        plane = PairPlane(2, launch_id=launch_id, create=True, backend="t")
        try:
            assert name in shm.live_segments()
            plane.writer(0).store(3.0)
            peer = PairPlane(2, launch_id=launch_id)
            try:
                assert peer.scrape() == {0: (3.0, 6.0, True)}
                # ... and the other way: one buffer, two mappings
                peer.writer(1).store(4.0)
                assert plane.scrape()[1] == (4.0, 8.0, True)
            finally:
                peer.close()
        finally:
            plane.close()
            plane.unlink()
        assert shm.live_segments() == []
        assert not any(launch_id in n for n in _ppshm_names())
        # the creator is the sole unlinker: the name is really gone
        with pytest.raises(FileNotFoundError):
            PairPlane(2, launch_id=launch_id)

    def test_binder_is_thread_local_with_a_null_default(self):
        null = shmplane.NullWriter()
        current, bind = shmplane.binder(null)
        assert current() is null and not current().active
        current().freeze()      # the null object absorbs the lifecycle
        plane = PairPlane.local(2)
        w = plane.writer(0)
        bind(w)
        seen = []
        t = threading.Thread(target=lambda: seen.append(current()))
        t.start()
        t.join(timeout=10.0)
        assert seen == [null]   # another thread never sees this binding
        assert current() is w and current().active
        bind(None)
        assert current() is null


# ---------------------------------------------------------------------------
# the one bounded seqlock read
# ---------------------------------------------------------------------------
class TestBoundedSeqlockRead:
    def test_wedged_writer_yields_best_effort_copy_not_a_hang(
            self, monkeypatch):
        """A rank killed between its odd and even stores leaves the
        sequence word odd forever: the reader must give up after its
        poll budget and hand back what is there, flagged."""
        monkeypatch.setattr(shmplane, "SEQLOCK_POLLS", 64)
        plane = PairPlane.local(1)
        w = plane.writer(0)
        w.store(5.0)
        region = plane.region(0)
        region[SEQ] += 1.0          # odd: the store that never finished
        region[SEQ + 1] = 6.0       # ... having written half its payload
        t0 = time.monotonic()
        vals, ok = shmplane.read_stable(region, SEQ, SEQ + 1, SEQ + 3)
        assert time.monotonic() - t0 < 5.0
        assert not ok
        assert vals.tolist() == [6.0, 10.0]     # torn, but returned
        # the scrape path rides the same loop and reports the copy
        assert plane.scrape() == {0: (6.0, 10.0, False)}

    def test_full_poll_budget_is_bounded_too(self):
        plane = PairPlane.local(1)
        plane.writer(0)
        region = plane.region(0)
        region[SEQ] = 1.0
        t0 = time.monotonic()
        _, ok = shmplane.read_stable(region, SEQ, SEQ + 1, SEQ + 3)
        assert not ok and time.monotonic() - t0 < 10.0

    def test_generation_stamp_commits_exactly_one_value(self):
        buf = np.zeros(4)
        buf[1:] = (1.0, 2.0, 3.0)
        buf[0] = 6.0                # committed generation g=2: 2g+2
        vals, ok = shmplane.read_stable(buf, 0, 1, 4, want=6.0)
        assert ok and vals.tolist() == [1.0, 2.0, 3.0]
        # lapped by a newer generation: dropped at once, no polling
        vals, ok = shmplane.read_stable(buf, 0, 1, 4, want=4.0)
        assert vals is None and not ok

    def test_stale_generation_is_not_committed(self, monkeypatch):
        monkeypatch.setattr(shmplane, "SEQLOCK_POLLS", 16)
        buf = np.zeros(4)
        buf[0] = 5.0                # 2g+1: generation 2 still in flight
        _, ok = shmplane.read_stable(buf, 0, 1, 4, want=6.0)
        assert not ok


# ---------------------------------------------------------------------------
# single-writer regions under load, on both substrates
# ---------------------------------------------------------------------------
class TestRegionHammer:
    WRITERS = 4

    def test_every_rank_writes_its_own_region(self, parallel):
        count = 20000 if parallel.shared else 5000
        plane, launch_id = _open_plane(parallel.shared, self.WRITERS)
        scrapes = [0]

        loop = ParallelLoop(parallel, self.WRITERS, count)
        # (plane, writer) per rank: a writer is a view into its plane's
        # mapping, so the attached plane must outlive it.
        writers: dict[int, tuple] = {}

        def setup(rank):
            own = PairPlane(self.WRITERS, launch_id=launch_id) \
                if launch_id is not None else plane
            writers[rank] = (own, own.writer(rank))

        def body(rank, i):
            writers[rank][1].store(float(i))

        def check():
            for a, b, ok in plane.scrape().values():
                if ok:
                    assert b == 2.0 * a, f"torn pair ({a}, {b})"
            scrapes[0] += 1

        loop.setup, loop.loop, loop.check = setup, body, check
        try:
            loop.run()
            final = plane.scrape()
            assert final == {r: (float(count), 2.0 * count, True)
                             for r in range(self.WRITERS)}
            assert scrapes[0] > 0
        finally:
            plane.close()
            plane.unlink()
        assert shm.live_segments() == []


# ---------------------------------------------------------------------------
# the launch envelope
# ---------------------------------------------------------------------------
MACHINE = MachineModel(nodes=2, cores_per_node=8)
WOVEN = plug(SOR, SOR_ADAPTIVE)

#: pickled size of the parent commit's ``JobTicket`` for this same job
#: (the ``service_jobs`` SOR job of BENCHMARK.json: n=32, 4 iterations,
#: 2 ranks, telemetry on, tracing off; CPython 3.11, protocol 5).
JOBTICKET_BYTES = 2246


def _services(tmp_path, trace=None):
    return PhaseServices(
        machine=MACHINE, log=EventLog(),
        store=CheckpointStore(tmp_path).namespace("1"), policy=Never(),
        ckpt_strategy="master", metrics=MetricsRegistry(), trace=trace)


def _spec(**kw):
    return PhaseSpec(
        woven=WOVEN, ctor_kwargs={"n": 32, "iterations": 4, "seed": 1},
        entry="execute",
        config=ExecConfig.distributed(2).with_backend("fleet"), **kw)


def _fleet_env(tmp_path, **kw):
    from repro.service.fleet import FleetWorkerBackend, WorkerFleet

    fleet = WorkerFleet(workers=4, lanes=2)     # never started: no fork
    try:
        return WorkerEnv.build(
            _spec(**kw), _services(tmp_path),
            FleetWorkerBackend(fleet.steer[0].name), "abc-j1-0",
            fleet.workers, job="j1", lane=0)
    finally:
        for blk in fleet.steer:
            blk.close()
            blk.unlink()


class TestWorkerEnv:
    def test_round_trips_through_pickle_and_reweaves(self, tmp_path):
        env = WorkerEnv.build(_spec(), _services(tmp_path),
                              MultiprocessBackend(start_method="spawn"),
                              "abc-0", 3)
        back = pickle.loads(pickle.dumps(env, pickle.HIGHEST_PROTOCOL))
        # the dynamic subclass shipped as (base, plug set) ...
        assert env.spec.woven is SOR and back.spec.woven is SOR
        assert back.plugs is not None
        # ... and re-weaves to a class that computes the same thing
        woven = back.rebuild_spec().woven
        assert woven.__pp_base__ is SOR
        assert woven(n=16, iterations=3).execute() \
            == SOR(n=16, iterations=3).execute()
        assert (back.launch_id, back.max_ranks, back.backend.name) \
            == ("abc-0", 3, "multiproc")
        assert back.telemetry is True and back.trace == 0
        assert back.funnel == {"is_async": False, "depth": 0, "cas": False}

    def test_one_tracing_field_carries_the_ring_capacity(self, tmp_path):
        flight = TraceCollector(flight=True)
        env = WorkerEnv.build(_spec(), _services(tmp_path, trace=flight),
                              MultiprocessBackend(), "abc-1", 2)
        assert env.trace == flight.capacity > 0
        assert not hasattr(env, "trace_capacity")

    def test_carries_no_queue_store_or_registry(self, tmp_path):
        env = _fleet_env(tmp_path)
        blob = pickle.dumps(env, pickle.HIGHEST_PROTOCOL)
        for forbidden in (b"Queue", b"CheckpointStore", b"FunnelStore",
                          b"MetricsRegistry", b"TraceCollector",
                          b"EventLog"):
            assert forbidden not in blob, forbidden
        assert pickle.loads(blob).job == "j1"

    def test_no_larger_than_the_job_ticket_it_replaced(self, tmp_path):
        blob = pickle.dumps(_fleet_env(tmp_path), pickle.HIGHEST_PROTOCOL)
        assert len(blob) <= JOBTICKET_BYTES, len(blob)

    def test_only_member_zero_is_sent_the_replay_snapshot(self, tmp_path):
        snap = Snapshot(app="SOR", safepoint_count=3,
                        fields={"G": np.zeros(4096)})
        env = _fleet_env(tmp_path,
                         replay=ReplayState(target=3, snapshot=snap))
        assert env.for_rank(0) is env
        peer = env.for_rank(1)
        assert peer.spec.replay.target == 3
        assert peer.spec.replay.snapshot is None
        assert env.spec.replay.snapshot is snap     # the original is whole
        assert len(pickle.dumps(peer)) < len(pickle.dumps(env)) - 4096 * 8
        # nothing to strip: the very same envelope goes to everyone
        plain = _fleet_env(tmp_path)
        assert plain.for_rank(1) is plain
