"""Shared-memory segment lifecycle: allocate/attach/unlink, no leaks.

The multiprocessing backend's contract with ``/dev/shm``: every segment
a launch creates is gone when the launch is over — after clean exits,
after rank failures (including rank-scoped ones that strand peers in
collectives), and across PhaseDriver restart chains.  Leaks are
asserted through the package's own ``SharedMemory`` name tracking plus
a direct ``/dev/shm`` scan where the platform provides one.
"""

import multiprocessing
import os
import pickle
import threading
from multiprocessing import resource_tracker
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import EveryN
from repro.ckpt.failure import FailureInjector, InjectedFailure
from repro.core import ExecConfig, Runtime, plug
from repro.dsm import shm
from repro.exec.worker import attach_shared_fields, place_shared_fields
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 24, 10
REF = SOR(n=N, iterations=ITERS).execute()
WOVEN = plug(SOR, SOR_ADAPTIVE)
MULTIPROC = ExecConfig.distributed(3).with_backend("multiproc")


def assert_no_segments():
    assert shm.live_segments() == []
    if os.path.isdir("/dev/shm"):
        left = [f for f in os.listdir("/dev/shm")
                if f.startswith(shm.SHM_PREFIX)]
        assert left == [], f"leaked /dev/shm segments: {left}"


def _map_in_child(real_register) -> None:
    with shm._no_resource_tracking():
        pass
    raise SystemExit(0 if resource_tracker.register is real_register else 1)


def run(tmp_path, tag, **kw):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 policy=kw.pop("policy", EveryN(3)))
    return rt, rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                      entry="execute", config=MULTIPROC, fresh=True, **kw)


# ---------------------------------------------------------------------------
# the segment manager itself
# ---------------------------------------------------------------------------
class TestSegmentPrimitives:
    def test_allocate_view_attach_roundtrip(self):
        launch = shm.new_launch_id()
        owner = shm.SegmentManager(launch)
        seg = owner.allocate("G", (5, 3), np.float64)
        view = seg.ndarray()
        view[...] = np.arange(15.0).reshape(5, 3)
        assert shm.segment_name(launch, "G") in shm.live_segments()

        peer = shm.SegmentManager(launch)
        mirror = peer.attach("G", (5, 3), np.float64).ndarray()
        assert np.array_equal(mirror, view)
        mirror[0, 0] = 99.0
        assert view[0, 0] == 99.0  # same physical pages

        del view, mirror
        peer.close_all()
        owner.close_all()
        assert shm.unlink_by_name(shm.segment_name(launch, "G"))
        assert_no_segments()

    def test_view_is_cached_per_segment(self):
        launch = shm.new_launch_id()
        seg = shm.SegmentManager(launch).allocate("x", (4,), np.int64)
        assert seg.ndarray() is seg.ndarray()
        seg.unlink()
        assert_no_segments()

    def test_unlink_is_idempotent(self):
        launch = shm.new_launch_id()
        seg = shm.ShmSegment.allocate(shm.segment_name(launch, "y"),
                                      (2,), np.float32)
        seg.unlink()
        seg.unlink()  # second time: no error
        assert not shm.unlink_by_name(seg.name)  # already gone
        assert_no_segments()

    def test_unlink_by_name_unknown_segment(self):
        assert shm.unlink_by_name(f"{shm.SHM_PREFIX}-nope-nope") is False

    def test_launch_ids_are_unique(self):
        assert shm.new_launch_id() != shm.new_launch_id()

    def test_placed_structured_field_keeps_its_dtype(self):
        """Ranks other than 0, and elastic joiners, attach a partitioned
        field from rank 0's placement metadata: an aligned structured
        dtype must arrive whole, not collapsed to ``|Vn``."""
        dt = np.dtype([("a", "<i4"), ("b", "<f8")], align=True)
        field = np.zeros(6, dtype=dt)
        field["a"], field["b"] = np.arange(6), np.linspace(0.0, 1.0, 6)
        launch = shm.new_launch_id()
        root = SimpleNamespace(rank=0, nranks=1, partitioned={
            "F": SimpleNamespace(whole_at_safepoints=False)})
        owner = SimpleNamespace(F=field)
        manager, meta = place_shared_fields(root, owner, None, launch)
        meta = pickle.loads(pickle.dumps(meta))  # as a joiner receives it
        peer = SimpleNamespace(F=None)
        attached = attach_shared_fields(SimpleNamespace(rank=1), peer, meta,
                                        launch)
        assert peer.F.dtype == dt
        assert peer.F.tobytes() == field.tobytes()
        owner.F = peer.F = None
        attached.close_all()
        manager.close_all()
        assert shm.unlink_by_name(shm.segment_name(launch, "F"))
        assert_no_segments()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="fork start method only")
    def test_fork_while_another_thread_maps_a_segment(self):
        """One parent launching two worlds from two threads: a fork while
        the other thread is inside the tracker patch must hand the child
        a free lock and the real tracker — a copy of the held lock hung
        the child's first segment attach forever."""
        real = resource_tracker.register
        entered, leave = threading.Event(), threading.Event()

        def hold():
            with shm._no_resource_tracking():
                entered.set()
                leave.wait(10.0)

        holder = threading.Thread(target=hold)
        holder.start()
        assert entered.wait(10.0)
        threading.Timer(0.2, leave.set).start()
        ctx = multiprocessing.get_context("fork")
        p = ctx.Process(target=_map_in_child, args=(real,), daemon=True)
        p.start()
        p.join(timeout=10.0)
        holder.join(timeout=10.0)
        if p.is_alive():
            p.terminate()
        assert p.exitcode == 0, "child hung on (or ran with) the patch"


# ---------------------------------------------------------------------------
# lifecycle through real launches
# ---------------------------------------------------------------------------
class TestLaunchLifecycle:
    def test_unlinked_on_clean_exit(self, tmp_path):
        _, res = run(tmp_path, "clean")
        assert res.value == REF
        assert_no_segments()
        assert [p for p in multiprocessing.active_children()
                if p.name.startswith("mp-rank-")] == []

    def test_unlinked_on_rank_failure(self, tmp_path):
        """An uninjected-recovery run: the failure unwinds the phase and
        the launch's segments must not survive it."""
        with pytest.raises(InjectedFailure):
            run(tmp_path, "fail", injector=FailureInjector(fail_at=4))
        assert_no_segments()

    def test_unlinked_on_rank_scoped_failure(self, tmp_path):
        """Only rank 1 fails; peers are terminated mid-collective — the
        parent's by-name cleanup must still reclaim every segment."""
        with pytest.raises(InjectedFailure):
            run(tmp_path, "fail-rank",
                injector=FailureInjector(fail_at=4, rank=1))
        assert_no_segments()

    def test_unlinked_across_driver_restart_chain(self, tmp_path):
        """PhaseDriver restart: fail, recover from checkpoint, finish —
        two launches, two segment generations, zero survivors."""
        rt, res = run(tmp_path, "restart",
                      injector=FailureInjector(fail_at=6),
                      auto_recover=True)
        assert res.value == REF
        assert res.restarts == 1
        assert_no_segments()
