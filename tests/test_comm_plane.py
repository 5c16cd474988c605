"""The zero-copy data plane and its transport substrate.

Three layers under test:

* :class:`~repro.dsm.mailbox.Mailbox` — the selective-receive
  contract over a queue channel: per-(src, tag) FIFO under interleaved
  selective receives, a zero-timeout probe's drain behaviour, and the single
  monotonic deadline across the drain loop (a busy mailbox must not
  extend the timeout);
* :class:`~repro.dsm.shm.BufferPool` / :class:`~repro.dsm.shm.DataPlane`
  — slab lease/recycle lifecycle, ring growth and exhaustion fallback,
  leak checks on clean exit, after a rank failure, and across an
  elastic park/un-park cycle, and the checkpoint funnel's borrowed
  segment regions;
* end-to-end — the multiprocessing backend's funnelled structured field
  keeps its dtype, and the paper's flat root-funnel collectives give
  closed-form values.  (Byte identity across transports is the
  six-backend parity matrix's: tests/test_exec_backends.py.)
"""

import os
import queue
import threading
import time

import numpy as np
import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import EveryN
from repro.ckpt.failure import FailureInjector
from repro.core import (
    AdaptationPlan,
    AdaptStep,
    ExecConfig,
    PlugSet,
    Runtime,
    SafeData,
    plug,
)
from repro.dsm import shm
from repro.dsm.mailbox import Mailbox, Message
from repro.telemetry import MetricsRegistry
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 48, 10
WOVEN = plug(SOR, SOR_ADAPTIVE)
REF = SOR(n=N, iterations=ITERS).execute()

#: an aligned record (4 bytes of padding per item) and enough of them
#: to cross the slab threshold.
REC = np.dtype([("i", "<i4"), ("x", "<f8")], align=True)
TAG_N = shm.SHM_THRESHOLD // REC.itemsize * 2


class TaggedSOR(SOR):
    """SOR carrying one structured checkpointed field."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self.tags = np.zeros(TAG_N, dtype=REC)
        self.tags["i"] = np.arange(TAG_N)
        self.tags["x"] = np.arange(TAG_N) / 4


TAGGED = plug(TaggedSOR, SOR_ADAPTIVE + PlugSet(SafeData("tags")))


def assert_no_segments():
    assert shm.live_segments() == []
    if os.path.isdir("/dev/shm"):
        left = [f for f in os.listdir("/dev/shm")
                if f.startswith(shm.SHM_PREFIX)]
        assert left == [], f"leaked /dev/shm segments: {left}"


def msg(src, tag, payload=None):
    return Message(src=src, dst=0, tag=tag, payload=payload,
                   nbytes=8, arrival=0.0)


# ---------------------------------------------------------------------------
# Mailbox pending-buffer semantics
# ---------------------------------------------------------------------------
class TestProcessMailbox:
    def test_fifo_per_src_tag_under_interleaved_selective_receives(self):
        mb = Mailbox(0, queue.Queue())
        # interleaved streams from two sources and two tags
        for i in range(3):
            mb.put(msg(1, 7, ("a", i)))
            mb.put(msg(2, 7, ("b", i)))
            mb.put(msg(1, 9, ("c", i)))
        # selective receive on (2, 7) first: (1, *) envelopes must be
        # buffered in arrival order, not lost or reordered
        assert mb.get(source=2, tag=7).payload == ("b", 0)
        assert mb.get(source=1, tag=9).payload == ("c", 0)
        # the pending buffer replays per-(src, tag) FIFO
        assert [mb.get(source=1, tag=7).payload for _ in range(3)] \
            == [("a", 0), ("a", 1), ("a", 2)]
        assert mb.get(source=2, tag=7).payload == ("b", 1)
        assert [mb.get(source=1, tag=9).payload for _ in range(2)] \
            == [("c", 1), ("c", 2)]

    def test_poll_drains_channel_into_pending(self):
        mb = Mailbox(0, queue.Queue())
        mb.put(msg(1, 1))
        mb.put(msg(2, 2))
        mb.put(msg(3, 3))
        with pytest.raises(TimeoutError):  # a zero-timeout get polls:
            mb.get(source=9, timeout=0)    # drained everything, no match
        assert len(mb._pending) == 3       # ... into the pending buffer
        # drained envelopes are still retrievable, from pending only
        assert mb.get(source=2, tag=2, timeout=0).src == 2
        assert mb.get(source=1, timeout=0).src == 1
        assert mb.get(source=3, tag=3).src == 3

    def test_deadline_spans_the_whole_drain_loop(self):
        """A busy mailbox must not restart the timeout per arrival.

        The seed implementation passed the full ``timeout`` to every
        channel wait, so a trickle of non-matching envelopes arriving
        just under the timeout pushed the deadline out indefinitely.
        """
        ch = queue.Queue()
        mb = Mailbox(0, ch)
        stop = threading.Event()

        def trickle():  # non-matching traffic every 50 ms
            i = 0
            while not stop.is_set():
                ch.put(msg(1, 1, i))
                i += 1
                time.sleep(0.05)

        t = threading.Thread(target=trickle, daemon=True)
        t.start()
        try:
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                mb.get(source=2, tag=2, timeout=0.4)
            elapsed = time.monotonic() - t0
            assert elapsed < 2.0, \
                f"deadline stretched to {elapsed:.2f}s by busy traffic"
            assert elapsed >= 0.35
        finally:
            stop.set()
            t.join()
        # the non-matching traffic was preserved, in order
        assert mb.get(source=1, tag=1).payload == 0
        assert mb.get(source=1, tag=1).payload == 1

    def test_timeout_zero_and_expiry_message(self):
        mb = Mailbox(0, queue.Queue())
        mb.put(msg(1, 5))
        with pytest.raises(TimeoutError, match="src=2"):
            mb.get(source=2, tag=5, timeout=0.05)
        assert len(mb._pending) == 1  # buffered, not dropped
        # an expired deadline still owes one non-blocking poll: a match
        # already sitting in the channel must be returned, not timed out
        mb.put(msg(3, 5))
        assert mb.get(source=3, tag=5, timeout=0).src == 3
        with pytest.raises(TimeoutError):
            mb.get(source=9, tag=9, timeout=0)


# ---------------------------------------------------------------------------
# BufferPool lifecycle
# ---------------------------------------------------------------------------
class TestBufferPool:
    def test_lease_fill_fetch_recycle(self):
        pool = shm.BufferPool(shm.new_launch_id(), 0)
        client = shm.PoolClient()
        try:
            a = np.random.rand(64, 64)
            lease = pool.lease(a.nbytes)
            ref = lease.fill(a)
            assert pool.in_flight() == 1
            got = client.fetch(ref)
            assert np.array_equal(got, a)
            assert got.flags.writeable
            assert pool.in_flight() == 0  # fetch recycled the slot
            # the freed slot is reused, not re-allocated
            again = pool.lease(a.nbytes)
            assert again.fill(a).name == ref.name
            again.cancel()
            assert pool.in_flight() == 0
        finally:
            client.close_all()
            pool.unlink_all()
        assert_no_segments()

    def test_ring_grows_slab_for_bigger_payloads(self):
        pool = shm.BufferPool(shm.new_launch_id(), 0)
        client = shm.PoolClient()
        try:
            small = pool.lease(1024)
            ref1 = small.fill(np.arange(128.0))
            client.release(ref1)
            big = np.random.rand(512, 512)  # far beyond MIN_SLAB
            ref2 = pool.lease(big.nbytes).fill(big)
            assert ref2.capacity > ref1.capacity
            assert np.array_equal(client.fetch(ref2), big)
        finally:
            client.close_all()
            pool.unlink_all()
        assert_no_segments()

    def test_regrown_slab_replaces_the_clients_old_mapping(self,
                                                            monkeypatch):
        # the owner unlinks a slot's old generation when it regrows it;
        # a client that kept its mapping would pin those pages for its
        # whole life (the fleet funnel's client lives as long as the
        # fleet).  A one-slot ring makes the second lease regrow it.
        monkeypatch.setattr(shm, "POOL_SLOTS", 1)
        pool = shm.BufferPool(shm.new_launch_id(), 0)
        client = shm.PoolClient()
        try:
            small = np.arange(64 * 1024 // 8, dtype=np.float64)
            big = np.arange(256 * 1024 // 8, dtype=np.float64)
            ref1 = pool.lease(small.nbytes).fill(small)
            assert np.array_equal(client.fetch(ref1), small)
            ref2 = pool.lease(big.nbytes).fill(big)
            assert (ref2.name, ref1.capacity, ref2.capacity) == (
                ref1.name, 64 * 1024, 256 * 1024)
            assert np.array_equal(client.fetch(ref2), big)
            assert len(client._cache) == 1
            if os.path.exists("/proc/self/maps"):
                with open("/proc/self/maps") as fh:
                    stale = [line for line in fh
                             if ref1.name in line and "(deleted)" in line]
                assert stale == []
        finally:
            client.close_all()
            pool.unlink_all()
        assert_no_segments()

    def test_exhausted_ring_degrades_instead_of_blocking(self,
                                                         monkeypatch):
        monkeypatch.setattr(shm, "POOL_SLOTS", 2)
        monkeypatch.setattr(shm, "LEASE_TIMEOUT", 0.1)
        pool = shm.BufferPool(shm.new_launch_id(), 0)
        plane = shm.DataPlane(pool)
        try:
            l1, l2 = pool.lease(1024), pool.lease(1024)
            assert l1 is not None and l2 is not None
            t0 = time.monotonic()
            assert pool.lease(1024) is None  # both slots in flight
            assert time.monotonic() - t0 < 1.0
            # the plane falls back to the inline path on exhaustion
            arr = np.arange(shm.SHM_THRESHOLD / 8)
            out = plane.outbound(arr)
            assert isinstance(out, np.ndarray)
            assert pool.fallbacks >= 1
            l1.cancel()
            l2.cancel()
        finally:
            plane.close()
            pool.unlink_all()
        assert_no_segments()

    def test_parent_sweep_covers_abandoned_slabs(self):
        """Rank-failure cleanup: slabs leased by a rank that died are
        reclaimed by the parent's deterministic name sweep."""
        launch = shm.new_launch_id()
        pool = shm.BufferPool(launch, 3)
        pool.lease(1 << 17).fill(np.random.rand(128, 128))  # never freed
        pool.close()  # the owner process is gone; segments remain
        removed = shm.unlink_pool(launch, max_ranks=4)
        assert removed == 1
        assert_no_segments()

    def test_plane_container_roundtrip_and_owned_semantics(self):
        pool = shm.BufferPool(shm.new_launch_id(), 0)
        plane = shm.DataPlane(pool)
        try:
            a = np.random.rand(64, 64)  # exactly SHM_THRESHOLD bytes
            payload = (("shape", a.shape), [a, np.arange(4)], {"x": a * 2})
            out = plane.outbound(payload)
            assert isinstance(out[1][0], shm.ShmRef)
            assert isinstance(out[2]["x"], shm.ShmRef)
            assert isinstance(out[1][1], np.ndarray)  # under threshold
            back = plane.inbound(out)
            assert np.array_equal(back[1][0], a)
            assert np.array_equal(back[2]["x"], a * 2)
            assert pool.in_flight() == 0
            # un-owned small arrays are defensively copied
            small = np.arange(8.0)
            sent = plane.outbound(small)
            assert sent is not small
            assert plane.outbound(small, owned=True) is small
        finally:
            plane.close()
            pool.unlink_all()
        assert_no_segments()

    @pytest.mark.parametrize("dtype", [
        np.dtype([("i", "<i4"), ("x", "<f8")]),                  # packed
        np.dtype([("i", "<i4"), ("x", "<f8")], align=True),      # padded
        np.dtype({"names": ["a", "b"], "formats": ["<i2", ">f4"],
                  "offsets": [0, 8], "itemsize": 16}),           # gaps
        np.dtype([("p", "<f8", (2,)), ("q", [("u", "u1")])]),    # nested
    ], ids=["packed", "aligned", "offsets", "nested"])
    def test_structured_dtypes_round_trip_exactly(self, dtype):
        """A slab descriptor carries the full dtype (``dtype.str`` was
        ``"|Vn"`` for every structured dtype) and the slab copies every
        byte, padding included."""
        n = shm.SHM_THRESHOLD // dtype.itemsize + 7
        arr = np.zeros(n, dtype=dtype)
        raw = arr.view(np.uint8)
        raw[...] = np.arange(raw.size) % 251  # fields and padding alike
        pool = shm.BufferPool(shm.new_launch_id(), 0)
        plane = shm.DataPlane(pool)
        try:
            for sent in (plane.outbound(arr), plane.pack_exact(arr)):
                assert isinstance(sent, shm.ShmRef)
                assert sent.dtype == dtype
                back = plane.inbound(sent)
                assert back.dtype == dtype and back.shape == arr.shape
                assert back.tobytes() == arr.tobytes()
            assert pool.in_flight() == 0
        finally:
            plane.close()
            pool.unlink_all()
        assert_no_segments()

    def test_one_payload_larger_than_the_ring_never_stalls(self,
                                                           monkeypatch):
        """A single payload with more large arrays than the ring has
        slots can never be satisfied by a recycle (nothing ships until
        packing finishes), so the overflow must go inline immediately
        instead of waiting out the lease timeout per array."""
        monkeypatch.setattr(shm, "POOL_SLOTS", 2)
        monkeypatch.setattr(shm, "LEASE_TIMEOUT", 5.0)
        pool = shm.BufferPool(shm.new_launch_id(), 0)
        plane = shm.DataPlane(pool)
        try:
            payload = [np.random.rand(64, 64) for _ in range(6)]
            t0 = time.monotonic()
            out = plane.outbound(payload)
            assert time.monotonic() - t0 < 1.0, "pack stalled on leases"
            assert sum(isinstance(x, shm.ShmRef) for x in out) == 2
            assert pool.fallbacks == 4
            back = plane.inbound(out)
            for a, b in zip(back, payload):
                assert np.array_equal(a, b)
            # the next payload gets a fresh budget and the freed slots
            assert isinstance(plane.outbound(payload[0]), shm.ShmRef)
        finally:
            plane.close()
            pool.unlink_all()
        assert_no_segments()

    def test_borrow_refs_are_zero_copy_views(self):
        """The checkpoint funnel's lent segments (``FunnelStore.lend``):
        a contiguous region of one ships as a ``"borrow"`` ref, which
        the parent's client reads in place, with no slab and no
        release protocol."""
        launch = shm.new_launch_id()
        client = shm.PoolClient()
        seg = shm.ShmSegment.allocate(shm.segment_name(launch, "F"),
                                      (32, 16), np.float64)
        try:
            src = seg.ndarray()
            src[...] = np.random.rand(32, 16)
            lent = {id(src): (seg.name, seg.size, src)}
            ref = shm.borrow_ref(lent, src[4:12])
            assert isinstance(ref, shm.ShmRef) and ref.kind == "borrow"
            view = client.view(ref)
            assert not view.flags.writeable
            assert np.array_equal(view, src[4:12])
            # the view aliases the source pages: a write shows through
            src[4, 0] = -1.0
            assert view[0, 0] == -1.0
            head = src.copy()
            client.release(ref)  # a borrow has no header word to reset
            np.testing.assert_array_equal(src, head)
            del view
            # non-contiguous regions and unlent arrays do not qualify
            assert shm.borrow_ref(lent, src[:, 2:5]) is None
            assert shm.borrow_ref(lent, np.zeros((4, 16))) is None
        finally:
            client.close_all()
            seg.unlink()
        assert_no_segments()


# ---------------------------------------------------------------------------
# end-to-end: the multiprocessing backend over the plane
# ---------------------------------------------------------------------------
def run_sor(tmp_path, tag, config, ckpt_strategy="master", **kw):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 policy=EveryN(3), ckpt_strategy=ckpt_strategy)
    res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                 entry="execute", config=config, fresh=True, **kw)
    return rt, res


def field_blobs(rt):
    """Every checkpoint's field bytes: the master store's, and each
    rank's shard's."""
    out = {("", c): rt.store.read(c).field_blobs()
           for c in rt.store.counts()}
    for c, ranks in rt.store.shard_counts().items():
        for rank in ranks:
            out[(rank, c)] = rt.store.shard(rank).read(c).field_blobs()
    return out


def slab_sends(res) -> float:
    reg = MetricsRegistry()
    reg.absorb_snapshot(res.metrics)
    return reg.value("repro_dsm_send_msgs_total", {"tier": "slab"})


class TestPlaneParity:
    """The plane-on arm is the sockets backend: its fields are private,
    so its co-located ranks move SOR rows through messages, which ride
    the slabs once the threshold is patched to 1 KiB before the ranks
    fork.  The plane-off arm is the simulated cluster, which has no
    plane."""

    @staticmethod
    def _parity(tmp_path, monkeypatch, strategy):
        monkeypatch.setattr(shm, "SHM_THRESHOLD", 1 << 10)
        rt_on, res_on = run_sor(
            tmp_path, "on", ExecConfig.distributed(3).with_backend(
                "sockets"), ckpt_strategy=strategy)
        rt_off, res_off = run_sor(tmp_path, "off", ExecConfig.distributed(3),
                                  ckpt_strategy=strategy)
        assert slab_sends(res_on) > 0, "the plane never engaged"
        assert res_on.value == res_off.value == pytest.approx(REF)
        assert res_on.vtime == res_off.vtime
        on, off = field_blobs(rt_on), field_blobs(rt_off)
        assert on.keys() == off.keys() and len(on) > 0
        assert on == off

    def test_plane_on_off_bit_identical_results_and_checkpoints(
            self, tmp_path, monkeypatch):
        """The transport must be invisible: same value, same virtual
        time, same checkpoint field bytes."""
        self._parity(tmp_path, monkeypatch, "master")

    def test_plane_parity_under_local_shard_strategy(self, tmp_path,
                                                     monkeypatch):
        """The same, for every rank's checkpoint shard."""
        from repro.core.context import STRATEGY_LOCAL

        self._parity(tmp_path, monkeypatch, STRATEGY_LOCAL)

    def test_funnelled_structured_field_keeps_its_dtype(self, tmp_path):
        """A structured SafeData field past the slab threshold rides the
        funnel's slabs and is written with its dtype, not as ``|Vn``."""
        cfg = ExecConfig.distributed(2).with_backend("multiproc")
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "tags",
                     policy=EveryN(4))
        res = rt.run(TAGGED, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=cfg, fresh=True)
        assert res.value == pytest.approx(REF)
        tags = rt.store.read_latest().fields["tags"]
        assert tags.dtype == REC
        np.testing.assert_array_equal(tags["i"], np.arange(TAG_N))
        np.testing.assert_array_equal(tags["x"], np.arange(TAG_N) / 4)
        assert_no_segments()

    def test_pool_survives_elastic_park_unpark_without_leaks(
            self, tmp_path, monkeypatch):
        """Grow + shrink membership transitions with a forced-low
        threshold (patched before the ranks fork): slabs are leased on
        both sides of each transition and every segment is gone
        afterwards."""
        monkeypatch.setattr(shm, "SHM_THRESHOLD", 1 << 10)
        cfg = ExecConfig.distributed(2).with_backend("multiproc")
        plan = AdaptationPlan([
            AdaptStep(at=3, config=ExecConfig.distributed(4)
                      .with_backend("multiproc")),
            AdaptStep(at=7, config=cfg)])
        rt, res = run_sor(tmp_path, "elastic", cfg, plan=plan)
        assert res.value == pytest.approx(REF)
        assert res.relaunches == 0
        assert len(res.in_place_reshapes) == 2
        assert_no_segments()

    def test_plane_survives_rank_failure_and_recovery(self, tmp_path,
                                                      monkeypatch):
        """An injected rank failure mid-phase: the driver restarts from
        the checkpoint and no slab or segment outlives the launch."""
        monkeypatch.setattr(shm, "SHM_THRESHOLD", 1 << 10)
        cfg = ExecConfig.distributed(3).with_backend("multiproc")
        rt, res = run_sor(tmp_path, "fail", cfg,
                          injector=FailureInjector(fail_at=6, rank=1),
                          auto_recover=True)
        assert res.value == pytest.approx(REF)
        assert_no_segments()


# ---------------------------------------------------------------------------
# the flat collectives
# ---------------------------------------------------------------------------
class TestFlatCollectives:
    """The paper's root funnel, checked against closed-form values."""

    @pytest.mark.parametrize("nranks", [2, 3, 4, 5, 8])
    def test_flat_collectives_give_closed_form_values(self, nranks):
        from repro.dsm.comm import current_rank
        from repro.dsm.simcluster import SimCluster

        def entry():
            ctx = current_rank()
            c = ctx.comm
            b = c.bcast(np.arange(4.0) if ctx.rank == 1 else None, root=1)
            g = c.gather(np.arange(6.0) * (ctx.rank + 1), root=0)
            r = c.reduce(float(ctx.rank + 1), root=0)
            ag = c.allreduce(ctx.rank * 2)
            return (b.tolist(),
                    None if g is None else [x.tolist() for x in g],
                    r, ag)

        cl = SimCluster(nranks, MACHINE)
        try:
            got = cl.run(entry)
        finally:
            cl.shutdown()
        assert cl.max_time > 0
        gathered = [[float(i * (r + 1)) for i in range(6)]
                    for r in range(nranks)]
        total = nranks * (nranks + 1) / 2
        evens = nranks * (nranks - 1)  # the sum of 2r
        assert got[0] == ([0.0, 1.0, 2.0, 3.0], gathered, total, evens)
        for rank in range(1, nranks):
            assert got[rank] == ([0.0, 1.0, 2.0, 3.0], None, None, evens)
