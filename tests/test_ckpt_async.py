"""Asynchronous checkpoint writer: durability barrier, error stickiness,
the double-buffer vtime model, and RunLedger write durability."""

import os

import numpy as np
import pytest

from repro.ckpt import (
    AsyncCheckpointWriter,
    AsyncWriteFailed,
    CheckpointStore,
    RunLedger,
    Snapshot,
)
from repro.ckpt import writer
from repro.core.context import ExecutionContext
from repro.core.modes import ExecConfig
from repro.vtime.machine import MachineModel


class Thing:
    def __init__(self):
        self.G = np.arange(12.0).reshape(3, 4)
        self.step = 7


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------
class TestWriter:
    def test_flush_is_durability_barrier(self, tmp_path):
        w = AsyncCheckpointWriter()
        w.submit(tmp_path / "a.bin", b"payload")
        w.flush()
        assert (tmp_path / "a.bin").read_bytes() == b"payload"
        w.close()

    def test_many_writes_all_land(self, tmp_path):
        w = AsyncCheckpointWriter()
        for i in range(20):
            w.submit(tmp_path / f"f{i}.bin", bytes([i]) * 100)
        w.flush()
        for i in range(20):
            assert (tmp_path / f"f{i}.bin").read_bytes() == bytes([i]) * 100
        assert w.writes_completed == 20
        w.close()

    def test_error_is_sticky_and_raised_at_flush(self, tmp_path):
        w = AsyncCheckpointWriter()
        w.submit(tmp_path / "missing-dir" / "x.bin", b"data")
        with pytest.raises(AsyncWriteFailed):
            w.flush()
        w.close()

    def test_no_tmp_litter(self, tmp_path):
        w = AsyncCheckpointWriter()
        for i in range(5):
            w.submit(tmp_path / f"f{i}.bin", b"x" * 50)
        w.flush()
        w.close()
        assert not list(tmp_path.glob("*.tmp"))

    def test_close_idempotent(self, tmp_path):
        w = AsyncCheckpointWriter()
        w.submit(tmp_path / "a.bin", b"z")
        w.close()
        w.close()
        with pytest.raises(RuntimeError):
            w.submit(tmp_path / "b.bin", b"z")


# ---------------------------------------------------------------------------
# store + writer integration
# ---------------------------------------------------------------------------
class TestAsyncStore:
    def test_write_visible_after_flush(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.attach_writer(AsyncCheckpointWriter())
        store.write(Snapshot.capture(Thing(), ["G", "step"], count=4))
        store.flush()
        snap = store.read_latest()
        assert snap.safepoint_count == 4
        np.testing.assert_array_equal(snap.fields["G"],
                                      np.arange(12.0).reshape(3, 4))
        store.close()

    def test_submission_is_immune_to_later_mutation(self, tmp_path):
        """The bytes handed to the writer are an immutable copy: mutating
        the live object after write() cannot tear the file."""
        store = CheckpointStore(tmp_path)
        store.attach_writer(AsyncCheckpointWriter())
        t = Thing()
        store.write(Snapshot.capture(t, ["G"], count=1))
        t.G[:] = -1.0
        store.flush()
        np.testing.assert_array_equal(
            store.read(1).fields["G"], np.arange(12.0).reshape(3, 4))
        store.close()

    def test_prune_flushes_first(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.attach_writer(AsyncCheckpointWriter())
        for c in (1, 2, 3):
            store.write(Snapshot.capture(Thing(), ["step"], count=c))
        store.prune(keep=1)  # must not race the in-flight writes
        assert store.counts() == [3]
        store.close()

    def test_sync_store_flush_is_noop(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.flush()  # no writer attached: must not fail
        assert not store.is_async


# ---------------------------------------------------------------------------
# the double-buffer vtime cost model
# ---------------------------------------------------------------------------
class TestAsyncVtimeModel:
    def _ctx(self, tmp_path, asynchronous):
        store = CheckpointStore(tmp_path)
        if asynchronous:
            store.attach_writer(AsyncCheckpointWriter())
        machine = MachineModel()
        ctx = ExecutionContext(config=ExecConfig.sequential(),
                               machine=machine, store=store)
        return ctx, machine

    def test_sync_write_charges_full_disk_cost(self, tmp_path):
        ctx, machine = self._ctx(tmp_path, asynchronous=False)
        ctx._charge_write(1_000_000)
        assert ctx.clock().now == pytest.approx(
            machine.disk.write_cost(1_000_000))

    def test_async_write_charges_only_the_copy(self, tmp_path):
        ctx, machine = self._ctx(tmp_path, asynchronous=True)
        ctx._charge_write(1_000_000)
        assert ctx.clock().now == pytest.approx(
            machine.disk.copy_cost(1_000_000))
        assert ctx.clock().now < machine.disk.write_cost(1_000_000) / 10

    def test_queue_absorbs_writes_up_to_depth(self, tmp_path):
        """Submissions only pay the copy while the bounded queue has
        room: DEPTH (2) images queued behind the one in flight."""
        ctx, machine = self._ctx(tmp_path, asynchronous=True)
        nb = 1_000_000
        for _ in range(3):  # 1 in flight + 2 queued: no stall yet
            ctx._charge_write(nb)
        assert ctx.clock().now == pytest.approx(
            3 * machine.disk.copy_cost(nb))

    def test_full_queue_stalls_until_a_write_lands(self, tmp_path):
        """With the queue full, submit waits for the earliest pending
        write — async degrades gracefully to disk pacing, never to
        unbounded queueing."""
        ctx, machine = self._ctx(tmp_path, asynchronous=True)
        nb = 1_000_000
        copy = machine.disk.copy_cost(nb)
        write = machine.disk.write_cost(nb)
        ctx._charge_write(nb)   # in flight
        ctx._charge_write(nb)   # queued
        ctx._charge_write(nb)   # queued
        assert ctx.clock().now == pytest.approx(3 * copy)
        ctx._charge_write(nb)   # queue full: waits for the first write
        assert ctx.clock().now == pytest.approx(copy + write)

    def test_deeper_queue_defers_stalls(self, tmp_path, monkeypatch):
        """The writer's depth is part of the cost model: a deeper queue
        absorbs the same burst with less critical-path time."""
        nb = 1_000_000

        def burst(depth):
            monkeypatch.setattr(writer, "DEPTH", depth)
            ctx, _ = self._ctx(tmp_path / f"d{depth}", asynchronous=True)
            for _ in range(5):
                ctx._charge_write(nb)
            return ctx.clock().now

        assert burst(4) < burst(1)

    def test_overlapped_write_is_free_after_enough_compute(self, tmp_path):
        ctx, machine = self._ctx(tmp_path, asynchronous=True)
        nb = 1_000_000
        ctx._charge_write(nb)
        ctx.clock().charge_compute(10.0)  # plenty to hide the write
        before = ctx.clock().now
        ctx._charge_write(nb)
        assert ctx.clock().now == pytest.approx(
            before + machine.disk.copy_cost(nb))

    def test_flush_barrier_charges_the_remainder(self, tmp_path):
        ctx, machine = self._ctx(tmp_path, asynchronous=True)
        nb = 1_000_000
        ctx._charge_write(nb)
        ctx.ckpt_flush_barrier()
        assert ctx.clock().now == pytest.approx(
            machine.disk.copy_cost(nb) + machine.disk.write_cost(nb))

    def test_flush_barrier_after_overlap_charges_nothing(self, tmp_path):
        ctx, machine = self._ctx(tmp_path, asynchronous=True)
        ctx._charge_write(1_000_000)
        ctx.clock().charge_compute(10.0)
        before = ctx.clock().now
        ctx.ckpt_flush_barrier()
        assert ctx.clock().now == before


# ---------------------------------------------------------------------------
# RunLedger durability
# ---------------------------------------------------------------------------
class TestLedgerDurability:
    def test_status_write_fsyncs_before_rename(self, tmp_path, monkeypatch):
        """Regression: the ledger renamed without fsync, so a crash could
        tear the very file that exists to witness crashes."""
        synced = []
        real_fsync = os.fsync
        real_replace = os.replace

        def spy_fsync(fd):
            synced.append("fsync")
            real_fsync(fd)

        def spy_replace(src, dst):
            synced.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        ledger = RunLedger(tmp_path)
        ledger.mark_running()
        assert "fsync" in synced
        assert synced.index("fsync") < synced.index("replace")
        assert ledger.status() == RunLedger.RUNNING

    def test_failed_write_leaves_no_tmp(self, tmp_path, monkeypatch):
        ledger = RunLedger(tmp_path)

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            ledger.mark_running()
        assert not list(tmp_path.glob("*.tmp"))
