"""Tests for the checkpoint substrate: snapshot, store, ledger, policy,
replay, failure injection."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ckpt import (
    AtCounts,
    CheckpointStore,
    EveryN,
    FailureInjector,
    InjectedFailure,
    Never,
    ReplayState,
    RunLedger,
    SafePointCounter,
    Snapshot,
)
from repro.ckpt.snapshot import SnapshotCorrupt


class Thing:
    def __init__(self):
        self.G = np.arange(12.0).reshape(3, 4)
        self.step = 7
        self.name = "thing"


# ---------------------------------------------------------------------------
# Snapshot
# ---------------------------------------------------------------------------
class TestSnapshot:
    def test_capture_and_restore(self):
        t = Thing()
        snap = Snapshot.capture(t, ["G", "step"], count=42)
        t.G[:] = 0
        t.step = -1
        snap.restore_into(t)
        np.testing.assert_array_equal(t.G, np.arange(12.0).reshape(3, 4))
        assert t.step == 7

    def test_capture_is_deep(self):
        """Mutating the live object after capture must not change the snap."""
        t = Thing()
        snap = Snapshot.capture(t, ["G"], count=1)
        t.G[0, 0] = 999.0
        assert snap.fields["G"][0, 0] == 0.0

    def test_capture_missing_field_rejected(self):
        with pytest.raises(AttributeError, match="nope"):
            Snapshot.capture(Thing(), ["G", "nope"], count=1)

    def test_encode_decode_roundtrip(self):
        t = Thing()
        snap = Snapshot.capture(t, ["G", "step", "name"], count=10,
                                mode="distributed", nranks=4)
        snap2 = Snapshot.decode(snap.encode())
        assert snap2.safepoint_count == 10
        assert snap2.mode == "distributed"
        assert snap2.meta == {"nranks": 4}
        assert snap2.app == "Thing"
        np.testing.assert_array_equal(snap2.fields["G"], t.G)
        assert snap2.fields["step"] == 7 and snap2.fields["name"] == "thing"

    def test_decode_detects_corruption(self):
        snap = Snapshot.capture(Thing(), ["G"], count=1)
        data = bytearray(snap.encode())
        data[len(data) // 2] ^= 0xFF
        with pytest.raises(SnapshotCorrupt):
            Snapshot.decode(bytes(data))

    def test_decode_rejects_garbage(self):
        with pytest.raises(SnapshotCorrupt):
            Snapshot.decode(b"not a snapshot at all")

    def test_nbytes_counts_payload(self):
        snap = Snapshot.capture(Thing(), ["G"], count=1)
        assert snap.nbytes >= 96  # 12 float64s

    @given(st.integers(0, 1000), st.lists(st.floats(allow_nan=False,
                                                    allow_infinity=False),
                                          min_size=1, max_size=20))
    def test_roundtrip_property(self, count, values):
        class Obj:
            pass

        o = Obj()
        o.data = np.asarray(values)
        snap = Snapshot.decode(Snapshot.capture(o, ["data"], count).encode())
        assert snap.safepoint_count == count
        np.testing.assert_array_equal(snap.fields["data"], o.data)


# ---------------------------------------------------------------------------
# CheckpointStore
# ---------------------------------------------------------------------------
class TestStore:
    def test_write_read_latest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        t = Thing()
        store.write(Snapshot.capture(t, ["G"], count=5))
        t.G[:] = 1.0
        store.write(Snapshot.capture(t, ["G"], count=9))
        latest = store.read_latest()
        assert latest.safepoint_count == 9
        np.testing.assert_array_equal(latest.fields["G"], np.ones((3, 4)))

    def test_empty_store(self, tmp_path):
        assert CheckpointStore(tmp_path).read_latest() is None

    def test_counts_sorted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for c in (30, 10, 20):
            store.write(Snapshot.capture(Thing(), ["step"], count=c))
        assert store.counts() == [10, 20, 30]

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(Snapshot.capture(Thing(), ["step"], count=1))
        store.write(Snapshot.capture(Thing(), ["step"], count=2))
        # corrupt the newest file
        p = store.path_for(2)
        p.write_bytes(b"\x00" * 10)
        latest = store.read_latest()
        assert latest.safepoint_count == 1

    def test_prune_keeps_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for c in range(1, 6):
            store.write(Snapshot.capture(Thing(), ["step"], count=c))
        store.prune(keep=2)
        assert store.counts() == [4, 5]

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(Snapshot.capture(Thing(), ["step"], count=1))
        store.clear()
        assert store.counts() == []

    def test_last_write_nbytes(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(Snapshot.capture(Thing(), ["G"], count=1))
        assert store.last_write_nbytes > 96

    def test_no_tmp_litter(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(Snapshot.capture(Thing(), ["G"], count=1))
        assert not list(tmp_path.glob("*.tmp"))


# ---------------------------------------------------------------------------
# RunLedger (pcr)
# ---------------------------------------------------------------------------
class TestRunLedger:
    def test_fresh_start(self, tmp_path):
        ledger = RunLedger(tmp_path)
        assert ledger.status() == RunLedger.FRESH
        assert not ledger.previous_run_failed()

    def test_clean_run_cycle(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.mark_running()
        ledger.mark_completed()
        assert not RunLedger(tmp_path).previous_run_failed()

    def test_crash_detected(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.mark_running()
        # process dies here; a new "process" checks the ledger:
        assert RunLedger(tmp_path).previous_run_failed()

    def test_attempts_count(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.mark_running()
        ledger.mark_running()
        assert json.loads(ledger.path.read_text())["attempts"] == 2
        ledger.mark_completed()
        assert json.loads(ledger.path.read_text())["attempts"] == 2

    def test_torn_status_counts_as_crash(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.path.write_text("{not json")
        assert ledger.previous_run_failed()

    def test_reset(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.mark_running()
        ledger.reset()
        assert ledger.status() == RunLedger.FRESH


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------
class TestPolicies:
    def test_every_n(self):
        p = EveryN(5)
        due = [c for c in range(1, 21) if p.due(c) and (p.mark_taken(c) or True)]
        assert due == [5, 10, 15, 20]

    def test_every_n_idempotent_at_count(self):
        p = EveryN(2)
        assert p.due(2)
        p.mark_taken(2)
        assert not p.due(2)  # barrier action re-run must not re-checkpoint
        assert p.due(4)

    def test_every_n_validation(self):
        with pytest.raises(ValueError):
            EveryN(0)

    def test_at_counts(self):
        p = AtCounts([7, 11])
        assert [c for c in range(1, 15) if p.due(c)] == [7, 11]

    def test_never(self):
        p = Never()
        assert not any(p.due(c) for c in range(1, 100))

    @given(st.integers(1, 20), st.integers(1, 200))
    def test_every_n_deterministic(self, n, count):
        """Two fresh policies agree — the SPMD no-communication rule."""
        assert EveryN(n).due(count) == EveryN(n).due(count)


# ---------------------------------------------------------------------------
# SafePointCounter / ReplayState
# ---------------------------------------------------------------------------
class TestReplay:
    def test_counter_monotone(self):
        c = SafePointCounter()
        assert c.increment() == 1
        assert c.increment() == 2
        assert c.count == 2
        assert SafePointCounter(10).increment() == 11

    def test_replay_restores_at_target(self):
        t = Thing()
        snap = Snapshot.capture(t, ["G", "step"], count=3)
        t.G[:] = -5.0
        t.step = 0
        restored = []

        class Context:  # the hook ``complete`` drives, as core's does
            def _restore(self, snapshot, count):
                snapshot.restore_into(t)
                restored.append(count)

        rs = ReplayState.from_snapshot(snap)
        assert rs.active
        assert not rs.observe_safepoint(1)
        assert not rs.observe_safepoint(2)
        assert rs.observe_safepoint(3)  # fires exactly here
        assert not rs.active and restored == []
        rs.complete(Context(), 3)
        assert restored == [3]
        assert t.step == 7
        np.testing.assert_array_equal(t.G, np.arange(12.0).reshape(3, 4))

    def test_restore_fires_once(self):
        rs = ReplayState(target=2, snapshot=None)
        assert not rs.observe_safepoint(1)
        assert rs.observe_safepoint(2)
        assert not rs.observe_safepoint(3)

    def test_target_zero_never_active(self):
        rs = ReplayState(target=0)
        assert not rs.active
        assert not rs.observe_safepoint(1)

    def test_overshoot_still_restores(self):
        """If replay skips past the exact count, the next safe point fires."""
        rs = ReplayState(target=5)
        assert rs.observe_safepoint(6)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            ReplayState(target=-1)


# ---------------------------------------------------------------------------
# failure injection
# ---------------------------------------------------------------------------
class TestFailureInjector:
    def test_fires_at_safepoint(self):
        inj = FailureInjector(fail_at=3)
        inj.check(1)
        inj.check(2)
        with pytest.raises(InjectedFailure) as ei:
            inj.check(3)
        assert ei.value.safepoint == 3

    def test_fires_once(self):
        inj = FailureInjector(fail_at=2)
        with pytest.raises(InjectedFailure):
            inj.check(2)
        inj.check(2)  # restarted run survives the same point
        assert not inj.armed

    def test_repeat_mode(self):
        inj = FailureInjector(fail_at=1, repeat=True)
        for _ in range(3):
            with pytest.raises(InjectedFailure):
                inj.check(1)
        assert inj.armed

    def test_rank_scoping(self):
        inj = FailureInjector(fail_at=1, rank=2)
        inj.check(1, rank=0)  # other ranks unaffected
        with pytest.raises(InjectedFailure):
            inj.check(1, rank=2)

    def test_overshoot_fires(self):
        inj = FailureInjector(fail_at=5)
        with pytest.raises(InjectedFailure):
            inj.check(9)

    def test_disarm(self):
        inj = FailureInjector(fail_at=1)
        inj.disarm()
        inj.check(1)
        assert not inj.armed

    def test_rearm(self):
        inj = FailureInjector()
        assert not inj.armed
        inj.arm(4)
        assert inj.armed
        with pytest.raises(InjectedFailure):
            inj.check(4)
