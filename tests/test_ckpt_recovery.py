"""Recovery-path integration: corrupt-checkpoint degradation, the
restart-adaptation read-by-count fix, and crash recovery through the
CAS + async checkpointing subsystem."""

import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE, SOR_CKPT
from repro.apps.sor import SOR
from repro.ckpt import (
    CasCheckpointStore,
    EveryN,
    FailureInjector,
    IncrementalCheckpointStore,
    InjectedFailure,
)
from repro.ckpt.snapshot import KIND_RECIPE, decode_envelope
from repro.core import (
    AdaptStep,
    AdaptationPlan,
    ExecConfig,
    Runtime,
    WeaveError,
    plug,
)
from repro.vtime import MachineModel
from test_ckpt_cas import flip_stored_byte

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 40, 10
REF = SOR(n=N, iterations=ITERS).execute()
W_SEQ = plug(SOR, SOR_CKPT)
W_ADAPT = plug(SOR, SOR_ADAPTIVE)


def make_rt(tmp_path, **kw):
    kw.setdefault("machine", MACHINE)
    return Runtime(ckpt_dir=tmp_path / "ckpt", **kw)


def run_sor(rt, **kw):
    kw.setdefault("config", ExecConfig.sequential())
    return rt.run(W_SEQ, ctor_kwargs={"n": N, "iterations": ITERS},
                  entry="execute", **kw)


# ---------------------------------------------------------------------------
# corrupt-checkpoint degradation (store + full recovery loop)
# ---------------------------------------------------------------------------
class TestCorruptionDegradation:
    def _crash_with_two_checkpoints(self, tmp_path, **rt_kw):
        rt = make_rt(tmp_path, policy=EveryN(3), **rt_kw)
        with pytest.raises(InjectedFailure):
            run_sor(rt, injector=FailureInjector(fail_at=8), fresh=True)
        assert rt.store.counts() == [3, 6]
        return rt

    def test_truncated_newest_recovers_from_older(self, tmp_path):
        rt = self._crash_with_two_checkpoints(tmp_path)
        p = rt.store.path_for(6)
        p.write_bytes(p.read_bytes()[: 30])  # torn write
        latest = rt.store.read_latest()
        assert latest.safepoint_count == 3
        res = run_sor(rt)  # pcr sees the crash, replays from count 3
        assert res.value == REF
        assert res.events.of_kind("pcr_replay_engaged")[-1].data["count"] == 3

    def test_bitflipped_newest_recovers_from_older(self, tmp_path):
        rt = self._crash_with_two_checkpoints(tmp_path)
        p = rt.store.path_for(6)
        data = bytearray(p.read_bytes())
        data[len(data) // 2] ^= 0x10
        p.write_bytes(bytes(data))
        assert rt.store.read_latest().safepoint_count == 3
        assert run_sor(rt).value == REF

    def test_all_checkpoints_corrupt_recomputes_from_scratch(self, tmp_path):
        rt = self._crash_with_two_checkpoints(tmp_path)
        for c in (3, 6):
            rt.store.path_for(c).write_bytes(b"\x00" * 16)
        assert rt.store.read_latest() is None
        assert run_sor(rt).value == REF

    def test_corrupt_cas_block_degrades_and_recovers(self, tmp_path):
        rt = self._crash_with_two_checkpoints(tmp_path, ckpt_cas=True)

        def grid_blocks(count):
            header, _ = decode_envelope(rt.store.path_for(count).read_bytes())
            return {d for d, _ in header["recipe"]["G"]}

        # damage one pack block only the newest recipe references
        newest_only = grid_blocks(6) - grid_blocks(3)
        flip_stored_byte(rt.store.cas, sorted(newest_only)[0], 0x10)
        assert rt.store.verify(6) == ["G"] and rt.store.verify(3) == []
        latest = rt.store.read_latest()
        assert latest.safepoint_count == 3
        ref = SOR(n=N, iterations=3)
        ref.execute()
        assert latest.fields["G"].tobytes() == ref.G.tobytes()
        res = run_sor(rt)  # pcr replays from count 3
        assert res.value == REF
        assert res.events.of_kind("pcr_replay_engaged")[-1].data["count"] == 3


# ---------------------------------------------------------------------------
# restart-based adaptation reads the checkpoint at its exit count
# ---------------------------------------------------------------------------
class TestRestartAdaptationByCount:
    def test_adapts_even_when_newer_checkpoints_exist(self, tmp_path):
        """Regression: the runtime demanded that the *latest* checkpoint
        match ``step.at`` and raised WeaveError when newer files (e.g.
        from an earlier, longer run in the same directory) were present —
        even though the checkpoint at ``step.at`` was sitting on disk."""
        rt1 = make_rt(tmp_path, policy=EveryN(2))
        assert run_sor(rt1, fresh=True).value == REF
        assert max(rt1.store.counts()) == 10  # stale newer checkpoints

        plan = AdaptationPlan(
            [AdaptStep(at=3, config=ExecConfig.shared(2), via_restart=True)])
        rt2 = make_rt(tmp_path)
        res = rt2.run(W_ADAPT, ctor_kwargs={"n": N, "iterations": ITERS},
                      entry="execute", config=ExecConfig.sequential(),
                      plan=plan)
        assert res.value == REF
        assert res.adaptations[0].via_restart
        assert res.adaptations[0].at_count == 3

    def test_missing_checkpoint_still_raises_weave_error(self, tmp_path,
                                                         monkeypatch):
        plan = AdaptationPlan(
            [AdaptStep(at=3, config=ExecConfig.shared(2), via_restart=True)])
        rt = make_rt(tmp_path)
        # simulate the adaptation checkpoint being lost before relaunch
        orig_write = rt.store.write
        monkeypatch.setattr(
            rt.store, "write",
            lambda snap: (orig_write(snap),
                          rt.store.path_for(snap.safepoint_count).unlink())[0])
        with pytest.raises(WeaveError, match="no checkpoint"):
            rt.run(W_ADAPT, ctor_kwargs={"n": N, "iterations": ITERS},
                   entry="execute", config=ExecConfig.sequential(),
                   plan=plan, fresh=True)


# ---------------------------------------------------------------------------
# CAS + async end-to-end
# ---------------------------------------------------------------------------
class TestCasAsyncRuntime:
    @pytest.mark.parametrize("kw", [
        dict(ckpt_cas=True),
        dict(ckpt_async=True),
        dict(ckpt_cas=True, ckpt_async=True),
        dict(ckpt_cas=True, ckpt_async=True, ckpt_compress_min_bytes=1024),
    ], ids=["cas", "async", "cas+async", "cas+async+zlib"])
    def test_crash_recovery_matches_reference(self, tmp_path, kw):
        rt = make_rt(tmp_path, policy=EveryN(2), **kw)
        res = run_sor(rt, injector=FailureInjector(fail_at=7),
                      auto_recover=True, fresh=True)
        assert res.value == REF
        assert res.restarts == 1

    def test_old_spelling_writes_cas_recipes(self, tmp_path):
        """``ckpt_delta`` is the old name of ``ckpt_cas``, and
        ``IncrementalCheckpointStore`` of the CAS store."""
        assert IncrementalCheckpointStore is CasCheckpointStore
        rt = make_rt(tmp_path, policy=EveryN(1), ckpt_delta=True)
        assert isinstance(rt.store, CasCheckpointStore)
        res = run_sor(rt, fresh=True)
        assert res.value == REF
        kinds = {e.data["ckpt_kind"]
                 for e in res.events.of_kind("checkpoint")}
        assert kinds == {KIND_RECIPE}

    def test_async_events_tagged_and_cheaper(self, tmp_path):
        rt_sync = make_rt(tmp_path / "s", policy=EveryN(2))
        res_sync = run_sor(rt_sync, fresh=True)
        rt_async = make_rt(tmp_path / "a", policy=EveryN(2), ckpt_async=True)
        res_async = run_sor(rt_async, fresh=True)
        assert res_async.value == REF
        evs = res_async.events.of_kind("checkpoint")
        assert all(e.data["asynchronous"] for e in evs)
        # W_SEQ plugs no ForMethod, so no compute separates the
        # checkpoints: each write is still in flight when the next is
        # submitted, async degrades to sync pacing, and the buffer copy
        # every submission pays on the critical path makes it read
        # slower than sync, by at most the sum of those copies.
        copies = sum(MACHINE.disk.copy_cost(e.data["written"]) for e in evs)
        assert res_async.vtime <= res_sync.vtime + copies

    def test_async_cheaper_when_compute_covers_the_write(self, tmp_path):
        """Five SOR 200 iterations (~14 ms of compute) outlast one
        ~7.7 ms grid write, so async hides the first write entirely and
        waits out only the last, at the end of the run."""
        kw = {"n": 200, "iterations": 10}
        runs = {}
        for label, rt_kw in (("sync", {}), ("async", {"ckpt_async": True})):
            rt = make_rt(tmp_path / label, policy=EveryN(5), **rt_kw)
            runs[label] = rt.run(W_ADAPT, ctor_kwargs=kw, entry="execute",
                                 config=ExecConfig.sequential(), fresh=True)
        written = [e.data["written"]
                   for e in runs["async"].events.of_kind("checkpoint")]
        assert len(written) == 2
        disk = MACHINE.disk
        assert runs["async"].vtime < runs["sync"].vtime
        assert runs["async"].vtime == pytest.approx(
            runs["sync"].vtime - disk.write_cost(written[0])
            + sum(map(disk.copy_cost, written)), rel=1e-12)

    def test_restart_adaptation_through_cas_store(self, tmp_path):
        plan = AdaptationPlan(
            [AdaptStep(at=5, config=ExecConfig.shared(2), via_restart=True)])
        rt = make_rt(tmp_path, policy=EveryN(2), ckpt_cas=True,
                     ckpt_async=True)
        res = rt.run(W_ADAPT, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=ExecConfig.sequential(),
                     plan=plan, fresh=True)
        assert res.value == REF
        assert res.adaptations[0].via_restart

    def test_distributed_recovery_with_cas_async(self, tmp_path):
        rt = make_rt(tmp_path, policy=EveryN(3), ckpt_cas=True,
                     ckpt_async=True)
        res = rt.run(W_ADAPT, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=ExecConfig.distributed(2),
                     injector=FailureInjector(fail_at=5),
                     auto_recover=True, fresh=True)
        assert res.value == REF
