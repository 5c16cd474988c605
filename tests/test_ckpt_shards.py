"""The STRATEGY_LOCAL per-rank shard path: shard sub-stores beside the
master namespace, stale-shard sweeps, and reassembly of a master-format
snapshot from a shard set."""

import numpy as np
import pytest

from repro.ckpt import CasCheckpointStore, EveryN
from repro.core import (
    ExecConfig,
    PlugSet,
    Runtime,
    SafeData,
    SafePointAfter,
    STRATEGY_LOCAL,
    plug,
)
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)


class Drift:
    """A large static table plus a small evolving state."""

    def __init__(self, n=20000, iterations=10):
        self.table = np.arange(n, dtype=np.float64)  # never changes
        self.state = np.zeros(8)
        self.step = 0
        self.iterations = iterations

    def execute(self):
        for _ in range(self.iterations):
            self.advance()
            self.tick()
        return float(self.state.sum())

    def advance(self):
        self.state += 1.0

    def tick(self):
        self.step += 1


PLUGS = PlugSet(SafeData("table", "state", "step"), SafePointAfter("tick"))
WOVEN = plug(Drift, PLUGS)


def run_local(tmp_path, nranks=3, iterations=10):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                 policy=EveryN(1), ckpt_strategy=STRATEGY_LOCAL,
                 ckpt_cas=True)
    res = rt.run(WOVEN, ctor_kwargs={"iterations": iterations},
                 entry="execute", config=ExecConfig.distributed(nranks),
                 fresh=True)
    return rt, res


class TestLocalShards:
    def test_every_rank_writes_its_own_shards(self, tmp_path):
        rt, _ = run_local(tmp_path, nranks=3)
        for rank in range(3):
            shard = rt.store.shard(rank)
            assert isinstance(shard, CasCheckpointStore)
            assert shard.counts() == list(range(1, 11))
            snap = shard.read(7)
            assert snap.safepoint_count == 7
            assert snap.fields["step"] == 7
            np.testing.assert_array_equal(snap.fields["state"],
                                          np.full(8, 7.0))
            np.testing.assert_array_equal(
                snap.fields["table"], np.arange(20000, dtype=np.float64))

    def test_shard_files_live_beside_master_namespace(self, tmp_path):
        rt, _ = run_local(tmp_path, nranks=2)
        shards = sorted(p.name for p in rt.store.dir.glob("ckpt_*.r*.pcr"))
        assert len(shards) == 20  # 10 checkpoints x 2 ranks
        # master-format listing must not see shard files
        assert rt.store.counts() == []

    def test_fresh_run_sweeps_stale_shards(self, tmp_path):
        rt, _ = run_local(tmp_path, nranks=3)
        assert list(rt.store.dir.glob("ckpt_*.r*.pcr"))
        rt2, _ = run_local(tmp_path, nranks=2)
        ranks = {p.name.split(".")[-2] for p in
                 rt2.store.dir.glob("ckpt_*.r*.pcr")}
        assert ranks == {"r0", "r1"}  # rank 2's stale shards are gone

    def test_shard_store_validation(self, tmp_path):
        rt, _ = run_local(tmp_path, nranks=2)
        with pytest.raises(ValueError, match="sharded again"):
            rt.store.shard(0).shard(0)
        with pytest.raises(ValueError, match=">= 0"):
            rt.store.shard(-1)


class TestShardAssembly:
    """The STRATEGY_LOCAL *read* path: reassembling a master-format
    snapshot from same-shape per-rank shards, making the local strategy
    survivable (shards used to be write-only cost accounting)."""

    def _crash_sor(self, tmp_path, nranks=3, fail_at=7):
        from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
        from repro.apps.sor import SOR
        from repro.ckpt import FailureInjector, InjectedFailure

        woven = plug(SOR, SOR_ADAPTIVE)
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                     policy=EveryN(3), ckpt_strategy=STRATEGY_LOCAL)
        with pytest.raises(InjectedFailure):
            rt.run(woven, ctor_kwargs={"n": 24, "iterations": 10},
                   entry="execute", config=ExecConfig.distributed(nranks),
                   injector=FailureInjector(fail_at=fail_at), fresh=True)
        return rt, woven

    def test_assemble_matches_master_format(self, tmp_path):
        rt, woven = self._crash_sor(tmp_path)
        assert rt.store.counts() == []  # nothing in the master namespace
        assert sorted(rt.store.shard_counts()) == [3, 6]
        parts = woven.__pp_plugs__.partitioned_fields()
        snap = rt.store.assemble_from_shards(6, parts)
        assert snap is not None
        assert snap.safepoint_count == 6
        assert snap.meta["assembled_from_shards"] == 3
        # the reassembled grid equals a sequential reference at count 6
        from repro.apps.sor import SOR

        ref = SOR(n=24, iterations=6)
        ref.execute()
        assert np.array_equal(snap.fields["G"], ref.G)
        assert snap.fields["iterations_done"] == 6

    def test_restart_survives_on_shards_alone(self, tmp_path):
        """pcr replay after a crash finds no master file and recovers
        from the shard set — in a different execution mode."""
        from repro.apps.sor import SOR

        rt, woven = self._crash_sor(tmp_path)
        ref = SOR(n=24, iterations=10).execute()
        rt2 = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                      policy=EveryN(3), ckpt_strategy=STRATEGY_LOCAL)
        res = rt2.run(woven, ctor_kwargs={"n": 24, "iterations": 10},
                      entry="execute", config=ExecConfig.shared(2))
        assert res.value == ref
        assert res.events.of_kind("pcr_replay_engaged")

    def test_auto_recover_survives_on_shards_alone(self, tmp_path):
        from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
        from repro.apps.sor import SOR
        from repro.ckpt import FailureInjector

        ref = SOR(n=24, iterations=10).execute()
        woven = plug(SOR, SOR_ADAPTIVE)
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                     policy=EveryN(3), ckpt_strategy=STRATEGY_LOCAL)
        res = rt.run(woven, ctor_kwargs={"n": 24, "iterations": 10},
                     entry="execute", config=ExecConfig.distributed(3),
                     injector=FailureInjector(fail_at=7),
                     auto_recover=True, fresh=True)
        assert res.value == ref
        assert res.restarts == 1

    def test_incomplete_shard_set_returns_none(self, tmp_path):
        rt, woven = self._crash_sor(tmp_path)
        parts = woven.__pp_plugs__.partitioned_fields()
        # lose one member's shard: the set no longer reassembles
        rt.store.shard(1).path_for(6).unlink()
        assert rt.store.assemble_from_shards(6, parts) is None
        # ...but the older complete set still does
        older = rt.store.assemble_latest_from_shards(parts)
        assert older is not None and older.safepoint_count == 3

    def test_assemble_without_any_shards(self, tmp_path):
        store = CasCheckpointStore(tmp_path / "empty")
        assert store.assemble_from_shards(1, {}) is None
        assert store.assemble_latest_from_shards({}) is None
