"""Runtime edge cases: validation, recovery limits, strategies, results."""

import gc

import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE, SOR_CKPT, SOR_DIST
from repro.apps.sor import SOR
from repro.ckpt import AtCounts, EveryN, FailureInjector, InjectedFailure
from repro.core import (
    AdaptStep,
    AdaptationPlan,
    ExecConfig,
    Runtime,
    STRATEGY_LOCAL,
    WeaveError,
    plug,
)
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 40, 10
REF = SOR(n=N, iterations=ITERS).execute()


def make_rt(tmp_path, **kw):
    kw.setdefault("machine", MACHINE)
    return Runtime(ckpt_dir=tmp_path / "ckpt", **kw)


class TestValidation:
    def test_non_woven_class_rejected(self, tmp_path):
        with pytest.raises(WeaveError, match="not woven"):
            make_rt(tmp_path).run(SOR)

    def test_restart_adaptation_self_saves(self, tmp_path):
        """via_restart writes its own checkpoint at the adaptation point
        (the paper: "adaptation can be performed by checkpointing the
        application and restarting on a different mode") — no checkpoint
        policy needs to be active."""
        W = plug(SOR, SOR_ADAPTIVE)
        plan = AdaptationPlan(
            [AdaptStep(at=5, config=ExecConfig.shared(2), via_restart=True)])
        rt = make_rt(tmp_path)  # Never policy: no periodic checkpoints
        res = rt.run(W, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=ExecConfig.sequential(),
                     plan=plan, fresh=True)
        assert res.value == REF
        assert rt.store.read_latest().safepoint_count == 5
        assert res.adaptations[0].via_restart

    def test_duplicate_plan_steps_rejected(self):
        with pytest.raises(ValueError, match="two adaptation steps"):
            AdaptationPlan([AdaptStep(3, ExecConfig.shared(2)),
                            AdaptStep(3, ExecConfig.shared(4))])

    def test_step_at_zero_rejected(self):
        with pytest.raises(ValueError):
            AdaptStep(0, ExecConfig.shared(2))


class TestRecoveryLimits:
    def test_max_restarts_exceeded(self, tmp_path):
        W = plug(SOR, SOR_CKPT)
        rt = make_rt(tmp_path, policy=EveryN(3))
        # repeat=True: the failure re-fires on every attempt
        inj = FailureInjector(fail_at=5, repeat=True)
        with pytest.raises(InjectedFailure):
            rt.run(W, ctor_kwargs={"n": N, "iterations": ITERS},
                   entry="execute", config=ExecConfig.sequential(),
                   injector=inj, auto_recover=True, max_restarts=2,
                   fresh=True)

    def test_recover_config_applied(self, tmp_path):
        W = plug(SOR, SOR_ADAPTIVE)
        rt = make_rt(tmp_path, policy=EveryN(3))
        res = rt.run(W, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=ExecConfig.distributed(2),
                     injector=FailureInjector(fail_at=5),
                     auto_recover=True,
                     recover_config=lambda r: ExecConfig.distributed(4),
                     fresh=True)
        assert res.value == REF
        assert res.final_config == ExecConfig.distributed(4)

    def test_fresh_ignores_stale_state(self, tmp_path):
        W = plug(SOR, SOR_CKPT)
        rt = make_rt(tmp_path, policy=EveryN(3))
        with pytest.raises(InjectedFailure):
            rt.run(W, ctor_kwargs={"n": N, "iterations": ITERS},
                   entry="execute", config=ExecConfig.sequential(),
                   injector=FailureInjector(fail_at=5), fresh=True)
        # a fresh run must not replay the crashed run's checkpoint
        res = rt.run(W, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=ExecConfig.sequential(),
                     fresh=True)
        assert res.value == REF
        assert not res.events.of_kind("pcr_replay_engaged") or \
            res.events.of_kind("restore") == []


class TestLocalStrategy:
    def test_local_shards_written_and_restored(self, tmp_path):
        W = plug(SOR, SOR_DIST + SOR_CKPT)
        rt = make_rt(tmp_path, policy=AtCounts([4]),
                     ckpt_strategy=STRATEGY_LOCAL)
        kw = dict(ctor_kwargs={"n": N, "iterations": ITERS},
                  entry="execute", config=ExecConfig.distributed(3))
        with pytest.raises(InjectedFailure):
            rt.run(W, injector=FailureInjector(fail_at=7), fresh=True, **kw)
        shards = list(rt.store.dir.glob("ckpt_*.r*.pcr"))
        assert len(shards) == 3  # one shard per rank

    def test_local_strategy_events_tagged(self, tmp_path):
        W = plug(SOR, SOR_DIST + SOR_CKPT)
        rt = make_rt(tmp_path, policy=AtCounts([4]),
                     ckpt_strategy=STRATEGY_LOCAL)
        res = rt.run(W, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=ExecConfig.distributed(3),
                     fresh=True)
        assert res.value == REF
        evs = res.events.of_kind("checkpoint")
        assert evs and all(e.data["strategy"] == "local" for e in evs)

    def test_unknown_strategy_rejected(self, tmp_path):
        from repro.core.context import ExecutionContext

        with pytest.raises(ValueError):
            ExecutionContext(ExecConfig.sequential(), ckpt_strategy="nope")


class TestRunResult:
    def test_phase_accounting_plain_run(self, tmp_path):
        W = plug(SOR, SOR_CKPT)
        res = make_rt(tmp_path).run(
            W, ctor_kwargs={"n": N, "iterations": ITERS}, entry="execute",
            config=ExecConfig.sequential(), fresh=True)
        assert len(res.phases) == 1
        assert res.phases[0].outcome == "completed"
        assert not res.adapted
        assert res.restarts == 0

    def test_vtime_positive_and_monotone_phases(self, tmp_path):
        W = plug(SOR, SOR_ADAPTIVE)
        plan = AdaptationPlan([AdaptStep(4, ExecConfig.distributed(3))])
        res = make_rt(tmp_path).run(
            W, ctor_kwargs={"n": N, "iterations": ITERS}, entry="execute",
            config=ExecConfig.sequential(), plan=plan, fresh=True)
        assert res.vtime > 0
        for a, b in zip(res.phases, res.phases[1:]):
            assert a.end_vtime <= b.start_vtime

    def test_ledger_completed_after_success(self, tmp_path):
        W = plug(SOR, SOR_CKPT)
        rt = make_rt(tmp_path)
        rt.run(W, ctor_kwargs={"n": N, "iterations": ITERS},
               entry="execute", config=ExecConfig.sequential(), fresh=True)
        assert rt.ledger.status() == rt.ledger.COMPLETED

    def test_default_tmp_ckpt_dir(self):
        rt = Runtime(machine=MACHINE)  # no ckpt_dir given
        assert rt.store.dir.exists()


class TestHybridEdges:
    def test_hybrid_crash_restart(self, tmp_path):
        from repro.apps.plugs.sor_plugs import SOR_HYBRID, SOR_CKPT

        W = plug(SOR, SOR_HYBRID + SOR_CKPT)
        rt = make_rt(tmp_path, policy=EveryN(3))
        kw = dict(ctor_kwargs={"n": N, "iterations": ITERS},
                  entry="execute", config=ExecConfig.hybrid(2, 2))
        with pytest.raises(InjectedFailure):
            rt.run(W, injector=FailureInjector(fail_at=7), fresh=True, **kw)
        res = rt.run(W, **kw)
        assert res.value == REF

    def test_hybrid_into_sequential_adaptation(self, tmp_path):
        W = plug(SOR, SOR_ADAPTIVE)
        plan = AdaptationPlan([AdaptStep(5, ExecConfig.sequential())])
        res = make_rt(tmp_path).run(
            W, ctor_kwargs={"n": N, "iterations": ITERS}, entry="execute",
            config=ExecConfig.hybrid(2, 2), plan=plan, fresh=True)
        assert res.value == REF

    def test_sequential_into_hybrid_adaptation(self, tmp_path):
        W = plug(SOR, SOR_ADAPTIVE)
        plan = AdaptationPlan([AdaptStep(5, ExecConfig.hybrid(2, 2))])
        res = make_rt(tmp_path).run(
            W, ctor_kwargs={"n": N, "iterations": ITERS}, entry="execute",
            config=ExecConfig.sequential(), plan=plan, fresh=True)
        assert res.value == REF


class TestNoReferenceCycles:
    """A finished run frees its grid by reference counting alone: the
    context and the instance, a cooperative unwind's traceback and a
    cluster's gathered failures must not hold each other in cycles
    that only a full garbage-collection pass would break."""

    CHAIN = AdaptationPlan([
        AdaptStep(at=2, config=ExecConfig.shared(2)),
        AdaptStep(at=4, config=ExecConfig.distributed(2)),
        AdaptStep(at=6, config=ExecConfig.sequential())])

    @pytest.mark.parametrize("config,plan", [
        (ExecConfig.sequential(), None),
        (ExecConfig.shared(2), None),
        (ExecConfig.sequential(), CHAIN),
    ], ids=["sequential", "threads", "relaunch-chain"])
    def test_run_leaves_nothing_for_the_collector(self, tmp_path, config,
                                                  plan):
        W = plug(SOR, SOR_ADAPTIVE)
        rt = make_rt(tmp_path)

        def run():
            res = rt.run(W, ctor_kwargs={"n": N, "iterations": ITERS},
                         entry="execute", config=config, plan=plan,
                         fresh=True)
            assert res.value == REF

        run()  # first-use imports and caches may build cycles once
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()
