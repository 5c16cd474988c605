"""Elastic reshape: rank teams grow/shrink at safe points, no relaunch.

The load-bearing guarantees of :mod:`repro.elastic`:

* on the elastic backends (threads / simcluster / multiproc) an
  adaptation chain with at least one grow and one shrink completes
  without a single phase relaunch, bit-identical to the sequential
  reference;
* checkpoints written across membership transitions stay byte-identical
  to every other backend's at matching safe points (the mode-independent
  format survives elasticity);
* grow-then-fail-then-restart chains recover correctly — relaunch stays
  the recovery path under an elastic backend;
* park/un-park cycles leak nothing: no worker threads, no worker
  processes, no shared-memory segments outlive the run;
* the move schedule a :class:`ReshapePlan` derives from the partition
  layouts reassembles exactly the regions each new owner needs;
* the advisor prices transitions on the run's one machine model, and
  an in-place reshape ranks below a process relaunch.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import EveryN, FailureInjector
from repro.core import (
    AdaptStep,
    AdaptationPlan,
    ExecConfig,
    Runtime,
    plug,
)
from repro.core.advisor import SelfAdaptationAdvisor
from repro.dsm import shm
from repro.dsm.partition import BlockLayout, CyclicLayout, HybridLayout
from repro.elastic import ReshapePlan
from repro.exec import MultiprocessBackend, build_default_registry
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 40, 12
REF = SOR(n=N, iterations=ITERS).execute()
WOVEN = plug(SOR, SOR_ADAPTIVE)

GROW_AT, SHRINK_AT = 3, 7


def mp_cfg(n: int) -> ExecConfig:
    return ExecConfig.distributed(n).with_backend("multiproc")


def grow_shrink_plan(shapes) -> AdaptationPlan:
    lo, hi = shapes
    return AdaptationPlan([AdaptStep(at=GROW_AT, config=hi),
                           AdaptStep(at=SHRINK_AT, config=lo)])


#: label -> (start config, (small shape, big shape)) per elastic backend.
ELASTIC = {
    "threads": (ExecConfig.shared(2),
                (ExecConfig.shared(2), ExecConfig.shared(4))),
    "simcluster": (ExecConfig.distributed(2),
                   (ExecConfig.distributed(2), ExecConfig.distributed(4))),
    "multiproc": (mp_cfg(2), (mp_cfg(2), mp_cfg(4))),
}


def run_sor(tmp_path, config, tag, **kw):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 policy=kw.pop("policy", None),
                 ckpt_strategy=kw.pop("ckpt_strategy", "master"))
    res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                 entry="execute", config=config, fresh=True, **kw)
    return rt, res


# ---------------------------------------------------------------------------
# the acceptance chain: grow + shrink, zero relaunches, identical result
# ---------------------------------------------------------------------------
class TestGrowShrinkWithoutRelaunch:
    @pytest.mark.parametrize("label", sorted(ELASTIC))
    def test_chain_runs_in_place(self, tmp_path, label):
        start, shapes = ELASTIC[label]
        _, res = run_sor(tmp_path, start, f"el-{label}",
                         plan=grow_shrink_plan(shapes))
        assert res.value == REF, label
        assert res.relaunches == 0, (label, res.phases)
        assert len(res.phases) == 1
        kinds = [a.extra["kind"] for a in res.in_place_reshapes]
        assert len(kinds) == 2, (label, res.adaptations)
        assert res.final_config == shapes[0]
        # grow and shrink both reported at their planned safe points
        ats = [a.at_count for a in res.in_place_reshapes]
        assert ats == [GROW_AT, SHRINK_AT]

    @pytest.mark.parametrize("label", ["simcluster", "multiproc"])
    def test_rank_reshape_events_emitted(self, tmp_path, label):
        start, shapes = ELASTIC[label]
        _, res = run_sor(tmp_path, start, f"ev-{label}",
                         plan=grow_shrink_plan(shapes))
        reshapes = res.events.of_kind("reshape")
        grew = [e for e in reshapes if e.data["grew"]]
        shrank = [e for e in reshapes if not e.data["grew"]]
        assert grew and shrank
        if label == "multiproc":
            # ranks 2 and 3 join at the grow and retire at the shrink:
            # their own grow events reach the parent only in the
            # timeline each ships when it re-parks.
            assert {e.rank for e in grew if e.rank >= 2} == {2, 3}
        # vtime stays monotone through both transitions.  Only a single
        # rank's stream is ordered (ranks append to the shared log in
        # host order): safepoint events are rank 0's own sequence.
        vts = [e.vtime for e in res.events.of_kind("safepoint")]
        assert len(vts) == ITERS
        assert all(a <= b for a, b in zip(vts, vts[1:]))
        assert res.vtime >= max(e.vtime for e in reshapes)

    def test_in_place_false_forces_relaunch(self, tmp_path):
        """The same chain with ``in_place=False`` pays two relaunches —
        the reshape-vs-relaunch benchmark's control arm."""
        start, (lo, hi) = ELASTIC["simcluster"]
        plan = AdaptationPlan([
            AdaptStep(at=GROW_AT, config=hi, in_place=False),
            AdaptStep(at=SHRINK_AT, config=lo, in_place=False)])
        _, res = run_sor(tmp_path, start, "forced", plan=plan)
        assert res.value == REF
        assert res.relaunches == 2
        assert res.in_place_reshapes == []

    def test_spawn_start_method_reshapes_in_place(self, tmp_path):
        """Under "spawn" the un-park control path works like under fork:
        the AdaptStep/segment metadata in the un-park message is pickled
        with the rest of the child task."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        reg = build_default_registry()
        reg.register(MultiprocessBackend(start_method="spawn"),
                     replace=True)
        _, shapes = ELASTIC["multiproc"]
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "spawn",
                     registry=reg)
        res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=mp_cfg(2),
                     plan=grow_shrink_plan(shapes), fresh=True)
        assert res.value == REF
        assert res.relaunches == 0
        assert len(res.in_place_reshapes) == 2

    def test_grow_from_single_rank(self, tmp_path):
        plan = AdaptationPlan([
            AdaptStep(at=GROW_AT, config=ExecConfig.distributed(3))])
        _, res = run_sor(tmp_path, ExecConfig.distributed(1), "one",
                         plan=plan)
        assert res.value == REF
        assert res.relaunches == 0


# ---------------------------------------------------------------------------
# checkpoint parity across all five backends, reshapes included
# ---------------------------------------------------------------------------
class TestCheckpointParityAcrossReshapes:
    def test_identical_checkpoint_bytes(self, tmp_path):
        """EveryN(4) checkpoints bracket the grow (at 3) and shrink (at
        7): every backend — elastically reshaping or relaunching — must
        write byte-identical field data at matching safe points."""
        stores = {}
        runs = dict(ELASTIC)
        runs["hybrid"] = (ExecConfig.hybrid(2, 2),
                          (ExecConfig.hybrid(2, 2), ExecConfig.hybrid(4, 2)))
        for label, (start, shapes) in runs.items():
            rt, res = run_sor(tmp_path, start, f"ck-{label}",
                              plan=grow_shrink_plan(shapes),
                              policy=EveryN(4))
            assert res.value == REF, label
            stores[label] = rt.store
        rt0, res0 = run_sor(tmp_path, ExecConfig.sequential(), "ck-ref",
                            policy=EveryN(4))
        counts = rt0.store.counts()
        assert counts, "no checkpoints taken"
        for count in counts:
            ref = rt0.store.read(count).field_blobs()
            for label, store in stores.items():
                assert store.read(count).field_blobs() == ref, \
                    f"checkpoint {count} differs in {label}"


    def test_checkpoint_at_the_reshape_safepoint(self, tmp_path):
        """EveryN(1) checkpoints collide with both transitions: the
        capture always sees the pre-reshape membership and stays
        byte-identical to the sequential stream."""
        start, shapes = ELASTIC["multiproc"]
        rt, res = run_sor(tmp_path, start, "col", policy=EveryN(1),
                          plan=grow_shrink_plan(shapes))
        assert res.value == REF and res.relaunches == 0
        rt0, _ = run_sor(tmp_path, ExecConfig.sequential(), "col-ref",
                         policy=EveryN(1))
        for c in rt0.store.counts():
            assert rt.store.read(c).field_blobs() == \
                rt0.store.read(c).field_blobs(), c

    def test_local_shards_follow_the_membership(self, tmp_path):
        """STRATEGY_LOCAL across a reshape: each safe point's shard set
        matches the membership that saved it, and every set still
        reassembles into the sequential reference state."""
        start, shapes = ELASTIC["simcluster"]
        rt, res = run_sor(tmp_path, start, "loc", policy=EveryN(1),
                          plan=grow_shrink_plan(shapes),
                          ckpt_strategy="local")
        assert res.value == REF and res.relaunches == 0
        widths = {c: len(r) for c, r in rt.store.shard_counts().items()}
        assert widths[GROW_AT] == 2      # captured before the grow
        assert widths[GROW_AT + 1] == 4  # first save of the grown team
        assert widths[SHRINK_AT + 1] == 2
        parts = WOVEN.__pp_plugs__.partitioned_fields()
        mid = rt.store.assemble_from_shards(GROW_AT + 2, parts)
        ref = SOR(n=N, iterations=GROW_AT + 2)
        ref.execute()
        assert np.array_equal(mid.fields["G"], ref.G)


# ---------------------------------------------------------------------------
# failure during / after an elastic chain: restart stays the recovery path
# ---------------------------------------------------------------------------
class TestGrowFailRestart:
    @pytest.mark.parametrize("label", sorted(ELASTIC))
    def test_grow_then_fail_then_restart(self, tmp_path, label):
        start, (lo, hi) = ELASTIC[label]
        plan = AdaptationPlan([AdaptStep(at=GROW_AT, config=hi)])
        _, res = run_sor(tmp_path, start, f"gfr-{label}", plan=plan,
                         policy=EveryN(2),
                         injector=FailureInjector(fail_at=SHRINK_AT),
                         auto_recover=True)
        assert res.value == REF, label
        assert res.restarts == 1
        # the grow itself ran in place before the crash
        assert len(res.in_place_reshapes) >= 1
        # recovery resumed in the grown shape (config follows reshapes)
        assert res.final_config == hi

    def test_grow_shrink_then_fail(self, tmp_path):
        start, shapes = ELASTIC["multiproc"]
        plan = grow_shrink_plan(shapes)
        _, res = run_sor(tmp_path, start, "gsf", plan=plan,
                         policy=EveryN(2),
                         injector=FailureInjector(fail_at=10),
                         auto_recover=True)
        assert res.value == REF
        assert res.restarts == 1


# ---------------------------------------------------------------------------
# lifecycle: park/un-park cycles leak nothing
# ---------------------------------------------------------------------------
class TestNoLeaks:
    def test_repeated_grow_shrink_cycles(self, tmp_path):
        """Two full park/un-park cycles on the process backend plus an
        elastic simcluster chain: afterwards no worker thread, worker
        process or shared-memory segment survives."""
        plan = AdaptationPlan([
            AdaptStep(at=2, config=mp_cfg(4)),
            AdaptStep(at=5, config=mp_cfg(2)),
            AdaptStep(at=8, config=mp_cfg(3)),
            AdaptStep(at=10, config=mp_cfg(2)),
        ])
        _, res = run_sor(tmp_path, mp_cfg(2), "cycles", plan=plan)
        assert res.value == REF
        assert res.relaunches == 0
        assert len(res.in_place_reshapes) == 4

        plan2 = grow_shrink_plan(ELASTIC["simcluster"][1])
        _, res2 = run_sor(tmp_path, ExecConfig.distributed(2), "cyc-sim",
                          plan=plan2)
        assert res2.value == REF

        stray = [t.name for t in threading.enumerate()
                 if t.name.startswith(("team-w", "rank-"))]
        assert stray == [], f"leaked worker threads: {stray}"
        procs = [p.name for p in multiprocessing.active_children()
                 if p.name.startswith("mp-rank-")]
        assert procs == [], f"leaked worker processes: {procs}"
        assert shm.live_segments() == []
        if os.path.isdir("/dev/shm"):
            left = [f for f in os.listdir("/dev/shm")
                    if f.startswith(shm.SHM_PREFIX)]
            assert left == [], f"leaked /dev/shm segments: {left}"


# ---------------------------------------------------------------------------
# the ReshapePlan layer
# ---------------------------------------------------------------------------
class TestReshapePlan:
    def test_membership(self):
        grow = ReshapePlan(2, 5)
        assert grow.growing and not grow.shrinking
        assert grow.survivors == (0, 1)
        assert grow.joining == (2, 3, 4)
        assert grow.retiring == ()
        assert grow.renumber(1) == 1
        shrink = ReshapePlan(4, 2)
        assert shrink.retiring == (2, 3)
        assert shrink.renumber(3) is None
        with pytest.raises(ValueError):
            ReshapePlan(3, 3)

    @pytest.mark.parametrize("layout", [
        BlockLayout(axis=0), BlockLayout(axis=0, halo=1),
        CyclicLayout(axis=0), HybridLayout(axis=0, block=3)])
    @pytest.mark.parametrize("old_n,new_n", [(2, 5), (5, 2), (1, 4), (3, 1)])
    def test_moves_reassemble_every_needed_region(self, layout, old_n,
                                                  new_n):
        """Simulate the move schedule on per-rank arrays: afterwards
        every new owner's needed region holds the authoritative data."""
        n = 23
        truth = np.arange(n, dtype=float) * 1.5
        plan = ReshapePlan(old_n, new_n)
        # old-rank arrays: valid only in the old owned regions
        olds = [np.full(n, np.nan) for _ in range(old_n)]
        for r in range(old_n):
            idx = layout.owned(n, r, old_n)
            olds[r][idx] = truth[idx]
        # new-rank arrays: survivors carry theirs over, joiners start cold
        news = [olds[r] if r < old_n else np.full(n, np.nan)
                for r in range(new_n)]
        for mv in plan.moves(layout, n):
            payload = np.take(olds[mv.src], mv.idx)
            assert not np.isnan(payload).any(), \
                f"move sources unowned data: {mv}"
            news[mv.dst][mv.idx] = payload
        for r in range(new_n):
            need = plan.needed(layout, n, r)
            assert np.array_equal(news[r][need], truth[need]), \
                f"new rank {r} missing data for {layout}"

    def test_halo_widens_needed_region(self):
        layout = BlockLayout(axis=0, halo=2)
        plan = ReshapePlan(2, 4)
        need = plan.needed(layout, 16, 1)
        lo, hi = layout.halo_bounds(16, 1, 4)
        assert need[0] == lo and need[-1] == hi - 1


# ---------------------------------------------------------------------------
# per-backend cost-model calibration feeding the advisor
# ---------------------------------------------------------------------------
class TestTransitionCosts:
    def test_costs_are_closed_forms_on_the_run_machine_model(self):
        m = MACHINE
        adv = SelfAdaptationAdvisor(m, max_pe=8)

        def relaunch(pe):
            return (m.spawn_cost * pe + 2 * m.barrier_cost(pe)
                    + (pe - 1) * m.network.p2p_cost(0, same_node=False))

        # multiproc is elastic: a grow is a barrier pair plus two spawns
        assert adv.transition_cost(mp_cfg(2), mp_cfg(4)) \
            == 2 * m.barrier_cost(4) + 2 * m.spawn_cost
        assert adv.transition_cost(mp_cfg(4), mp_cfg(2)) \
            == 2 * m.barrier_cost(4)
        assert adv.transition_cost(ExecConfig.sequential(), mp_cfg(4)) \
            == relaunch(4)
        # sockets has no elastic ranks: every rank change relaunches
        sk = ExecConfig.distributed(4).with_backend("sockets")
        assert adv.transition_cost(
            ExecConfig.distributed(2).with_backend("sockets"), sk) \
            == relaunch(4)
        assert adv.transition_cost(mp_cfg(2), sk) == relaunch(4)

    def test_reshape_ranks_below_relaunch_on_multiproc(self):
        adv = SelfAdaptationAdvisor(MACHINE, max_pe=8)
        cur, target = mp_cfg(2), mp_cfg(4)
        in_place = adv.transition_cost(cur, target)
        relaunch = adv.transition_cost(ExecConfig.sequential(), target)
        assert in_place < relaunch

    def test_transition_aware_ladder_stops_when_spawn_dominates(self):
        """With a tiny per-iteration time, relaunching into process
        ranks (a spawn per rank plus the barrier pair and scatter)
        costs more than a whole trial window buys — the
        transition-aware advisor settles instead."""
        reg = build_default_registry()
        reg.unregister("simcluster")  # distributed resolves to multiproc
        adv = SelfAdaptationAdvisor(MACHINE, max_pe=16, window=4,
                                    registry=reg, transition_aware=True)
        dist = [c for c in adv.ladder if c.nranks > 1]
        assert dist, "ladder lost its distributed rungs"
        per_iter = 1e-4  # a window buys 0.4 ms; 8 spawns alone cost ~1 ms
        assert not adv._transition_affordable(ExecConfig.shared(4),
                                              dist[0], per_iter)
        # a thread-team resize amortises fine at the same per-iter time
        assert adv._transition_affordable(ExecConfig.shared(2),
                                          ExecConfig.shared(4), per_iter)

    def test_unresolvable_target_costs_infinity(self):
        reg = build_default_registry()
        adv = SelfAdaptationAdvisor(MACHINE, registry=reg)
        bad = ExecConfig.sequential().with_backend("nope")
        assert adv.transition_cost(ExecConfig.sequential(), bad) \
            == float("inf")


# ---------------------------------------------------------------------------
# the pre-sized process fabric
# ---------------------------------------------------------------------------
class TestFabricSizing:
    def test_fabric_covers_in_place_plan_steps(self):
        from repro.exec.base import PhaseSpec

        backend = MultiprocessBackend()
        plan = AdaptationPlan([
            AdaptStep(at=3, config=mp_cfg(6)),
            AdaptStep(at=5, config=mp_cfg(2)),
            # excluded: relaunches anyway
            AdaptStep(at=7, config=mp_cfg(8), via_restart=True),
            # excluded: different mode
            AdaptStep(at=9, config=ExecConfig.shared(16)),
        ])
        spec = PhaseSpec(woven=WOVEN, config=mp_cfg(2), plan=plan)
        assert backend._fabric_size(spec) == 6

    def test_explicit_max_ranks_widens_fabric(self):
        from repro.exec.base import PhaseSpec

        backend = MultiprocessBackend(max_ranks=5)
        spec = PhaseSpec(woven=WOVEN, config=mp_cfg(2))
        assert backend._fabric_size(spec) == 5
