"""The pluggable execution-backend layer: registry, parity, lifecycle.

The load-bearing guarantees of the exec package:

* all six stock backends — the real multiprocessing one and the
  sockets-fabric one included — run the same woven app to bit-identical
  results, with identical checkpoint contents at matching safe points;
* virtual time is monotone across an adaptation chain that crosses
  every backend, and a pure function of (program, config, machine):
  bit-identical run to run, in one process and in fresh interpreters;
* backends own worker lifecycle — no team/rank threads, worker
  processes or shared-memory segments survive a phase;
* a backend registered at run time (no ``core/`` changes) runs an
  application end-to-end, resolved by name through ``ExecConfig``.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest

from repro.apps.moldyn import MolDyn
from repro.apps.plugs.moldyn_plugs import MOLDYN_CKPT, MOLDYN_DIST
from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import EveryN
from repro.core import (
    AdaptStep,
    AdaptationPlan,
    Capabilities,
    ExecConfig,
    ExecutionContext,
    Mode,
    Runtime,
    WeaveError,
    plug,
)
from repro.core.advisor import SelfAdaptationAdvisor
from repro.dsm import shm
from repro.exec import (
    BackendRegistry,
    HybridBackend,
    MultiprocessBackend,
    SequentialBackend,
    SimClusterBackend,
    SocketsBackend,
    ThreadTeamBackend,
    build_default_registry,
    default_registry,
)
from repro.grid.manager import MappingPolicy
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 40, 12
REF = SOR(n=N, iterations=ITERS).execute()
WOVEN = plug(SOR, SOR_ADAPTIVE)

MULTIPROC = ExecConfig.distributed(3).with_backend("multiproc")
SOCKETS = ExecConfig.distributed(3).with_backend("sockets")

#: (label, config) for every stock backend; labels key result dicts
#: because several distributed configs share a Mode.
ALL_CONFIGS = [
    ("sequential", ExecConfig.sequential()),
    ("threads", ExecConfig.shared(3)),
    ("simcluster", ExecConfig.distributed(3)),
    ("hybrid", ExecConfig.hybrid(2, 2)),
    ("multiproc", MULTIPROC),
    ("sockets", SOCKETS),
]


def registry(*entries) -> BackendRegistry:
    """A registry of ``(backend, mode default or None)`` entries."""
    reg = BackendRegistry()
    for backend, mode in entries:
        reg.register(backend, mode=mode)
    return reg


SEQ = (SequentialBackend(), Mode.SEQUENTIAL)
THREADS = (ThreadTeamBackend(), Mode.SHARED)


def run_sor(tmp_path, config, tag, **kw):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 policy=kw.pop("policy", None))
    res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                 entry="execute", config=config, fresh=True, **kw)
    return rt, res


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_default_registry_covers_all_modes(self):
        reg = default_registry()
        assert all(reg.supports(m) for m in Mode)
        assert isinstance(reg.resolve(ExecConfig.sequential()),
                          SequentialBackend)
        assert isinstance(reg.resolve(ExecConfig.shared(2)),
                          ThreadTeamBackend)
        resolved = reg.resolve(ExecConfig.distributed(2))
        assert isinstance(resolved, SimClusterBackend)
        assert not isinstance(resolved, HybridBackend)
        assert isinstance(reg.resolve(ExecConfig.hybrid(2, 2)),
                          HybridBackend)

    def test_name_resolution_beats_mode(self):
        reg = build_default_registry()
        cfg = ExecConfig.sequential().with_backend("threads")
        assert isinstance(reg.resolve(cfg), ThreadTeamBackend)

    def test_unknown_backend_name_rejected(self):
        reg = build_default_registry()
        with pytest.raises(WeaveError, match="no execution backend named"):
            reg.resolve(ExecConfig.sequential().with_backend("nope"))

    def test_unsupported_mode_rejected(self):
        reg = registry(SEQ, THREADS, (HybridBackend(), None))
        assert not reg.supports(Mode.HYBRID)  # named, but no default
        with pytest.raises(WeaveError, match="no execution backend"):
            reg.resolve(ExecConfig.hybrid(2, 2))

    def test_duplicate_name_needs_replace(self):
        reg = build_default_registry()
        with pytest.raises(WeaveError, match="already registered"):
            reg.register(SequentialBackend())
        reg.register(SequentialBackend(), replace=True)

    def test_replace_by_name_updates_mode_defaults(self):
        reg = build_default_registry()
        patched = ThreadTeamBackend()
        reg.register(patched, replace=True)  # same name "threads"
        assert reg.resolve(ExecConfig.shared(2)) is patched

    def test_capability_declarations(self):
        assert SequentialBackend().capabilities(ExecConfig.sequential()) \
            == Capabilities()
        # the team's workers are its elastic PE dimension (ResizeOp).
        assert ThreadTeamBackend().capabilities(ExecConfig.shared(2)) \
            == Capabilities(team_regions=True, elastic_ranks=True)
        # simulated nodes can be added/retired at safe points in place.
        assert SimClusterBackend().capabilities(ExecConfig.distributed(2)) \
            == Capabilities(rank_collectives=True, elastic_ranks=True)
        # hybrid reshapes its team dimension live but rank-count changes
        # still relaunch (no elastic protocol across team'd ranks yet).
        assert HybridBackend().capabilities(ExecConfig.hybrid(2, 2)) \
            == Capabilities(team_regions=True, rank_collectives=True)
        # honest multiprocessing capabilities: collectives and shared
        # fields yes, team regions no (one process = one line of
        # execution); elastic via parked pre-forked processes.
        assert MultiprocessBackend().capabilities(MULTIPROC) \
            == Capabilities(rank_collectives=True, shared_fields=True,
                            elastic_ranks=True)
        # the sockets fabric spans physical nodes: no page aliasing, so
        # no shared fields; rank-count changes go through relaunch.
        assert SocketsBackend().capabilities(SOCKETS) \
            == Capabilities(rank_collectives=True)

    def test_multiproc_registered_by_name_not_mode_default(self):
        reg = build_default_registry()
        assert isinstance(reg.resolve(MULTIPROC), MultiprocessBackend)
        # the simulated cluster stays the DISTRIBUTED default
        assert isinstance(reg.resolve(ExecConfig.distributed(2)),
                          SimClusterBackend)

    def test_named_backend_keeps_mode_launchable(self):
        """Without the simulated cluster, a named backend keeps
        DISTRIBUTED launchable as the mode's default (the service's
        per-job registry registers its fleet backend so); registered by
        name alone it is reached by name only."""
        named = registry(SEQ, (MultiprocessBackend(), None),
                         (SocketsBackend(), None))
        assert not named.supports(Mode.DISTRIBUTED)
        with pytest.raises(WeaveError, match="no execution backend"):
            named.resolve(ExecConfig.distributed(2))
        assert isinstance(named.resolve(MULTIPROC), MultiprocessBackend)
        default = registry(SEQ, (MultiprocessBackend(), Mode.DISTRIBUTED))
        assert default.supports(Mode.DISTRIBUTED)
        assert isinstance(default.resolve(ExecConfig.distributed(2)),
                          MultiprocessBackend)

    def test_context_defaults_caps_from_mode(self):
        ctx = ExecutionContext(ExecConfig.sequential())
        assert ctx.caps == Capabilities()
        assert not ctx.distributed
        ctx = ExecutionContext(ExecConfig.shared(2))
        assert ctx.caps.team_regions and ctx.team is not None


# ---------------------------------------------------------------------------
# parity across backends
# ---------------------------------------------------------------------------
class TestBackendParity:
    def test_bit_identical_results(self, tmp_path):
        for label, config in ALL_CONFIGS:
            _, res = run_sor(tmp_path, config, f"par-{label}")
            assert res.value == REF, config

    def test_identical_checkpoints_at_matching_safepoints(self, tmp_path):
        """The master checkpoint format is mode-independent: at the same
        safe point every backend must write byte-identical field data."""
        stores = {}
        for label, config in ALL_CONFIGS:
            rt, res = run_sor(tmp_path, config, f"ck-{label}",
                              policy=EveryN(4))
            assert res.value == REF
            stores[label] = rt.store
        counts = stores["sequential"].counts()
        assert counts, "no checkpoints taken"
        for count in counts:
            blobs = {label: s.read(count).field_blobs()
                     for label, s in stores.items()}
            ref = blobs["sequential"]
            for label, b in blobs.items():
                assert b == ref, f"checkpoint {count} differs in {label}"

    def test_adaptation_chain_monotone_vtime(self, tmp_path):
        """One run crossing every backend — real processes included:
        correct result, monotone virtual time phase to phase and
        adaptation to adaptation."""
        plan = AdaptationPlan([
            AdaptStep(at=2, config=ExecConfig.shared(3)),
            AdaptStep(at=4, config=ExecConfig.distributed(3)),
            AdaptStep(at=6, config=MULTIPROC),
            AdaptStep(at=8, config=SOCKETS),
            AdaptStep(at=10, config=ExecConfig.hybrid(2, 2)),
        ])
        _, res = run_sor(tmp_path, ExecConfig.sequential(), "chain",
                         plan=plan)
        assert res.value == REF
        assert [a.to_config.mode for a in res.adaptations] == \
            [Mode.SHARED, Mode.DISTRIBUTED, Mode.DISTRIBUTED,
             Mode.DISTRIBUTED, Mode.HYBRID]
        assert res.adaptations[2].to_config.backend == "multiproc"
        assert res.adaptations[3].to_config.backend == "sockets"
        assert len(res.phases) == 6
        for ph in res.phases:
            assert ph.end_vtime >= ph.start_vtime
        for a, b in zip(res.phases, res.phases[1:]):
            assert a.end_vtime <= b.start_vtime
        vts = [a.vtime for a in res.adaptations]
        assert vts == sorted(vts)
        assert res.vtime >= res.phases[-1].start_vtime

    def test_no_leaked_workers_after_adaptation_chain(self, tmp_path):
        """Backends own worker lifecycle: after a run that created thread
        teams, cluster ranks and worker processes in every phase, none
        survive — and no shared-memory segment outlives its launch."""
        plan = AdaptationPlan([
            AdaptStep(at=3, config=ExecConfig.hybrid(2, 2)),
            AdaptStep(at=5, config=MULTIPROC),
            AdaptStep(at=7, config=ExecConfig.shared(4)),
            AdaptStep(at=9, config=SOCKETS),
            AdaptStep(at=11, config=ExecConfig.distributed(3)),
        ])
        _, res = run_sor(tmp_path, ExecConfig.shared(2), "leak", plan=plan)
        assert res.value == REF
        stray = [t.name for t in threading.enumerate()
                 if t.name.startswith(("team-w", "rank-"))]
        assert stray == [], f"leaked worker threads: {stray}"
        procs = [p.name for p in multiprocessing.active_children()
                 if p.name.startswith(("mp-rank-", "sk-rank-"))]
        assert procs == [], f"leaked worker processes: {procs}"
        assert shm.live_segments() == []
        if os.path.isdir("/dev/shm"):
            left = [f for f in os.listdir("/dev/shm")
                    if f.startswith(shm.SHM_PREFIX)]
            assert left == [], f"leaked /dev/shm segments: {left}"


# ---------------------------------------------------------------------------
# virtual time as a function of (program, config, machine)
# ---------------------------------------------------------------------------
#: every stock backend at two lines of execution (hybrid: 2 x 2).
VT_CONFIGS = [
    ("sequential", ExecConfig.sequential()),
    ("threads", ExecConfig.shared(2)),
    ("simcluster", ExecConfig.distributed(2)),
    ("hybrid", ExecConfig.hybrid(2, 2)),
    ("multiproc", ExecConfig.distributed(2).with_backend("multiproc")),
    ("sockets", ExecConfig.distributed(2).with_backend("sockets")),
]
VT_DISTRIBUTED = ("simcluster", "multiproc", "sockets")
WOVEN_MOLDYN = plug(MolDyn, MOLDYN_DIST + MOLDYN_CKPT)

#: the model's exact virtual seconds on two ranks.  Multiproc differs
#: from simcluster (and sockets) by design, in either direction: a
#: shared field's movement is a barrier only, a slab-backed whole's is
#: two barriers (README, "Compute time is modelled").
PINNED_VTIMES = {
    "sor/simcluster/every=None": 0.03607372000000007,
    "sor/multiproc/every=None": 0.03599261566666674,
    "sor/simcluster/every=5": 0.07387432133333344,
    "sor/multiproc/every=5": 0.07351178233333334,
    "moldyn/simcluster": 0.0004145440000000002,
    "moldyn/multiproc": 0.0004372158333333332,
}


def vtime_matrix() -> dict[str, str]:
    """``float.hex`` of the virtual time of every matrix run, by label:
    woven SOR 256x20 on every backend with and without a checkpoint
    every 5 iterations, and MolDyn 64x8 on the distributed backends."""
    out = {}
    with tempfile.TemporaryDirectory() as d:
        def vtime(woven, kwargs, config, tag, every=None):
            rt = Runtime(machine=MACHINE, ckpt_dir=Path(d) / tag,
                         policy=EveryN(every) if every else None)
            return rt.run(woven, ctor_kwargs=kwargs, entry="execute",
                          config=config, fresh=True).vtime.hex()

        for label, config in VT_CONFIGS:
            for every in (None, 5):
                tag = f"sor/{label}/every={every}"
                out[tag] = vtime(WOVEN, {"n": 256, "iterations": 20},
                                 config, tag.replace("/", "-"), every)
            if label in VT_DISTRIBUTED:
                out[f"moldyn/{label}"] = vtime(
                    WOVEN_MOLDYN, {"n": 64, "steps": 8}, config,
                    f"moldyn-{label}")
    return out


def _matrix_in_fresh_interpreter(cwd) -> dict[str, str]:
    code = ("import json, test_exec_backends as t; "
            "print(json.dumps(t.vtime_matrix()))")
    path = os.pathsep.join([str(Path(__file__).parent), *sys.path])
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def matrix():
    return vtime_matrix()


class TestVirtualTimeDeterminism:
    """Compute is charged from the kernel rate table, never measured, so
    no host speed, contention or process history reaches virtual time."""

    def test_repeatable_in_one_process(self, matrix):
        assert vtime_matrix() == matrix

    def test_repeatable_in_fresh_interpreters(self, matrix, tmp_path):
        first = _matrix_in_fresh_interpreter(tmp_path)
        second = _matrix_in_fresh_interpreter(tmp_path)
        assert first == second == matrix

    def test_simcluster_and_sockets_agree_bit_for_bit(self, matrix):
        for tag in ("sor/{}/every=None", "sor/{}/every=5", "moldyn/{}"):
            assert matrix[tag.format("sockets")] == \
                matrix[tag.format("simcluster")], tag

    def test_pinned_model_values(self, matrix):
        got = {tag: float.fromhex(matrix[tag]) for tag in PINNED_VTIMES}
        assert got == PINNED_VTIMES


class TestMultiprocStartMethods:
    def test_spawn_reweaves_dynamic_woven_class(self, tmp_path):
        """Under "spawn" the task is pickled: the dynamic woven subclass
        cannot travel, so the backend ships (base, plugset) and the
        child re-weaves — results stay bit-identical."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        reg = build_default_registry()
        reg.register(MultiprocessBackend(start_method="spawn"),
                     replace=True)
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "spawn",
                     registry=reg)
        res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute",
                     config=ExecConfig.distributed(2)
                     .with_backend("multiproc"), fresh=True)
        assert res.value == REF

    def test_sockets_backend_survives_spawn_pickling(self, tmp_path):
        """The sockets launch plumbing — rendezvous queue in the task,
        funnel address, transport construction in the child — must all
        survive the spawn pickling round trip."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("platform has no spawn start method")
        reg = build_default_registry()
        reg.register(SocketsBackend(start_method="spawn"), replace=True)
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "sk-spawn",
                     registry=reg)
        res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute",
                     config=ExecConfig.distributed(2)
                     .with_backend("sockets"), fresh=True)
        assert res.value == REF


# ---------------------------------------------------------------------------
# a backend registered at run time, no core/ changes
# ---------------------------------------------------------------------------
class CountingBackend(SequentialBackend):
    """Example drop-in backend: sequential semantics plus launch stats."""

    name = "counting"

    def __init__(self):
        self.launches = 0

    def launch(self, spec, services):
        self.launches += 1
        return super().launch(spec, services)


class TestFifthBackend:
    def test_runs_app_end_to_end_by_name(self, tmp_path):
        reg = build_default_registry()
        backend = reg.register(CountingBackend())
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "fifth",
                     registry=reg)
        res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute",
                     config=ExecConfig.sequential().with_backend("counting"),
                     fresh=True)
        assert res.value == REF
        assert backend.launches == 1
        assert res.final_config.backend == "counting"

    def test_adaptation_step_can_pick_a_backend(self, tmp_path):
        """An AdaptStep can reshape onto a named backend — adaptation
        decisions choose backends, not just shapes."""
        reg = build_default_registry()
        backend = reg.register(CountingBackend())
        plan = AdaptationPlan([AdaptStep(
            at=4, config=ExecConfig.sequential().with_backend("counting"))])
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "adapt",
                     registry=reg)
        res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=ExecConfig.shared(2),
                     plan=plan, fresh=True)
        assert res.value == REF
        assert backend.launches == 1
        assert res.adaptations[0].to_config.backend == "counting"


# ---------------------------------------------------------------------------
# registry-aware selection policies
# ---------------------------------------------------------------------------
class TestRegistryAwareSelection:
    def test_advisor_ladder_skips_unregistered_modes(self):
        reg = registry(SEQ, THREADS, (HybridBackend(), Mode.HYBRID),
                       (MultiprocessBackend(), None))  # no DISTRIBUTED
        adv = SelfAdaptationAdvisor(MACHINE, max_pe=16, registry=reg)
        assert all(c.mode is not Mode.DISTRIBUTED for c in adv.ladder)
        assert any(c.mode is Mode.SHARED for c in adv.ladder)

    def test_advisor_ladder_proposes_multiproc_backed_distributed(self):
        """With only the multiprocessing backend left for DISTRIBUTED,
        the ladder still climbs into distributed shapes — and the
        registry resolves them to real processes."""
        reg = registry(SEQ, THREADS,
                       (MultiprocessBackend(), Mode.DISTRIBUTED))
        adv = SelfAdaptationAdvisor(MACHINE, max_pe=16, registry=reg)
        dist = [c for c in adv.ladder if c.mode is Mode.DISTRIBUTED]
        assert dist, "ladder lost its distributed rungs"
        assert all(isinstance(reg.resolve(c), MultiprocessBackend)
                   for c in dist)

    def test_runtime_syncs_advisor_to_its_registry(self, tmp_path):
        """A default-constructed advisor is re-anchored on the runtime's
        own registry, so it never proposes an unlaunchable config."""
        reg = registry(SEQ, (HybridBackend(), Mode.HYBRID))
        adv = SelfAdaptationAdvisor(MACHINE, max_pe=8, window=3)
        assert any(c.mode is Mode.SHARED for c in adv.ladder)  # global view
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "sync",
                     registry=reg)
        res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                     entry="execute", config=ExecConfig.sequential(),
                     advisor=adv, fresh=True)
        assert res.value == REF
        assert adv.registry is reg
        assert all(c == ExecConfig.sequential() for c in adv.ladder)

    def test_mapping_policy_degrades_without_backends(self):
        def config_for(*entries):
            return MappingPolicy(MACHINE, allow_hybrid=True,
                                 registry=registry(*entries)).config_for(8)

        dist = (SimClusterBackend(), Mode.DISTRIBUTED)
        assert config_for(SEQ, THREADS, dist,
                          (HybridBackend(), Mode.HYBRID)) \
            == ExecConfig.hybrid(2, 4)
        assert config_for(SEQ, THREADS, dist) == ExecConfig.distributed(8)
        # a process backend as the default keeps DISTRIBUTED launchable
        assert config_for(SEQ, THREADS,
                          (MultiprocessBackend(), Mode.DISTRIBUTED)) \
            == ExecConfig.distributed(8)
        # registered by name only, it does not
        assert config_for(SEQ, THREADS, (MultiprocessBackend(), None)) \
            == ExecConfig.shared(4)  # capped at one node
        assert config_for(SEQ) == ExecConfig.sequential()
