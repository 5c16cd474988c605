"""The run ledger's write protocol, checked against its crash states.

The ledger says ``running`` only once a run is about to publish its
first checkpoint, and ``completed`` at a clean exit only over
``running``.  A recording shim over ``atomic_write_bytes`` (every
checkpoint, pack and ledger write goes through it) and ``os.fsync``
pins the order of those writes; replaying every prefix of a crashed
run's write sequence into a fresh directory checks that each crash
state restarts to the uninterrupted value (after ALICE, Pillai et al.,
OSDI 2014 — here at the granularity of one atomic write).
"""

from __future__ import annotations

import gc
import json
import multiprocessing as mp
import os
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import repro.ckpt.cas as cas_mod
import repro.ckpt.store as store_mod
import repro.ckpt.writer as writer_mod
from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import (
    AtCounts,
    EveryN,
    FailureInjector,
    InjectedFailure,
    Snapshot,
)
from repro.ckpt.cas import CasCheckpointStore
from repro.ckpt.store import RunLedger
from repro.core import STRATEGY_LOCAL, ExecConfig, Runtime, plug
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 40, 20
WOVEN = plug(SOR, SOR_ADAPTIVE)
LEDGER = "run_status.json"

ALL_CONFIGS = [
    ("sequential", ExecConfig.sequential()),
    ("threads", ExecConfig.shared(3)),
    ("simcluster", ExecConfig.distributed(3)),
    ("hybrid", ExecConfig.hybrid(2, 2)),
    ("multiproc", ExecConfig.distributed(3).with_backend("multiproc")),
    ("sockets", ExecConfig.distributed(3).with_backend("sockets")),
]

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(), reason="needs fork")


def _plain(seed: int) -> float:
    return SOR(n=N, iterations=ITERS, seed=seed).execute()


def _kw(seed: int) -> dict:
    return dict(ctor_kwargs={"n": N, "iterations": ITERS, "seed": seed},
                entry="execute")


class Recorder:
    """Every atomic write of this process, in completion order, with the
    bytes it published, plus the number of ``os.fsync`` calls."""

    def __init__(self, monkeypatch, ledger_delay: float = 0.0) -> None:
        self.writes: list[tuple[Path, bytes]] = []
        self.fsyncs = 0
        self._lock = threading.Lock()
        real_write, real_fsync = writer_mod.atomic_write_bytes, os.fsync

        def write(path, data):
            path = Path(path)
            if ledger_delay and path.name.startswith("run_status"):
                time.sleep(ledger_delay)  # widen the first-save race
            real_write(path, data)
            with self._lock:
                self.writes.append((path, path.read_bytes()))

        def fsync(fd):
            with self._lock:
                self.fsyncs += 1
            return real_fsync(fd)

        for mod in (store_mod, cas_mod, writer_mod):
            monkeypatch.setattr(mod, "atomic_write_bytes", write)
        monkeypatch.setattr(os, "fsync", fsync)

    def names(self) -> list[str]:
        return [p.name for p, _ in self.writes]


def _is_publish(name: str) -> bool:
    return name.startswith("ckpt_") and name.endswith(".pcr")


# ---------------------------------------------------------------------------
# a run that saves nothing writes nothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", [
    pytest.param(c, id=n, marks=needs_fork if n in ("multiproc", "sockets")
                 else ()) for n, c in ALL_CONFIGS])
def test_checkpoint_free_run_writes_nothing(tmp_path, monkeypatch, config):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c")
    rec = Recorder(monkeypatch)
    res = rt.run(WOVEN, config=config, **_kw(3))
    assert res.value == _plain(3)
    assert rec.writes == [] and rec.fsyncs == 0, (rec.names(), rec.fsyncs)
    assert not rt.ledger.path.exists()


@needs_fork
def test_checkpoint_free_service_job_writes_nothing(tmp_path, monkeypatch):
    from repro.service import RuntimeService, ServiceClient

    with RuntimeService(workers=2, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        rec = Recorder(monkeypatch)
        job = client.submit(WOVEN, nranks=2, **_kw(3))
        out = client.result(job, timeout=120.0)
        assert out["status"] == "done" and out["value"] == _plain(3)
        assert rec.writes == [] and rec.fsyncs == 0, \
            (rec.names(), rec.fsyncs)
        assert not list((tmp_path / "svc").glob("run_status*"))
        # the finished job's namespace left the store's cache
        assert svc.store._namespaces == {}


# ---------------------------------------------------------------------------
# "running" is durable before the first checkpoint is published
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cas", [False, True], ids=["full", "cas"])
@pytest.mark.parametrize("async_", [False, True], ids=["sync", "async"])
def test_running_precedes_first_publish(tmp_path, monkeypatch, cas,
                                        async_):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                 policy=EveryN(8), ckpt_cas=cas, ckpt_async=async_)
    rec = Recorder(monkeypatch)
    try:
        res = rt.run(WOVEN, config=ExecConfig.sequential(), **_kw(3))
    finally:
        rt.close()
    assert res.value == _plain(3)
    names = rec.names()
    publishes = [i for i, n in enumerate(names) if _is_publish(n)]
    ledger = [i for i, n in enumerate(names) if n == LEDGER]
    assert len(publishes) == 2, names
    # running before the first publish, completed after the last
    assert len(ledger) == 2 and ledger[0] < publishes[0] < publishes[-1] \
        < ledger[1], names
    assert [b"running" in rec.writes[i][1] for i in ledger] == [True, False]
    assert rt.ledger.status() == rt.ledger.COMPLETED


@pytest.mark.parametrize("cas", [False, True], ids=["full", "cas"])
def test_racing_first_shard_saves_mark_running_once(tmp_path, monkeypatch,
                                                    cas):
    """Four simcluster ranks (threads of one process) save their first
    shards at once; the ledger write is slowed down so the others reach
    the hook while it is in flight.  Full shards race to it freely; CAS
    shards reach it under the chunk store's lock."""
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                 policy=EveryN(8), ckpt_strategy=STRATEGY_LOCAL,
                 ckpt_cas=cas)
    rec = Recorder(monkeypatch, ledger_delay=0.05)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        res = rt.run(WOVEN, config=ExecConfig.distributed(4), **_kw(3))
    finally:
        sys.setswitchinterval(interval)
    assert res.value == _plain(3)
    names = rec.names()
    publishes = [i for i, n in enumerate(names) if _is_publish(n)]
    assert len(publishes) == 8, names  # 4 shards at each of 2 saves
    running = [i for i, (p, data) in enumerate(rec.writes)
               if p.name == LEDGER and b"running" in data]
    assert len(running) == 1 and running[0] < publishes[0], names
    assert json.loads(rt.ledger.path.read_text())["attempts"] == 1


# ---------------------------------------------------------------------------
# stale restores and crash states
# ---------------------------------------------------------------------------

def test_crash_before_first_save_never_restores_another_runs_checkpoint(
        tmp_path):
    """Run A completes; run B crashes before its first save; run C must
    start fresh.  With ``running`` marked at launch, C took B's crash
    for a restartable one and restored A's checkpoint 20 — a different
    run's state — returning a wrong value without raising."""
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c", policy=EveryN(5))
    seq = dict(config=ExecConfig.sequential())
    assert rt.run(WOVEN, **seq, **_kw(1)).value == _plain(1)
    with pytest.raises(InjectedFailure):
        rt.run(WOVEN, injector=FailureInjector(fail_at=3), **seq, **_kw(2))
    res = rt.run(WOVEN, **seq, **_kw(2))
    assert res.events.of_kind("restore") == []
    assert res.value == _plain(2)


def _run(rt, seed, **kw):
    return rt.run(WOVEN, config=ExecConfig.sequential(), **kw, **_kw(seed))


def test_a_restart_restores_only_its_own_runs_checkpoints(tmp_path):
    """Run A (seed 1) completes with checkpoints up to 20; run B (seed 2)
    crashes at 7 after saving 5; run C (seed 2) restarts B.  Without a
    run token C restored A's count 20 and returned A's grid's value."""
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c", policy=EveryN(5))
    assert _run(rt, 1).value == _plain(1)
    with pytest.raises(InjectedFailure):
        _run(rt, 2, injector=FailureInjector(fail_at=7))
    res = _run(rt, 2)
    assert [e.data["count"] for e in res.events.of_kind("restore")] == [5]
    assert res.value == _plain(2)
    # A's count 20 and C's stand side by side, each under its run's token
    assert len(list((tmp_path / "c").glob("ckpt_000000020.t*.pcr"))) == 2


@needs_fork
@pytest.mark.parametrize("cas", [False, True], ids=["full", "cas"])
def test_a_restart_assembles_only_its_own_runs_shards(tmp_path, cas):
    """The same three runs on multiproc(2) with per-rank shards: C's
    shard set at 5 is B's own, and A's complete sets at 10..20 are
    another run's, so none of them is a candidate."""
    config = ExecConfig.distributed(2).with_backend("multiproc")
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c", policy=EveryN(5),
                 ckpt_strategy=STRATEGY_LOCAL, ckpt_cas=cas)
    kw = dict(config=config, **_kw(1))
    assert rt.run(WOVEN, **kw).value == _plain(1)
    kw = dict(config=config, **_kw(2))
    with pytest.raises(InjectedFailure):
        rt.run(WOVEN, injector=FailureInjector(fail_at=7), **kw)
    res = rt.run(WOVEN, **kw)
    assert [e.data["count"] for e in res.events.of_kind("restore")] \
        == [5, 5]  # one per rank
    assert res.value == _plain(2)


def test_a_resumed_ledger_keeps_its_token_round_after_round(tmp_path):
    """The bench's recover pattern: one crash, then rounds of
    ``mark_running`` on the completed ledger plus a run, each in a new
    ``Runtime``.  Every round continues the crashed run and restores its
    checkpoint; none mints a token of its own."""
    def runtime():
        return Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                       policy=AtCounts([5]))

    rt = runtime()
    with pytest.raises(InjectedFailure):
        _run(rt, 2, injector=FailureInjector(fail_at=7))
    token = rt.ledger.token
    for _ in range(2):
        rt = runtime()
        rt.ledger.mark_running()
        res = _run(rt, 2)
        assert [e.data["count"] for e in res.events.of_kind("restore")] \
            == [5]
        assert res.value == _plain(2)
        assert rt.ledger.token == token
        assert rt.ledger.status() == RunLedger.COMPLETED


def test_a_token_less_file_matches_only_a_token_less_ledger(tmp_path):
    """Files written before run tokens (or by a store no ledger began)
    restore only under a ledger that has no token either."""
    store = store_mod.CheckpointStore(tmp_path)
    store.write(Snapshot(app="P", safepoint_count=4, fields={"x": 1},
                         mode="sequential"))
    old = RunLedger(tmp_path)
    old.path.write_text('{"status": "running", "attempts": 1}')
    assert old.begin(store) and old.token is None
    assert store.counts() == [4]
    old.path.write_text(
        '{"status": "running", "attempts": 1, "token": "0a1b2c3d"}')
    assert RunLedger(tmp_path).begin(store)
    assert store.counts() == [] and store.read_latest() is None
    assert RunLedger(tmp_path).status() == RunLedger.RUNNING


CRASH_CASES = [
    ("master-full", dict(), ExecConfig.sequential()),
    ("local-cas", dict(ckpt_cas=True, ckpt_strategy=STRATEGY_LOCAL),
     ExecConfig.distributed(2)),
]


@pytest.mark.parametrize("knobs,config", [c[1:] for c in CRASH_CASES],
                         ids=[c[0] for c in CRASH_CASES])
def test_every_crash_state_restarts_to_the_plain_value(tmp_path,
                                                       monkeypatch, knobs,
                                                       config):
    """A run that crashes after its second save (EveryN(5), failure at
    safe point 12), recorded write by write; every prefix of that
    sequence, replayed into an empty directory, is one crash state, and
    a restart from each must return the uninterrupted value.

    master-full: 3 writes (running, ckpt 5, ckpt 10), 4 states.
    local-cas: 9 writes (a pack and a recipe per shard per save, with
    running between the first pack and the first recipe), 10 states.
    Both cases together take about 1 s.
    """
    crash = tmp_path / "crash"
    rt = Runtime(machine=MACHINE, ckpt_dir=crash, policy=EveryN(5),
                 **knobs)
    with monkeypatch.context() as patched:
        rec = Recorder(patched)
        with pytest.raises(InjectedFailure):
            rt.run(WOVEN, config=config, fresh=True,
                   injector=FailureInjector(fail_at=12), **_kw(2))
    writes = [(p.relative_to(crash), data) for p, data in rec.writes]
    names = [p.name for p, _ in writes]
    assert names.count(LEDGER) == 1
    assert names.index(LEDGER) < min(
        i for i, n in enumerate(names) if _is_publish(n))
    restored = set()
    for k in range(len(writes) + 1):
        state = tmp_path / f"state{k}"
        state.mkdir()
        for rel, data in writes[:k]:
            (state / rel).parent.mkdir(parents=True, exist_ok=True)
            (state / rel).write_bytes(data)
        res = Runtime(machine=MACHINE, ckpt_dir=state, policy=EveryN(5),
                      **knobs).run(WOVEN, config=config, **_kw(2))
        assert res.value == _plain(2), f"crash state {k}: {names[:k]}"
        restored.update(e.data["count"] for e in res.events.of_kind(
            "restore"))
    assert restored == {5, 10}


def test_the_publish_hook_builds_no_reference_cycle(tmp_path):
    """Shards reach the ledger through a shared one-element cell, not a
    pointer back to the root store: dropping the last reference frees
    the store and its shards at once, with the cycle collector off."""
    ledger = RunLedger(tmp_path)
    store = CasCheckpointStore(tmp_path)
    ledger.begin(store)
    shards = [weakref.ref(store.shard(r)) for r in range(3)]
    root = weakref.ref(store)
    gc.disable()
    try:
        del store
        assert root() is None and all(s() is None for s in shards)
    finally:
        gc.enable()
