"""Every call the benchmark makes into ``repro`` lives in this file.

Workloads and probes name *what* to do (an app, a backend, a store
kind); this module knows *how* the program spells it.  A later API
change is then a change to this one file, and the spans the traced run
records are taken here, at the boundary of each layer.

Where a measurement can only be taken inside a forked rank (the ``dsm``
transport probes), the rank body times itself here and reports seconds;
everywhere else this module returns values or zero-argument callables
and ``probes.py`` owns the timing protocol.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.apps.moldyn import MolDyn
from repro.apps.plugs.moldyn_plugs import MOLDYN_CKPT, MOLDYN_DIST
from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import (
    AtCounts,
    CasCheckpointStore,
    CheckpointStore,
    ChunkStore,
    EveryN,
    FailureInjector,
    IncrementalCheckpointStore,
    InjectedFailure,
    Snapshot,
)
from repro.ckpt.chunker import chunk_refs
from repro.core import (
    STRATEGY_LOCAL,
    STRATEGY_MASTER,
    AdaptationPlan,
    AdaptStep,
    ExecConfig,
    Runtime,
    plug,
)
from repro.dsm import BlockLayout, RankContext, shm
# no public way to give a hand-built communicator its rank context
from repro.dsm.comm import _bind as bind_rank
from repro.dsm.partition import gather_inplace, scatter_inplace
from repro.dsm.procmail import ProcCommunicator
from repro.dsm.socketmail import HierarchicalCommunicator, SocketTransport
from repro.elastic import ReshapePlan
from repro.service import RuntimeService, ServiceClient
from repro.smp import AdaptiveBarrier, ThreadTeam
from repro.telemetry import MetricsRegistry, TelemetryPlane
from repro.telemetry import schema as telemetry_schema
from repro.trace import TraceAssembler, TracePlane
from repro.trace import schema as trace_schema
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel

from spans import span

MACHINE = MachineModel(nodes=2, cores_per_node=8)

#: app name -> (plain class, plug set); both are entered at ``execute``.
APPS = {
    "sor": (SOR, SOR_ADAPTIVE),
    "moldyn": (MolDyn, MOLDYN_DIST + MOLDYN_CKPT),
}

BACKENDS = ("sequential", "threads", "simcluster", "hybrid", "multiproc",
            "sockets")
ELASTIC_BACKENDS = ("threads", "simcluster", "multiproc")
STORES = ("full", "delta", "cas")


# ---------------------------------------------------------------------------
# apps + core
# ---------------------------------------------------------------------------
def plain(app: str, kwargs: dict):
    """The unwoven single-thread reference value."""
    return APPS[app][0](**kwargs).execute()


def weave(app: str) -> type:
    cls, plugs = APPS[app]
    with span("core.plug"):
        return plug(cls, plugs)


def config(backend: str, pes: int = 2) -> ExecConfig:
    if backend == "sequential":
        return ExecConfig.sequential()
    if backend == "threads":
        return ExecConfig.shared(pes)
    if backend == "simcluster":
        return ExecConfig.distributed(pes)
    if backend == "hybrid":
        return ExecConfig.hybrid(pes, 2)
    return ExecConfig.distributed(pes).with_backend(backend)


def plan(steps: list[tuple]) -> AdaptationPlan:
    """``(safe point, backend, pes[, in_place])`` per step."""
    return AdaptationPlan([
        AdaptStep(at=s[0], config=config(s[1], s[2]),
                  in_place=s[3] if len(s) > 3 else None)
        for s in steps])


def run_app(woven: type, kwargs: dict, cfg: ExecConfig, ckpt_dir, *,
            every: int | None = None, at: list[int] | None = None,
            local_shards: bool = False, store: str = "full",
            ckpt_async: bool = False, steps: list[tuple] | None = None,
            fail_at: int | None = None, resume: bool = False,
            telemetry: bool = True, trace: bool | str = False):
    """One ``Runtime`` life: construct, run to completion, close.

    Returns ``(RunResult, Runtime)``; the runtime is closed but its
    store is still readable for post-run checks.  ``resume`` marks the
    ledger as a crashed execution first, which is what makes the pcr
    start-up check restore from the directory's newest checkpoint.
    """
    policy = EveryN(every) if every else AtCounts(at) if at else None
    with span("core.Runtime"):
        rt = Runtime(
            machine=MACHINE, ckpt_dir=ckpt_dir, policy=policy,
            ckpt_strategy=STRATEGY_LOCAL if local_shards else STRATEGY_MASTER,
            ckpt_cas=store == "cas", ckpt_delta=store == "delta",
            ckpt_async=ckpt_async, telemetry=telemetry, trace=trace)
    try:
        if resume:
            rt.ledger.mark_running()
        with span("core.Runtime.run"):
            res = rt.run(
                woven, ctor_kwargs=kwargs, entry="execute", config=cfg,
                plan=plan(steps) if steps else None,
                injector=FailureInjector(fail_at=fail_at) if fail_at else None)
    finally:
        with span("core.Runtime.close"):
            rt.close()
    return res, rt


def crash_run(woven: type, kwargs: dict, cfg: ExecConfig, ckpt_dir,
              **knobs) -> None:
    """A run that must die at ``fail_at``, leaving its checkpoints."""
    try:
        run_app(woven, kwargs, cfg, ckpt_dir, **knobs)
    except InjectedFailure:
        return
    raise AssertionError("the injected failure never fired")


def restore_counts(res) -> list[int]:
    return [e.data["count"] for e in res.events.of_kind("restore")]


def metric_total(res, name: str) -> float:
    """Sum of one metric family over every rank/tier label of a run."""
    reg = MetricsRegistry()
    reg.absorb_snapshot(res.metrics)
    return sum(s.value for s in reg.samples() if s.name == name)


def cas_unreferenced(rt) -> set:
    return rt.store.unreferenced()


def cas_dedup_ratio(rt) -> float:
    """Chunk references per chunk actually stored."""
    cas = rt.store.cas
    return (cas.chunks_stored + cas.chunks_deduped) / max(1, cas.chunks_stored)


def new_runtime(ckpt_dir) -> Runtime:
    return Runtime(machine=MACHINE, ckpt_dir=ckpt_dir)


def leaked_segments() -> list[str]:
    """``ppshm-*`` names in ``/dev/shm`` (must be none between ops)."""
    try:
        return [f for f in os.listdir("/dev/shm")
                if f.startswith(shm.SHM_PREFIX)]
    except FileNotFoundError:
        return []


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------
def service(ckpt_dir, workers: int = 4, lanes: int = 2) -> RuntimeService:
    return RuntimeService(workers=workers, lanes=lanes, machine=MACHINE,
                          ckpt_dir=str(ckpt_dir))


def client(svc: RuntimeService) -> ServiceClient:
    return ServiceClient(svc.address)


def submit(cl: ServiceClient, woven: type, kwargs: dict,
           nranks: int = 2) -> int:
    with span("service.submit"):
        return cl.submit(woven, ctor_kwargs=kwargs, entry="execute",
                         nranks=nranks)


def result(cl: ServiceClient, job: int, timeout: float) -> dict:
    with span("service.result"):
        return cl.result(job, timeout=timeout)


# ---------------------------------------------------------------------------
# dsm: two forked ranks over the queue fabric or loopback TCP
# ---------------------------------------------------------------------------
def _pingpong(comm, rank: int, payload, n: int) -> float:
    """Seconds per round trip of ``payload`` between ranks 0 and 1."""
    comm.barrier()
    t0 = time.perf_counter()
    for _ in range(n):
        if rank == 0:
            comm.send(payload, 1)
            comm.recv(source=1)
        else:
            comm.recv(source=0)
            comm.send(payload, 0)
    return (time.perf_counter() - t0) / n


def _rank_body(rank, fabric, reps, channels, launch_id, addr_q, map_q, out_q):
    plane = shm.DataPlane(shm.BufferPool(launch_id, rank))
    transport = None
    if fabric == "tcp":
        # one physical node per rank: every message is a TCP frame
        transport = SocketTransport(rank, channels, lambda r: r)
        addr_q.put((rank, transport.address))
        transport.set_addresses(map_q.get(timeout=60.0))
        comm = HierarchicalCommunicator(rank, 2, MACHINE, transport,
                                        plane=plane)
    else:
        comm = ProcCommunicator(rank, 2, MACHINE, channels, plane=plane)
    bind_rank(RankContext(rank=rank, nranks=2, clock=VClock(), comm=comm))
    out = {}
    try:
        out["rtt_s"] = _pingpong(comm, rank, np.zeros(8), 40 * reps)
        big = np.zeros(1 << 20)  # 8 MiB
        out["big_rtt_s"] = _pingpong(comm, rank, big, max(2, reps // 4))
        if fabric == "queue":
            out["inline_rtt_s"] = _pingpong(comm, rank, np.zeros(2048),
                                            10 * reps)
            comm.barrier()
            t0 = time.perf_counter()
            for _ in range(20 * reps):
                comm.barrier()
            out["barrier_s"] = (time.perf_counter() - t0) / (20 * reps)
            t0 = time.perf_counter()
            for _ in range(20 * reps):
                comm.allreduce(1.0)
            out["allreduce_s"] = (time.perf_counter() - t0) / (20 * reps)
            field = np.zeros((2048, 2048))
            layout = BlockLayout(axis=0, halo=1)
            rounds = max(2, reps // 4)
            comm.barrier()
            t0 = time.perf_counter()
            for _ in range(rounds):
                scatter_inplace(comm, field, layout, root=0)
                gather_inplace(comm, field, layout, root=0)
            comm.barrier()
            out["scatter_gather_s"] = (time.perf_counter() - t0) / rounds
        if rank == 0:
            out_q.put(out)
    finally:
        bind_rank(None)
        if transport is not None:
            transport.close()
        plane.close()


def rank_pair_timings(fabric: str, reps: int) -> dict[str, float]:
    """Run the two-rank loops; rank 0's per-iteration seconds."""
    ctx = mp.get_context("fork")
    launch_id = shm.new_launch_id()
    channels = [ctx.Queue() for _ in range(2)]
    addr_q, map_q, out_q = ctx.Queue(), ctx.Queue(), ctx.Queue()
    procs = [ctx.Process(target=_rank_body, daemon=True,
                         args=(r, fabric, reps, channels, launch_id, addr_q,
                               map_q, out_q))
             for r in range(2)]
    try:
        for p in procs:
            p.start()
        if fabric == "tcp":
            addresses = dict(addr_q.get(timeout=60.0) for _ in range(2))
            for _ in range(2):
                map_q.put(addresses)
        return out_q.get(timeout=120.0)
    finally:
        for p in procs:
            p.join(timeout=30.0)
            if p.is_alive():
                p.terminate()
                p.join()
        shm.unlink_pool(launch_id, 2)


def pool_lease_cycle():
    """``(callable, cleanup)``: lease and return one 64 KiB slab."""
    pool = shm.BufferPool(shm.new_launch_id(), 0)

    def cycle():
        pool.lease(1 << 16).cancel()

    return cycle, pool.unlink_all


def shm_segment_cycle():
    """Allocate + attach + unlink one 8 MiB segment."""
    name = shm.segment_name(shm.new_launch_id(), "probe")
    seg = shm.ShmSegment.allocate(name, (1 << 20,), np.float64)
    peer = shm.ShmSegment.attach(name, (1 << 20,), np.float64)
    peer.ndarray()
    peer.close()
    seg.unlink()


# ---------------------------------------------------------------------------
# smp
# ---------------------------------------------------------------------------
def team_region():
    """``(callable, cleanup)``: one empty 2-worker region fork/join."""
    team = ThreadTeam(MACHINE, size=2)
    return (lambda: team.run_region(lambda: None)), team.shutdown


def barrier_rounds(n: int) -> float:
    """Seconds per 2-party ``AdaptiveBarrier`` generation."""
    bar = AdaptiveBarrier(2)

    def peer():
        for _ in range(n):
            bar.wait()

    th = threading.Thread(target=peer)
    th.start()
    t0 = time.perf_counter()
    for _ in range(n):
        bar.wait()
    dt = time.perf_counter() - t0
    th.join()
    return dt / n


# ---------------------------------------------------------------------------
# ckpt
# ---------------------------------------------------------------------------
def sor_state(n: int, seed: int):
    """A plain SOR instance whose ``sweep`` changes ``G`` in place."""
    return SOR(n=n, iterations=1, seed=seed)


def capture(app, count: int) -> Snapshot:
    return Snapshot.capture(app, ["G", "iterations_done"], count, app="SOR")


def encode(snap: Snapshot) -> bytes:
    return snap.encode()


def decode(data: bytes) -> Snapshot:
    return Snapshot.decode(data)


def make_store(kind: str, directory) -> CheckpointStore:
    if kind == "cas":
        return CasCheckpointStore(directory)
    if kind == "delta":
        return IncrementalCheckpointStore(directory)
    return CheckpointStore(directory)


def chunk(blob) -> list:
    return chunk_refs(blob)


def chunk_store(directory) -> ChunkStore:
    return ChunkStore(directory)


def partitioned_fields(woven: type) -> dict:
    return woven.__pp_plugs__.partitioned_fields()


def disk_bytes(directory) -> int:
    return sum(f.stat().st_size for f in Path(directory).rglob("*")
               if f.is_file())


# ---------------------------------------------------------------------------
# elastic, telemetry, trace
# ---------------------------------------------------------------------------
def reshape_moves() -> int:
    """Build one 2->4 plan and derive its move schedule (n=512 rows)."""
    return len(ReshapePlan(2, 4).moves(BlockLayout(axis=0, halo=1), 512))


def telemetry_writer_and_scrape():
    """``(inc, scrape, cleanup)`` on a process-local 2-rank plane."""
    tplane = TelemetryPlane.local(2, backend="bench")
    writer = tplane.writer(0)
    slot = telemetry_schema.SAFEPOINTS

    def scrape():
        reg = MetricsRegistry()
        reg.absorb(tplane.scrape())
        return reg.snapshot()

    return (lambda: writer.inc(slot)), scrape, tplane.close


def trace_writer_and_assemble():
    """``(span, assemble, cleanup)`` on a process-local 2-rank ring."""
    trplane = TracePlane.local(2)
    writer = trplane.writer(0)
    code = trace_schema.SAFEPOINT

    def one_span():
        writer.span(code, time.perf_counter())

    def assemble():
        asm = TraceAssembler()
        for rank, records in trplane.scrape().items():
            asm.add(rank, records)
        return asm.emit()

    return one_span, assemble, trplane.close
