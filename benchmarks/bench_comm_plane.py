"""The zero-copy data plane vs queue pickling — wall time, asserted.

Every payload the multiprocessing backend moves between rank processes
used to be pickled through a ``multiprocessing.Queue``: a pickle, a
pipe write, a pipe read and an unpickle per message.  The shared-memory
data plane (:mod:`repro.dsm.shm`) replaces that with one memcpy into a
pooled slab plus a ~200-byte descriptor through the queue.

This benchmark drives the real transport — ``ProcCommunicator`` over
forked rank processes — through the paper's data movements
(block scatter with halo widening, halo exchange, gather) and through
the checkpoint-collection funnel, with the plane on and off, across
rank counts.  Wall seconds are what changes; results and virtual time
are transport-independent (asserted here for the movements, and by the
five-backend parity suite for whole runs).

The headline claim is asserted: on large-array scatter + halo at 4
ranks the shm-descriptor transport beats queue pickling by >= 2x wall.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import numpy as np
import pytest

from paper_report import FigureReport, RESULTS_DIR
from repro.ckpt.funnel import CheckpointFunnel, FunnelStore
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.store import CheckpointStore
from repro.dsm import shm
from repro.dsm.comm import RankContext, _bind
from repro.dsm.partition import (
    BlockLayout,
    exchange_halo,
    gather_inplace,
    scatter_inplace,
)
from repro.dsm.procmail import ProcCommunicator
from repro.telemetry import MetricsRegistry, TelemetryPlane, bind
from repro.trace import (
    TraceAssembler,
    TracePlane,
    bind as trace_bind,
    schema as trace_schema,
    validate_chrome_trace,
)
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="the benchmark measures the fork-based process transport")

#: the movement workload: a block-partitioned 2-D field with a wide
#: halo (the paper's stencil shape, sized so every payload clears the
#: slab threshold by a wide margin).
ROWS, COLS, HALO = 768, 1536, 8
ROUNDS = 4
RANK_COUNTS = (2, 4)
#: checkpoint-collection workload: funnelled snapshot fields.
CKPT_FIELDS, CKPT_ROWS = 2, 512
CKPT_ROUNDS = 6

MACHINE = MachineModel(nodes=1, cores_per_node=8)


def _movement_worker(rank, nranks, channels, launch_id, transport,
                     out_queue, telemetry=False, trace="off"):
    """One rank of the scatter/halo/gather loop; reports wall + vtime.

    ``telemetry`` binds a live metrics writer on this rank's hot paths
    (data-plane tiers, pool leases, mailbox waits) exactly as a
    telemetry-enabled launch does; the scraped snapshot rides home in
    the report so the parent can aggregate and assert on it.

    ``trace`` binds a ring writer the same way (``"full"`` for the
    default-depth ring, ``"flight"`` for the small flight-recorder
    ring): every message send stamps a sequence id and every mailbox
    receive records its wait, exactly as a traced launch does.  The
    scraped records ride home so the parent can assemble a real
    document from the run.

    ``transport``: ``"queue"`` pickles every payload through the pipes,
    ``"slab"`` moves large arrays through pooled slabs.
    """
    plane = None
    if transport != "queue":
        plane = shm.DataPlane(shm.BufferPool(launch_id, rank))
    tplane = None
    if telemetry:
        tplane = TelemetryPlane.local(nranks, backend="bench")
        bind(tplane.writer(rank))
    trplane = None
    if trace != "off":
        cap = (trace_schema.FLIGHT_CAPACITY if trace == "flight"
               else trace_schema.DEFAULT_CAPACITY)
        trplane = TracePlane.local(nranks, capacity=cap)
        trace_bind(trplane.writer(rank))
    comm = ProcCommunicator(rank, nranks, MACHINE, channels, plane=plane)
    clock = VClock()
    _bind(RankContext(rank=rank, nranks=nranks, clock=clock, comm=comm))
    layout = BlockLayout(axis=0, halo=HALO)
    if rank == 0:
        arr = np.arange(ROWS * COLS, dtype=np.float64).reshape(ROWS, COLS)
    else:
        arr = np.zeros((ROWS, COLS))
    try:
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            scatter_inplace(comm, arr, layout, root=0)
            comm.barrier()
            exchange_halo(comm, arr, layout)
            gather_inplace(comm, arr, layout, root=0)
        comm.barrier()
        wall = time.perf_counter() - t0
        checksum = float(arr.sum()) if rank == 0 else 0.0
        snap = None
        if tplane is not None:
            reg = MetricsRegistry()
            reg.absorb(tplane.scrape())
            snap = reg.snapshot()
        trecs = None
        if trplane is not None:
            trecs = trplane.scrape().get(rank, [])
        out_queue.put((rank, wall, clock.now, checksum,
                       plane.pool.leases if plane else 0, snap, trecs))
    finally:
        _bind(None)
        if tplane is not None:
            bind(None)
            tplane.close()
        if trplane is not None:
            trace_bind(None)
            trplane.close()
        if plane is not None:
            plane.close()


def _ckpt_worker(rank, nranks, link, launch_id, use_plane, out_queue):
    """Rank 0 funnels snapshots to the parent store; peers idle."""
    store_client = FunnelStore(rank, link, is_async=False)
    plane = None
    if use_plane:
        plane = shm.DataPlane(shm.BufferPool(launch_id, rank))
        store_client.plane = plane
    try:
        wall = 0.0
        if rank == 0:
            fields = {f"f{i}": np.random.default_rng(i).random(
                (CKPT_ROWS, COLS)) for i in range(CKPT_FIELDS)}
            t0 = time.perf_counter()
            for count in range(CKPT_ROUNDS):
                snap = Snapshot(app="bench", safepoint_count=count,
                                fields=fields, mode="distributed")
                store_client.write(snap)
            wall = time.perf_counter() - t0
        out_queue.put((rank, wall, 0.0, 0.0, None))
    finally:
        if plane is not None:
            plane.close()


def _launch(target, nranks, transport, store=None, telemetry=False,
            trace="off"):
    """Fork ``nranks`` workers, collect their reports, sweep the slabs."""
    ctx = mp.get_context("fork")
    launch_id = shm.new_launch_id()
    channels = [ctx.Queue() for _ in range(nranks)]
    out_queue = ctx.Queue()
    funnel = None
    procs = []
    try:
        for r in range(nranks):
            if target is _ckpt_worker:
                if funnel is None:
                    funnel = CheckpointFunnel()
                    funnel.register("", store)
                link = funnel.pipe()
                args = (r, nranks, link, launch_id, transport != "queue",
                        out_queue)
            else:
                args = (r, nranks, channels, launch_id, transport,
                        out_queue, telemetry, trace)
            p = ctx.Process(target=target, args=args, daemon=True)
            procs.append(p)
            p.start()
            if target is _ckpt_worker:
                link.close()  # the worker holds its end now
        if funnel is not None:
            funnel.start()
        reports = [out_queue.get(timeout=120.0) for _ in range(nranks)]
        return sorted(reports)
    finally:
        for p in procs:
            p.join(timeout=30.0)
        for p in procs:
            if p.is_alive():
                p.terminate()
        if funnel is not None:
            funnel.stop()
        shm.unlink_pool(launch_id, nranks)


def _no_leaks():
    if os.path.isdir("/dev/shm"):
        left = [f for f in os.listdir("/dev/shm")
                if f.startswith(shm.SHM_PREFIX)]
        assert left == [], f"leaked segments: {left}"


def test_comm_plane(benchmark, tmp_path):
    report = FigureReport(
        "Comm plane",
        "Queue-pickle vs shm-descriptor transport: wall seconds for "
        f"{ROUNDS} rounds of scatter+halo+gather over a "
        f"{ROWS}x{COLS} float64 field, and {CKPT_ROUNDS} funnelled "
        f"checkpoint collections of {CKPT_FIELDS}x{CKPT_ROWS}x{COLS}",
        ["workload", "ranks", "queue_s", "shm_s", "speedup"])

    def experiment():
        rows = {}
        for nranks in RANK_COUNTS:
            q = _launch(_movement_worker, nranks, "queue")
            s = _launch(_movement_worker, nranks, "slab")
            q_wall = max(r[1] for r in q)
            s_wall = max(r[1] for r in s)
            # transport independence: same data, same modelled time
            assert s[0][3] == q[0][3], "transports diverged on data"
            assert s[0][2] == pytest.approx(q[0][2]), \
                "transports diverged on virtual time"
            assert s[0][4] > 0, "plane never engaged: no slab leased"
            rows[("scatter+halo", nranks)] = (q_wall, s_wall)
            report.add("scatter+halo+gather", nranks, q_wall, s_wall,
                       q_wall / s_wall)
        for nranks in RANK_COUNTS:
            store_q = CheckpointStore(tmp_path / f"q{nranks}")
            store_s = CheckpointStore(tmp_path / f"s{nranks}")
            q = _launch(_ckpt_worker, nranks, "queue", store=store_q)
            s = _launch(_ckpt_worker, nranks, "slab", store=store_s)
            q_wall, s_wall = q[0][1], s[0][1]
            qb = {p.name: p.read_bytes()
                  for p in sorted(store_q.dir.iterdir()) if p.is_file()}
            sb = {p.name: p.read_bytes()
                  for p in sorted(store_s.dir.iterdir()) if p.is_file()}
            assert qb == sb and len(qb) > 0, \
                "checkpoint bytes diverged across transports"
            rows[("ckpt", nranks)] = (q_wall, s_wall)
            report.add("ckpt-collection", nranks, q_wall, s_wall,
                       q_wall / s_wall)
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    q_wall, s_wall = rows[("scatter+halo", 4)]
    report.emit(benchmark, json_name="comm_plane",
                extra={"speedup_slab_4r": q_wall / s_wall})
    _no_leaks()

    # the headline: >= 2x wall on large-array scatter+halo at 4+ ranks
    assert s_wall * 2.0 <= q_wall, (
        f"shm transport only {q_wall / s_wall:.2f}x faster than queue "
        f"pickling on scatter+halo at 4 ranks ({s_wall:.3f}s vs "
        f"{q_wall:.3f}s)")
    # the funnel path must not regress; its measured edge is ~1.2x
    # (encode + disk dominate), so gate with noise headroom instead of
    # a zero-margin strict win a loaded CI runner would flake on.
    q_wall, s_wall = rows[("ckpt", 4)]
    assert s_wall < 1.3 * q_wall, (
        f"checkpoint collection regressed over the plane: {s_wall:.3f}s "
        f"vs {q_wall:.3f}s queue")


# ---------------------------------------------------------------------------
# telemetry overhead: bound metrics writers on the same hot paths
# ---------------------------------------------------------------------------
#: repetitions per arm — min-of-N filters scheduler noise out of a
#: single-digit-percent assertion.
TELE_REPS = 3


def test_telemetry_overhead(benchmark):
    """The metrics plane must be invisible in the data it produces and
    nearly invisible in the wall clock: the slab-transport movement
    workload with writers bound on every hot path (tier counters, pool
    leases, mailbox waits) stays within 3% of the unbound run, and the
    checksums agree bit-exactly — telemetry is wall-side only."""
    report = FigureReport(
        "Telemetry overhead",
        "Movement workload (slab transport) with metrics writers bound "
        f"vs unbound: min-of-{TELE_REPS} wall seconds for {ROUNDS} "
        f"rounds of scatter+halo+gather over a {ROWS}x{COLS} float64 "
        "field at 4 ranks",
        ["ranks", "off_s", "on_s", "on/off"])

    def experiment():
        def arm(flag):
            walls, reps = [], None
            for _ in range(TELE_REPS):
                reps = _launch(_movement_worker, 4, "slab",
                               telemetry=flag)
                walls.append(max(r[1] for r in reps))
            return min(walls), reps
        off, off_reps = arm(False)
        on, on_reps = arm(True)
        # bit-identical results and virtual time, telemetry on or off
        assert on_reps[0][3] == off_reps[0][3], \
            "telemetry changed the data"
        assert on_reps[0][2] == pytest.approx(off_reps[0][2]), \
            "telemetry changed virtual time"
        reg = MetricsRegistry()
        for r in on_reps:
            if r[5] is not None:
                reg.absorb_snapshot(r[5])
        # the writers were live: the plane counted real traffic
        assert reg.value("repro_dsm_send_msgs_total",
                         {"tier": "slab"}) > 0, "slab tier never counted"
        assert reg.value("repro_dsm_pool_leases_total") > 0
        assert reg.value("repro_dsm_mailbox_recvs_total") > 0
        return off, on, reg

    off, on, reg = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report.add(4, off, on, on / off)
    report.emit(benchmark, json_name="telemetry_overhead",
                extra={"overhead_ratio": on / off}, metrics=reg)
    _no_leaks()
    # the acceptance bar: <= 3% wall overhead (plus a fixed headroom so
    # a loaded runner's jitter on sub-second walls cannot flake it).
    assert on <= off * 1.03 + 0.05, (
        f"telemetry overhead {on / off:.3f}x exceeds 3% "
        f"({on:.3f}s on vs {off:.3f}s off)")


# ---------------------------------------------------------------------------
# tracing overhead: ring writers on the same hot paths
# ---------------------------------------------------------------------------
TRACE_REPS = 3


def test_tracing_overhead(benchmark):
    """The trace plane must also be invisible in the data and nearly
    invisible in the wall clock: the slab-transport movement workload
    with ring writers bound (send stamps + receive-wait records on
    every message) stays within 5% of the unbound run, full-depth and
    flight-recorder rings measured separately — and the records that
    came back assemble into a schema-valid Chrome document
    (``benchmarks/results/trace.json``, Perfetto-loadable)."""
    import json

    report = FigureReport(
        "Tracing overhead",
        "Movement workload (slab transport) with trace-ring writers "
        f"bound vs unbound: min-of-{TRACE_REPS} wall seconds for "
        f"{ROUNDS} rounds of scatter+halo+gather over a {ROWS}x{COLS} "
        "float64 field at 4 ranks",
        ["ranks", "off_s", "full_s", "flight_s", "full/off",
         "flight/off"])

    def experiment():
        def arm(mode):
            walls, reps = [], None
            for _ in range(TRACE_REPS):
                reps = _launch(_movement_worker, 4, "slab", trace=mode)
                walls.append(max(r[1] for r in reps))
            return min(walls), reps
        off, off_reps = arm("off")
        full, full_reps = arm("full")
        flight, flight_reps = arm("flight")
        # bit-identical results and virtual time, tracing on or off
        assert full_reps[0][3] == off_reps[0][3] == flight_reps[0][3], \
            "tracing changed the data"
        assert full_reps[0][2] == pytest.approx(off_reps[0][2]), \
            "tracing changed virtual time"
        # the writers were live: real message traffic came back, and it
        # assembles into a valid document with cross-rank flow arrows.
        asm = TraceAssembler()
        for r in full_reps:
            asm.add(r[0], r[6])
        doc = asm.emit()
        counts = validate_chrome_trace(doc)
        assert counts["flows"] > 0, "no flow edges in the bench trace"
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "trace.json").write_text(json.dumps(doc))
        # flight rings are bounded by construction: the black box never
        # outgrows its capacity however much traffic flowed.
        for r in flight_reps:
            assert len(r[6]) <= trace_schema.FLIGHT_CAPACITY
        return off, full, flight, counts

    off, full, flight, counts = benchmark.pedantic(experiment, rounds=1,
                                                   iterations=1)
    report.add(4, off, full, flight, full / off, flight / off)
    report.emit(benchmark, json_name="tracing_overhead",
                extra={"overhead_full": full / off,
                       "overhead_flight": flight / off,
                       "trace_events": counts["events"],
                       "trace_flows": counts["flows"]})
    _no_leaks()
    # the acceptance bar: <= 5% wall overhead per mode (plus the same
    # fixed headroom the telemetry gate uses against runner jitter).
    assert full <= off * 1.05 + 0.05, (
        f"tracing overhead {full / off:.3f}x exceeds 5% "
        f"({full:.3f}s on vs {off:.3f}s off)")
    assert flight <= off * 1.05 + 0.05, (
        f"flight-recorder overhead {flight / off:.3f}x exceeds 5% "
        f"({flight:.3f}s on vs {off:.3f}s off)")


# ---------------------------------------------------------------------------
# topology-aware collectives: intra-node queues vs inter-node frames
# ---------------------------------------------------------------------------
#: collective workload on the hierarchical fabric (per-round payload).
COLL_ELEMS = 128 * 1024  # 1 MiB of float64
COLL_ROUNDS = 4
COLL_RANKS = 4

HIER_MACHINE = MachineModel(nodes=2, cores_per_node=4)


def _coll_worker(rank, nranks, channels, layout, addr_q, map_q, out_queue):
    """One rank of the bcast/gather/reduce loop on the sockets fabric.

    ``layout``: ``"intra"`` places every rank on one physical node (all
    traffic through the queue fabric, zero TCP frames); ``"inter"``
    gives each rank its own node (every remote hop a framed loopback
    TCP message).  Same machine model, same payloads — the wall-time
    difference is the transport cost the hierarchical router avoids for
    co-located peers.
    """
    from repro.dsm.socketmail import HierarchicalCommunicator, SocketTransport

    pnode = (lambda r: 0) if layout == "intra" else (lambda r: r)
    transport = SocketTransport(rank, channels, pnode)
    addr_q.put((rank, transport.address))
    addresses = map_q.get(timeout=60.0)
    transport.set_addresses(addresses)
    comm = HierarchicalCommunicator(rank, nranks, HIER_MACHINE, transport)
    clock = VClock()
    _bind(RankContext(rank=rank, nranks=nranks, clock=clock, comm=comm))
    data = np.arange(COLL_ELEMS, dtype=np.float64) * (rank + 1)
    try:
        comm.barrier()
        t0 = time.perf_counter()
        checksum = 0.0
        for _ in range(COLL_ROUNDS):
            b = comm.bcast(data if rank == 0 else None, root=0)
            g = comm.gather(float(data[rank]), root=0)
            s = comm.reduce(float(rank + 1), root=0)
            if rank == 0:
                checksum += float(b.sum()) + sum(g) + s
        comm.barrier()
        wall = time.perf_counter() - t0
        frames = sum(transport.frame_counts().values())
        out_queue.put((rank, wall, clock.now, checksum, frames))
    finally:
        _bind(None)
        transport.close()


def _launch_coll(nranks, layout):
    ctx = mp.get_context("fork")
    channels = [ctx.Queue() for _ in range(nranks)]
    addr_q, map_q, out_queue = ctx.Queue(), ctx.Queue(), ctx.Queue()
    procs = [ctx.Process(target=_coll_worker,
                         args=(r, nranks, channels, layout, addr_q,
                               map_q, out_queue), daemon=True)
             for r in range(nranks)]
    try:
        for p in procs:
            p.start()
        addresses = dict(addr_q.get(timeout=60.0) for _ in range(nranks))
        for _ in range(nranks):
            map_q.put(addresses)
        return sorted(out_queue.get(timeout=120.0) for _ in range(nranks))
    finally:
        for p in procs:
            p.join(timeout=30.0)
        for p in procs:
            if p.is_alive():
                p.terminate()


def test_hier_collectives_intra_vs_inter(benchmark):
    """The topology-routing variant: the same flat collectives cost
    queue handoffs when ranks share a node and framed TCP round trips
    when they do not.  Both layouts must agree bit-exactly on the data;
    the frame counters prove which fabric carried it."""
    report = FigureReport(
        "Hierarchical collectives",
        "Intra-node (queue fabric) vs inter-node (framed loopback TCP) "
        f"wall seconds for {COLL_ROUNDS} rounds of bcast+gather+reduce "
        f"of {COLL_ELEMS} float64 on the sockets fabric",
        ["workload", "ranks", "intra_s", "inter_s", "inter/intra"])

    def experiment():
        intra = _launch_coll(COLL_RANKS, "intra")
        inter = _launch_coll(COLL_RANKS, "inter")
        # same collectives, same data, whatever carried them
        assert intra[0][3] == inter[0][3], "layouts diverged on data"
        # co-located ranks never touch the wire; separated ranks must
        assert all(r[4] == 0 for r in intra), \
            f"intra-node layout sent TCP frames: {intra}"
        assert sum(r[4] for r in inter) > 0, \
            "inter-node layout never framed a message"
        intra_w = max(r[1] for r in intra)
        inter_w = max(r[1] for r in inter)
        report.add("bcast+gather+reduce", COLL_RANKS, intra_w, inter_w,
                   inter_w / intra_w)
        return intra_w, inter_w

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    report.emit(benchmark)
    _no_leaks()
