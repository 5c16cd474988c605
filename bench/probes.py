"""Per-layer probes: each layer's public functions timed from outside.

One function per layer; each returns ``{metric name: value}`` for the
names ``BENCHMARK.json`` lists under ``per_layer``.  A value is the
median of the stated repeats unless it is a count.  Differences between
whole runs (funnel, elastic, telemetry and trace overhead) interleave
their arms round by round, so drift hits every arm alike.

Sizes are smaller than the end-to-end workloads' where the listed size
would not fit a run's time budget; the README names each.  ``full``
chooses between the stated repeats and two (the smoke run).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time

import adapters as api
import stats
import workloads
from spans import SpanRecorder, span

MB = 1e6


class Probes:
    def __init__(self, seed: int, full: bool, out_dir) -> None:
        self.seed = seed
        self.full = full
        self.tmp = tempfile.mkdtemp(prefix="probes-", dir=out_dir)
        self.sor = api.weave("sor")

    def reps(self, n: int) -> int:
        return n if self.full else 2

    def fresh_dir(self) -> str:
        return tempfile.mkdtemp(dir=self.tmp)

    def seconds(self, fn, n: int, warm: bool = True) -> float:
        """Median seconds of ``fn()`` over ``n`` calls; one un-timed call
        first unless the call is too dear to spend one on."""
        if warm:
            fn()
        out = []
        for _ in range(self.reps(n)):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
        return stats.median(out)

    def per_call(self, fn, n: int) -> float:
        """Seconds per call of a sub-microsecond ``fn`` in a tight loop."""
        n = self.reps(n) * 100
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - t0) / n

    def run(self, size: dict, backend: tuple, **knobs):
        """One timed ``Runtime`` life; ``(seconds, RunResult, Runtime)``."""
        kwargs = dict(size, seed=self.seed)
        ckpt_dir = self.fresh_dir()
        t0 = time.perf_counter()
        res, rt = api.run_app(self.sor, kwargs, api.config(*backend),
                              ckpt_dir, **knobs)
        return time.perf_counter() - t0, res, rt

    def arms(self, size: dict, arms: dict[str, tuple], rounds: int):
        """Interleave the arms' runs; ``name -> (median s, last result)``."""
        times = {name: [] for name in arms}
        last = {}
        for _ in range(self.reps(rounds)):
            for name, (backend, knobs) in arms.items():
                dt, res, rt = self.run(size, backend, **knobs)
                times[name].append(dt)
                last[name] = (res, rt)
                shutil.rmtree(rt.store.dir, ignore_errors=True)
        return {name: (stats.median(ts), *last[name])
                for name, ts in times.items()}

    # ------------------------------------------------------------------
    def apps(self) -> dict:
        n, iters = 2048, 10
        kwargs = {"n": n, "iterations": iters, "seed": self.seed}
        plain_s = self.seconds(lambda: api.plain("sor", kwargs), 3, warm=False)
        return {"apps.sor.plain_s": plain_s,
                "apps.sor.mpoints_per_s": (n - 2) ** 2 * iters / plain_s / 1e6}

    def core_exec(self) -> dict:
        out = {"core.plug_s": self.seconds(lambda: api.weave("sor"), 20),
               "core.runtime_ctor_s": self.seconds(
                   lambda: api.new_runtime(self.fresh_dir()).close(), 20)}
        size = {"n": 512, "iterations": 20}
        for backend in api.BACKENDS:
            # sockets costs 0.25 s a launch whatever it runs: two repeats
            few = backend == "sockets"
            out[f"exec.{backend}.run_s"] = self.seconds(
                lambda: self.run(size, (backend, 2)), 2 if few else 3,
                warm=not few)
            out[f"exec.{backend}.launch_s"] = self.seconds(
                lambda: self.run({"n": 16, "iterations": 1}, (backend, 2)),
                2 if few else 5, warm=not few)
        plain_s = self.seconds(
            lambda: api.plain("sor", dict(size, seed=self.seed)), 3)
        out["core.weave_overhead_ratio"] = \
            out["exec.sequential.run_s"] / plain_s
        return out

    def sync_and_observability(self) -> dict:
        """The sync-bound op with each observability plane on and off,
        and the safe-point / mailbox counters of its default arm."""
        size = {"n": 256, "iterations": 60}
        mp = ("multiproc", 2)
        got = self.arms(size, {
            "bare": (mp, {"telemetry": False}),
            "default": (mp, {}),
            "trace": (mp, {"trace": True}),
            "flight": (mp, {"trace": "flight"}),
        }, 3)
        base_s, res, _ = got["default"]
        safepoints = api.metric_total(res, "repro_exec_safepoints_total")
        return {
            "telemetry.overhead_ratio": base_s / got["bare"][0],
            "trace.overhead_ratio": got["trace"][0] / base_s,
            "trace.flight_overhead_ratio": got["flight"][0] / base_s,
            "core.safepoints_per_op": safepoints,
            "core.safepoint_us": api.metric_total(
                res, "repro_exec_safepoint_seconds_total") / safepoints * 1e6,
            "dsm.mailbox_recvs_per_op": api.metric_total(
                res, "repro_dsm_mailbox_recvs_total"),
            "dsm.mailbox_wait_s_per_op": api.metric_total(
                res, "repro_dsm_mailbox_wait_seconds_total"),
        }

    def dsm(self) -> dict:
        big = 8 * (1 << 20)
        queue = api.rank_pair_timings("queue", self.reps(10))
        tcp = api.rank_pair_timings("tcp", self.reps(10))
        lease, drop_pool = api.pool_lease_cycle()
        try:
            lease_s = self.per_call(lease, 20)
        finally:
            drop_pool()
        return {
            "dsm.queue.rtt_us": queue["rtt_s"] * 1e6,
            "dsm.tcp.rtt_us": tcp["rtt_s"] * 1e6,
            "dsm.queue.inline_mb_s": 2 * 16384 / queue["inline_rtt_s"] / MB,
            "dsm.slab.mb_s": 2 * big / queue["big_rtt_s"] / MB,
            "dsm.tcp.mb_s": 2 * big / tcp["big_rtt_s"] / MB,
            "dsm.barrier_us": queue["barrier_s"] * 1e6,
            "dsm.allreduce_us": queue["allreduce_s"] * 1e6,
            "dsm.scatter_gather_ms": queue["scatter_gather_s"] * 1e3,
            "dsm.pool.lease_us": lease_s * 1e6,
            "dsm.shm.alloc_ms": self.seconds(api.shm_segment_cycle, 20) * 1e3,
        }

    def smp(self) -> dict:
        region, shutdown = api.team_region()
        try:
            region_s = self.seconds(region, 200)
        finally:
            shutdown()
        return {"smp.team.region_us": region_s * 1e6,
                "smp.barrier_us": api.barrier_rounds(self.reps(2000)) * 1e6}

    # ------------------------------------------------------------------
    def ckpt_snapshot(self) -> dict:
        app = api.sor_state(1024, self.seed)  # 8.4 MB of SafeData
        snap = api.capture(app, 1)
        blob = api.encode(snap)
        return {
            "ckpt.capture_ms": self.seconds(
                lambda: api.capture(app, 1), 5) * 1e3,
            "ckpt.encode_ms": self.seconds(lambda: api.encode(snap), 5) * 1e3,
            "ckpt.decode_ms": self.seconds(lambda: api.decode(blob), 5) * 1e3,
        }

    def ckpt_stores(self) -> dict:
        """A chain of checkpoints of a grid one sweep apart, per store."""
        out = {}
        chain = self.reps(3)
        for kind in api.STORES:
            app = api.sor_state(512, self.seed)  # 2.1 MB of SafeData
            store = api.make_store(kind, self.fresh_dir())
            writes, logical = [], 0
            for count in range(1, chain + 1):
                app.sweep()
                snap = api.capture(app, count)
                logical += snap.nbytes
                t0 = time.perf_counter()
                store.write(snap)
                writes.append(time.perf_counter() - t0)
            out[f"ckpt.{kind}.write_ms"] = stats.median(writes) * 1e3
            out[f"ckpt.{kind}.disk_ratio"] = \
                api.disk_bytes(store.dir) / logical
            out[f"ckpt.{kind}.read_ms"] = self.seconds(
                store.read_latest, 3) * 1e3
            if kind == "cas":
                t0 = time.perf_counter()
                store.write(api.capture(app, chain + 1))
                out["ckpt.cas.unchanged_write_ms"] = \
                    (time.perf_counter() - t0) * 1e3
                store.prune(keep=1)
                t0 = time.perf_counter()
                store.gc()
                out["ckpt.cas.gc_ms"] = (time.perf_counter() - t0) * 1e3
            store.close()
        return out

    def ckpt_chunks(self) -> dict:
        blob = api.encode(api.capture(api.sor_state(512, self.seed), 1))
        refs = api.chunk(blob)
        chunk_s = self.seconds(lambda: api.chunk(blob), 3)
        cas = api.chunk_store(self.fresh_dir())
        view = memoryview(blob)
        pieces = [(digest, bytes(view[a:b])) for digest, a, b in
                  refs[:self.reps(64)]]
        t0 = time.perf_counter()
        for digest, piece in pieces:
            cas.put(digest, piece)
        put_s = (time.perf_counter() - t0) / len(pieces)
        t0 = time.perf_counter()
        for digest, _ in pieces:
            cas.fetch(digest)
        fetch_s = (time.perf_counter() - t0) / len(pieces)
        return {"ckpt.chunker.mb_s": len(blob) / chunk_s / MB,
                "ckpt.cas.chunks_per_mb": len(refs) / (len(blob) / MB),
                "ckpt.cas.put_us": put_s * 1e6,
                "ckpt.cas.fetch_us": fetch_s * 1e6}

    def ckpt_shards(self) -> dict:
        """Per-rank shard sets written by a real 2-rank run, reassembled."""
        out = {}
        parts = api.partitioned_fields(self.sor)
        for kind in ("full", "cas"):
            _, _, rt = self.run({"n": 384, "iterations": 4}, ("multiproc", 2),
                                every=2, local_shards=True, store=kind)
            out[f"ckpt.shards.assemble_ms.{kind}"] = self.seconds(
                lambda: rt.store.assemble_latest_from_shards(parts), 3) * 1e3
            if kind == "cas":
                out["ckpt.cas.dedup_ratio"] = api.cas_dedup_ratio(rt)
        return out

    def ckpt_funnel(self) -> dict:
        """Four funnelled 8.4 MB collections, against none, and async."""
        size = {"n": 1024, "iterations": 8}
        mp = ("multiproc", 2)
        got = self.arms(size, {
            "none": (mp, {}),
            "sync": (mp, {"every": 2}),
            "async": (mp, {"every": 2, "ckpt_async": True}),
        }, 2)
        sync_s, res, _ = got["sync"]
        writes = api.metric_total(res, "repro_ckpt_writes_total")
        nbytes = api.metric_total(res, "repro_ckpt_bytes_total")
        collect_s = (sync_s - got["none"][0]) / writes
        return {"ckpt.funnel.collect_ms": collect_s * 1e3,
                "ckpt.funnel.mb_s": nbytes / writes / collect_s / MB,
                "ckpt.async.overlap_ratio": got["async"][0] / sync_s,
                "ckpt.writes_per_op": writes,
                "ckpt.bytes_per_op": nbytes}

    # ------------------------------------------------------------------
    def elastic(self) -> dict:
        out = {"elastic.plan_us": self.seconds(api.reshape_moves, 50) * 1e6}
        size = {"n": 512, "iterations": 24}
        points = (5, 10, 15, 20)
        for backend in api.ELASTIC_BACKENDS:
            def chain(in_place):
                return [(at, backend, 4 if k % 2 == 0 else 2, in_place)
                        for k, at in enumerate(points)]
            got = self.arms(size, {
                "none": ((backend, 2), {}),
                "inplace": ((backend, 2), {"steps": chain(None)}),
                "relaunch": ((backend, 2), {"steps": chain(False)}),
            }, 2)
            base = got["none"][0]
            assert len(got["inplace"][1].in_place_reshapes) == len(points)
            assert got["relaunch"][1].relaunches == len(points)
            out[f"elastic.inplace_ms.{backend}"] = \
                (got["inplace"][0] - base) / len(points) * 1e3
            out[f"elastic.relaunch_ms.{backend}"] = \
                (got["relaunch"][0] - base) / len(points) * 1e3
        # one cross-mode switch half way, against half a run in each mode
        got = self.arms(size, {
            "threads": (("threads", 2), {}),
            "multiproc": (("multiproc", 2), {}),
            "switch": (("threads", 2), {"steps": [(12, "multiproc", 2)]}),
        }, 2)
        out["elastic.mode_switch_ms"] = 1e3 * (
            got["switch"][0] - (got["threads"][0] + got["multiproc"][0]) / 2)
        chain_op = workloads.AdaptChain()
        _, res, _ = self.run(chain_op.size, chain_op.backend, **chain_op.knobs)
        out["elastic.inplace_per_op"] = len(res.in_place_reshapes)
        out["elastic.relaunches_per_op"] = res.relaunches
        return out

    # ------------------------------------------------------------------
    def service(self) -> dict:
        jobs = workloads.ServiceJobs()
        jobs_tmp = self.fresh_dir()
        t0 = time.perf_counter()
        jobs.setup(self.seed, jobs_tmp)
        start_s = [time.perf_counter() - t0]
        cl, (woven, kwargs) = jobs.client, jobs.jobs["sor"]
        seen, replies = [], []

        def one_job():
            t0 = time.perf_counter()
            job = api.submit(cl, woven, kwargs)
            out = api.result(cl, job, workloads.OP_DEADLINE_S)
            seen.append(time.perf_counter() - t0)
            replies.append(out)

        try:
            one_job()
            ids = []
            submit_s = self.seconds(
                lambda: ids.append(api.submit(cl, woven, kwargs)), 20)
            status_s = self.seconds(lambda: cl.status(ids[0]), 20)
            stats_s = self.seconds(cl.stats, 20)
            for job in ids:
                api.result(cl, job, workloads.OP_DEADLINE_S)
            del seen[:], replies[:]
            for _ in range(self.reps(15)):
                one_job()
            solo_s = stats.median(seen)
            del seen[:], replies[:]
            per_client = self.reps(20)
            threads = [threading.Thread(
                target=lambda: [one_job() for _ in range(per_client)])
                for _ in range(jobs.clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            run_s = [r["run_s"] for r in replies]
            wait_s = [r["latency_s"] - r["run_s"] for r in replies]
            over_s = [s - r["latency_s"] for s, r in zip(seen, replies)]
            p90_s = stats.percentile(seen, 0.90)
            burst = self.reps(100)
            t0 = time.perf_counter()
            ids = [api.submit(cl, woven, kwargs) for _ in range(burst)]
            for job in ids:
                api.result(cl, job, workloads.OP_DEADLINE_S)
            burst_s = time.perf_counter() - t0
        finally:
            t0 = time.perf_counter()
            jobs.teardown()
            stop_s = [time.perf_counter() - t0]
        # an idle service, for a second sample of each
        t0 = time.perf_counter()
        svc = api.service(self.fresh_dir()).start()
        start_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        svc.stop()
        stop_s.append(time.perf_counter() - t0)
        return {
            "service.start_s": stats.median(start_s),
            "service.stop_s": stats.median(stop_s),
            "service.submit_rpc_us": submit_s * 1e6,
            "service.status_rpc_us": status_s * 1e6,
            "service.stats_rpc_us": stats_s * 1e6,
            "service.solo_job_ms": solo_s * 1e3,
            "service.job_run_ms_p50": stats.median(run_s) * 1e3,
            "service.queue_wait_ms_p50": stats.median(wait_s) * 1e3,
            "service.client_overhead_ms_p50": stats.median(over_s) * 1e3,
            "service.job_s_p90": p90_s,
            "service.burst100_jobs_per_s": burst / burst_s,
        }

    # ------------------------------------------------------------------
    def planes(self) -> dict:
        inc, scrape, drop_t = api.telemetry_writer_and_scrape()
        one_span, assemble, drop_tr = api.trace_writer_and_assemble()
        own = SpanRecorder()
        own.begin_op(0, True)

        def own_span():
            with own.span("x"):
                pass

        try:
            return {
                "telemetry.inc_ns": self.per_call(inc, 1000) * 1e9,
                "telemetry.scrape_ms": self.seconds(scrape, 20) * 1e3,
                "trace.span_ns": self.per_call(one_span, 1000) * 1e9,
                "trace.assemble_ms": self.seconds(assemble, 5) * 1e3,
                "bench.span_ns": self.per_call(own_span, 200) * 1e9,
            }
        finally:
            drop_t()
            drop_tr()


def run_all(seed: int, full: bool, out_dir) -> dict:
    probes = Probes(seed, full, out_dir)
    out, walls = {}, {}
    try:
        for layer in (probes.apps, probes.core_exec,
                      probes.sync_and_observability, probes.dsm, probes.smp,
                      probes.ckpt_snapshot, probes.ckpt_stores,
                      probes.ckpt_chunks, probes.ckpt_shards,
                      probes.ckpt_funnel, probes.elastic, probes.service,
                      probes.planes):
            t0 = time.perf_counter()
            with span(f"probe.{layer.__name__}"):
                out.update(layer())
            walls[layer.__name__] = time.perf_counter() - t0
    finally:
        shutil.rmtree(probes.tmp, ignore_errors=True)
    leaked = api.leaked_segments()
    if leaked:
        raise RuntimeError(f"probes left segments behind: {leaked}")
    return out, walls
