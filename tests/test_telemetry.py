"""The shared-memory telemetry plane: the unified metrics API.

What must hold for a lock-free metrics plane to be trustworthy:

* **No torn reads** — concurrent scrapes under a 4-writer hammer
  (threads and forked processes) only ever observe internally
  consistent histogram triples, and the final totals are exact:
  4 writers x 100k increments is 400k, not approximately 400k.
* **Parity** — every stock backend populates the same schema, results
  are bit-identical with telemetry on or off (wall-side only, never a
  virtual clock), parked/un-parked and failed-rank paths account
  correctly, and no telemetry segment outlives its launch.
* **Exposition** — the Prometheus text round-trips a strict
  conformance parser, from both the registry and the service's
  ``serve_metrics`` endpoint; the ``stats`` RPC carries the snapshot
  with the legacy flat keys still present as the deprecated adapter.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from urllib.request import urlopen

import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import EveryN, FailureInjector
from repro.core import AdaptStep, AdaptationPlan, ExecConfig, Runtime, plug
from repro.dsm import shm
from repro.telemetry import (
    MetricsRegistry,
    TelemetryPlane,
    parse_prometheus,
    schema,
)
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 40, 12
REF = SOR(n=N, iterations=ITERS).execute()
WOVEN = plug(SOR, SOR_ADAPTIVE)

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork")

ALL_CONFIGS = [
    ("sequential", ExecConfig.sequential()),
    ("threads", ExecConfig.shared(3)),
    ("simcluster", ExecConfig.distributed(3)),
    ("hybrid", ExecConfig.hybrid(2, 2)),
    ("multiproc", ExecConfig.distributed(3).with_backend("multiproc")),
    ("sockets", ExecConfig.distributed(3).with_backend("sockets")),
]

WRITERS, INCS = 4, 100_000
#: constant observation: 0.5 is a binary power, so the concurrent-sum
#: invariant ``sum == 0.5 * count`` holds in exact float64 arithmetic.
OBS = 0.5


def _no_leaks():
    left = shm.live_segments()
    assert left == [], f"leaked segments: {left}"


def _registry_of(res) -> MetricsRegistry:
    assert res.metrics is not None
    reg = MetricsRegistry()
    reg.absorb_snapshot(res.metrics)
    return reg


def _check_hist_consistency(samples) -> int:
    """Every scraped histogram triple must be internally consistent —
    the seqlock's whole job.  Returns the number of triples checked."""
    checked = 0
    for s in samples:
        if s.hist is None:
            continue
        count, total, per = s.hist
        assert count == sum(per), \
            f"torn histogram: count {count} != buckets {per}"
        assert total == OBS * count, \
            f"torn histogram: sum {total} != {OBS} * {count}"
        checked += 1
    return checked


def _run_sor(tmp_path, tag, config, telemetry=True, **kw):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 policy=kw.pop("policy", EveryN(5)), telemetry=telemetry)
    res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                 entry="execute", config=config, fresh=True, **kw)
    return res


# ---------------------------------------------------------------------------
# hammers: exactness and torn-read protection under concurrency
# ---------------------------------------------------------------------------
class TestHammer:
    def test_thread_hammer_exact_totals(self):
        plane = TelemetryPlane.local(WRITERS, backend="hammer")
        stop = threading.Event()

        def pound(rank):
            w = plane.writer(rank)
            for _ in range(INCS):
                w.inc(schema.SAFEPOINTS)
                w.observe(schema.SAFEPOINT_LATENCY, OBS)

        threads = [threading.Thread(target=pound, args=(r,))
                   for r in range(WRITERS)]
        scrapes = [0]

        def scraper():
            while not stop.is_set():
                scrapes[0] += _check_hist_consistency(plane.scrape())

        s = threading.Thread(target=scraper)
        s.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        s.join()
        assert scrapes[0] > 0, "the concurrent scraper never ran"

        reg = MetricsRegistry()
        reg.absorb(plane.scrape())
        assert reg.value("repro_exec_safepoints_total") == WRITERS * INCS
        count, total = reg.hist_totals(
            "repro_exec_safepoint_latency_seconds")
        assert count == WRITERS * INCS
        assert total == OBS * WRITERS * INCS

    @needs_fork
    def test_process_hammer_exact_totals(self):
        launch_id = shm.new_launch_id("hammer")
        plane = TelemetryPlane(WRITERS, launch_id=launch_id, create=True,
                               backend="hammer")
        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(WRITERS)

        def pound(rank):
            child = TelemetryPlane(WRITERS, launch_id=launch_id)
            w = child.writer(rank)
            barrier.wait()
            for _ in range(INCS):
                w.inc(schema.SAFEPOINTS)
                w.observe(schema.SAFEPOINT_LATENCY, OBS)
            child.close()

        procs = [ctx.Process(target=pound, args=(r,), daemon=True)
                 for r in range(WRITERS)]
        try:
            for p in procs:
                p.start()
            scrapes = 0
            while any(p.is_alive() for p in procs):
                scrapes += _check_hist_consistency(plane.scrape())
            for p in procs:
                p.join(timeout=60.0)
            assert all(p.exitcode == 0 for p in procs)

            reg = MetricsRegistry()
            reg.absorb(plane.scrape())
            assert reg.value("repro_exec_safepoints_total") \
                == WRITERS * INCS
            count, total = reg.hist_totals(
                "repro_exec_safepoint_latency_seconds")
            assert count == WRITERS * INCS
            assert total == OBS * WRITERS * INCS
            # per-rank attribution survives the shared segment
            for r in range(WRITERS):
                assert reg.value("repro_exec_safepoints_total",
                                 {"rank": str(r)}) == INCS
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            plane.close()
            plane.unlink()
        _no_leaks()


# ---------------------------------------------------------------------------
# backend parity: populated, bit-identical on/off, leak-free
# ---------------------------------------------------------------------------
class TestBackendParity:
    @pytest.mark.parametrize("label,config", ALL_CONFIGS,
                             ids=[c[0] for c in ALL_CONFIGS])
    def test_metrics_populated_and_results_identical(self, tmp_path,
                                                     label, config):
        if label in ("multiproc", "sockets") and not HAS_FORK:
            pytest.skip("needs fork")
        on = _run_sor(tmp_path, "on", config)
        off = _run_sor(tmp_path, "off", config, telemetry=False)
        # telemetry is wall-side only: results are bit-identical with
        # the plane on or off.  (vtime is *not* comparable across runs:
        # region compute charges come from measured wall time, so any
        # two runs — telemetry or not — differ in the last digits.)
        assert on.value == off.value == REF
        assert off.metrics is None

        reg = _registry_of(on)
        # one rank per processing element (sequential / distributed):
        # every rank passed every safe point, exactly.  Team modes
        # coalesce a passage into one count per team, and how many
        # passages a region sees depends on its chunking — so there the
        # plane need only show real traffic.
        if config.workers == 1:
            assert reg.value("repro_exec_safepoints_total") \
                == config.nranks * ITERS
            # ... which is enough passes for EveryN(5) to have fired
            assert reg.value("repro_ckpt_writes_total") > 0
        else:
            assert reg.value("repro_exec_safepoints_total") > 0
        # the run-level counters rode along
        assert reg.value("repro_runtime_runs_total") == 1
        # vtime/wall gauges were stamped for rank 0
        assert reg.value("repro_exec_vtime_seconds",
                         {"rank": "0"}) > 0.0
        _no_leaks()

    @needs_fork
    def test_park_unpark_pages_accounted(self, tmp_path):
        """A grow/shrink chain: joiners born parked leave empty pages
        (no noise), write while active, freeze at retirement — and the
        drain-time scrape still folds their counts in."""
        cfg = ExecConfig.distributed(2).with_backend("multiproc")
        hi = ExecConfig.distributed(4).with_backend("multiproc")
        plan = AdaptationPlan([AdaptStep(at=3, config=hi),
                               AdaptStep(at=7, config=cfg)])
        on = _run_sor(tmp_path, "on", cfg, plan=plan)
        off = _run_sor(tmp_path, "off", cfg, plan=plan, telemetry=False)
        assert on.value == off.value
        assert len(on.in_place_reshapes) == 2

        reg = _registry_of(on)
        assert reg.value("repro_runtime_in_place_reshapes_total") == 2
        assert reg.value("repro_elastic_reshapes_total") > 0
        # the un-parked joiners (ranks 2, 3) wrote real safe points
        # between the grow and the shrink, scraped from frozen pages.
        for r in (2, 3):
            assert reg.value("repro_exec_safepoints_total",
                             {"rank": str(r)}) > 0
        _no_leaks()

    @needs_fork
    def test_rank_failure_path_accounted(self, tmp_path):
        """An injected failure + auto-recovery: the restart chain's
        phases accumulate (counters add across absorbed launches) and
        the failed launch's segment is still swept."""
        cfg = ExecConfig.distributed(2).with_backend("multiproc")
        on = _run_sor(tmp_path, "on", cfg,
                      injector=FailureInjector(fail_at=6),
                      auto_recover=True)
        off = _run_sor(tmp_path, "off", cfg, telemetry=False,
                       injector=FailureInjector(fail_at=6),
                       auto_recover=True)
        assert on.value == off.value == REF
        assert on.restarts == 1

        reg = _registry_of(on)
        assert reg.value("repro_runtime_restarts_total") == 1
        assert reg.value("repro_runtime_relaunches_total") \
            == on.relaunches
        # both phases' safe points landed: the pre-failure launch was
        # scraped before its teardown, the recovery launch after.
        assert reg.value("repro_exec_safepoints_total") > 2 * ITERS
        _no_leaks()

    def test_run_result_counters_match_derived(self, tmp_path):
        """RunResult.metrics re-exports exactly what the result derives
        from its phase records, under the unified names."""
        res = _run_sor(tmp_path, "seq", ExecConfig.sequential(),
                       plan=AdaptationPlan([
                           AdaptStep(at=4, config=ExecConfig.shared(2))]))
        assert res.relaunches == 1  # cross-mode step = one relaunch
        reg = _registry_of(res)
        assert reg.value("repro_runtime_runs_total") == 1
        assert reg.value("repro_runtime_relaunches_total") \
            == res.relaunches
        assert reg.value("repro_runtime_restarts_total") == res.restarts
        assert reg.value("repro_runtime_in_place_reshapes_total") \
            == len(res.in_place_reshapes)


# ---------------------------------------------------------------------------
# idempotent mid-run scrapes: source-keyed delta absorption
# ---------------------------------------------------------------------------
class TestIdempotentScrapes:
    def _plane(self, n=10):
        plane = TelemetryPlane.local(1, backend="idem")
        w = plane.writer(0)
        for _ in range(n):
            w.inc(schema.SAFEPOINTS)
            w.observe(schema.SAFEPOINT_LATENCY, OBS)
        return plane, w

    def test_same_scrape_absorbed_twice_counts_once(self):
        plane, w = self._plane(10)
        reg = MetricsRegistry()
        snap = plane.scrape()
        reg.absorb(snap, source="live")
        reg.absorb(snap, source="live")  # a poll loop re-reading
        assert reg.value("repro_exec_safepoints_total") == 10
        count, total = reg.hist_totals(
            "repro_exec_safepoint_latency_seconds")
        assert (count, total) == (10, OBS * 10)

        # progress between polls folds in exactly the delta
        for _ in range(5):
            w.inc(schema.SAFEPOINTS)
            w.observe(schema.SAFEPOINT_LATENCY, OBS)
        reg.absorb(plane.scrape(), source="live")
        reg.absorb(plane.scrape(), source="live")
        assert reg.value("repro_exec_safepoints_total") == 15
        assert reg.hist_totals(
            "repro_exec_safepoint_latency_seconds")[0] == 15

    def test_shrunk_cumulative_restarts_baseline(self):
        """A fresh launch reusing the source key starts its counters at
        zero again: the full new value absorbs, never a negative delta."""
        reg = MetricsRegistry()
        plane, _w = self._plane(10)
        reg.absorb(plane.scrape(), source="live")
        fresh, _w2 = self._plane(4)  # new plane, same source identity
        reg.absorb(fresh.scrape(), source="live")
        assert reg.value("repro_exec_safepoints_total") == 14

    def test_without_source_stays_additive(self):
        """The launch-drain contract is unchanged: absorbing the same
        finished plane twice without a source double-counts (callers
        absorb each launch exactly once)."""
        plane, _w = self._plane(10)
        reg = MetricsRegistry()
        snap = plane.scrape()
        reg.absorb(snap)
        reg.absorb(snap)
        assert reg.value("repro_exec_safepoints_total") == 20

    def test_sources_are_independent(self):
        plane, _w = self._plane(10)
        reg = MetricsRegistry()
        snap = plane.scrape()
        reg.absorb(snap, source="a")
        reg.absorb(snap, source="b")  # a different plane's identity
        assert reg.value("repro_exec_safepoints_total") == 20
        reg.absorb(snap, source="a")  # but each source dedups itself
        reg.absorb(snap, source="b")
        assert reg.value("repro_exec_safepoints_total") == 20

    def test_snapshot_absorb_with_source(self):
        plane, _w = self._plane(10)
        live = MetricsRegistry()
        live.absorb(plane.scrape())
        snap = live.snapshot()
        reg = MetricsRegistry()
        reg.absorb_snapshot(snap, source="svc")
        reg.absorb_snapshot(snap, source="svc")
        assert reg.snapshot() == snap


# ---------------------------------------------------------------------------
# exposition: Prometheus conformance, service RPC + scrape endpoint
# ---------------------------------------------------------------------------
class TestExposition:
    def test_prometheus_round_trips_conformance_parser(self, tmp_path):
        res = _run_sor(tmp_path, "seq", ExecConfig.shared(2))
        reg = _registry_of(res)
        reg.gauge_fn("repro_service_workers_idle", lambda: 3.0,
                     help="idle workers")
        text = reg.to_prometheus()
        rows = parse_prometheus(text)
        assert rows, "empty exposition"
        # spot-check: the parsed totals agree with the registry
        safepoints = sum(v for name, labels, v in rows
                         if name == "repro_exec_safepoints_total")
        assert safepoints == reg.value("repro_exec_safepoints_total")
        lat_counts = [v for name, labels, v in rows
                      if name == "repro_exec_safepoint_latency_seconds"
                      "_count"]
        assert sum(lat_counts) == reg.hist_totals(
            "repro_exec_safepoint_latency_seconds")[0]

    def test_snapshot_round_trips_absorb(self, tmp_path):
        res = _run_sor(tmp_path, "seq", ExecConfig.sequential())
        reg = _registry_of(res)
        again = MetricsRegistry()
        again.absorb_snapshot(reg.snapshot())
        assert again.snapshot() == reg.snapshot()

    @needs_fork
    def test_service_stats_and_scrape_endpoint(self, tmp_path):
        from repro.service import RuntimeService, ServiceClient

        with RuntimeService(workers=2, lanes=1, machine=MACHINE,
                            ckpt_dir=str(tmp_path)) as svc:
            host, port = svc.serve_metrics()
            client = ServiceClient(svc.address)
            jid = client.submit(WOVEN,
                                ctor_kwargs={"n": N, "iterations": ITERS},
                                entry="execute", nranks=2)
            out = client.result(jid, timeout=120.0)
            assert out["status"] == "done" and out["value"] == REF
            # the job's own snapshot rides the result ...
            assert out["metrics"]["version"] == 1

            stats = client.stats()
            assert stats["ok"]
            # ... the stats RPC returns the service-wide registry with
            # per-job labels; fleet, queue and arena occupancy are its
            # gauges (the one vocabulary — no flat keys beside it).
            reg = MetricsRegistry()
            reg.absorb_snapshot(stats["metrics"])
            assert reg.value("repro_exec_safepoints_total",
                             {"job": f"j{jid}"}) == 2 * ITERS
            assert reg.value("repro_service_workers_total") == 2
            assert reg.value("repro_service_lanes_total") == 1
            assert reg.value("repro_service_workers_idle") == 2
            assert reg.value("repro_service_jobs_queued") == 0
            assert reg.value("repro_service_jobs_running") == 0
            assert reg.value("repro_arena_segments_total") > 0
            assert set(stats) == {"ok", "metrics"}

            # curl-style scrape, conformance-parsed off the wire
            body = urlopen(f"http://{host}:{port}/metrics",
                           timeout=10).read().decode()
            rows = parse_prometheus(body)
            assert any(name == "repro_service_workers_total" and v == 2
                       for name, _labels, v in rows)
            assert any(name == "repro_exec_safepoints_total"
                       for name, _labels, v in rows)

            # a telemetry-off job: same value, no metrics, and nothing
            # folded into the service registry under its tag.
            jid2 = client.submit(WOVEN,
                                 ctor_kwargs={"n": N,
                                              "iterations": ITERS},
                                 entry="execute", nranks=2,
                                 telemetry=False)
            out2 = client.result(jid2, timeout=120.0)
            assert out2["status"] == "done" and out2["value"] == REF
            assert out2["metrics"] is None
            reg2 = MetricsRegistry()
            reg2.absorb_snapshot(client.stats()["metrics"])
            assert reg2.value("repro_exec_safepoints_total",
                              {"job": f"j{jid2}"}) == 0.0
        _no_leaks()
