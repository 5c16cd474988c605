"""The distributed tracing plane: rings, flows, flight recorder, export.

What must hold for a lock-free trace plane to be trustworthy:

* **No torn records** — a concurrent scraper hammering live rings
  (thread and forked-process writers, rings wrapping hundreds of times)
  only ever observes committed records whose payload is internally
  consistent, and once the writers are quiescent the scrape yields
  exactly the newest ``capacity`` generations.
* **Parity** — every stock backend produces a schema-valid Chrome
  trace document with the expected span names, results are
  bit-identical with tracing on or off, parked/un-parked rings survive
  their rank, and no trace segment outlives its launch.
* **Causality** — every flow arrow in a document pairs one send record
  with its matching receive, even when a restart re-counts sequence
  ids from zero.
* **Black box** — a failed launch's flight snapshot carries the last
  moments of *every* rank, including the one that died.
"""

from __future__ import annotations

import multiprocessing as mp
import threading

import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import EveryN, FailureInjector
from repro.core import AdaptStep, AdaptationPlan, ExecConfig, Runtime, plug
from repro.dsm import shm
from repro.trace import (
    TraceAssembler,
    TracePlane,
    schema,
    tracer,
    validate_chrome_trace,
)
from repro.util.events import EventLog
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

WRITERS, RECS, CAP = 4, 20_000, 64


def _no_leaks():
    left = shm.live_segments()
    assert left == [], f"leaked segments: {left}"


def _check_records(records) -> int:
    """Every scraped record must be internally consistent — the
    seqlock's whole job.  Writers stamp ``(i, 2i, 3i, 5i)`` payloads,
    so any mix of two generations is detectable."""
    for g, kind, code, t0, dur, a, b, c, d in records:
        assert kind == schema.KIND_INSTANT
        assert b == 2 * a and c == 3 * a and d == 5 * a, \
            f"torn record at gen {g}: {(a, b, c, d)}"
        assert a == g, f"payload {a} does not match generation {g}"
    return len(records)


def _pound(plane, rank):
    w = plane.writer(rank)
    for i in range(RECS):
        w.instant(schema.EVENT, a=float(i), b=float(2 * i),
                  c=float(3 * i), d=float(5 * i))


def _run_sor(tmp_path, tag, config, trace=True, **kw):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 policy=kw.pop("policy", EveryN(5)), telemetry=False,
                 trace=trace)
    return rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                  entry="execute", config=config, fresh=True, **kw)


def _names(doc) -> dict[str, int]:
    out: dict[str, int] = {}
    for ev in doc["traceEvents"]:
        if "name" in ev:
            out[ev["name"]] = out.get(ev["name"], 0) + 1
    return out


# ---------------------------------------------------------------------------
# hammers: wraparound exactness and torn-record protection
# ---------------------------------------------------------------------------
class TestHammer:
    def test_thread_hammer_wrap_and_exact_tail(self):
        plane = TracePlane.local(WRITERS, capacity=CAP)
        stop = threading.Event()
        threads = [threading.Thread(target=_pound, args=(plane, r))
                   for r in range(WRITERS)]
        scrapes = [0]

        def scraper():
            while not stop.is_set():
                for recs in plane.scrape().values():
                    scrapes[0] += _check_records(recs)

        s = threading.Thread(target=scraper)
        s.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        s.join()
        assert scrapes[0] > 0, "the concurrent scraper never ran"

        # quiescent writers: exactly the newest CAP generations survive
        # the ~300 wraps, per ring.
        final = plane.scrape()
        for r in range(WRITERS):
            recs = final[r]
            assert len(recs) == CAP
            assert [int(rec[0]) for rec in recs] \
                == list(range(RECS - CAP, RECS))
            _check_records(recs)

    @needs_fork
    def test_process_hammer_wrap_and_exact_tail(self):
        launch_id = shm.new_launch_id("tracehammer")
        plane = TracePlane(WRITERS, launch_id=launch_id, create=True,
                           capacity=CAP)
        ctx = mp.get_context("fork")
        barrier = ctx.Barrier(WRITERS)

        def pound(rank):
            child = TracePlane(WRITERS, launch_id=launch_id, capacity=CAP)
            barrier.wait()
            _pound(child, rank)
            child.close()

        procs = [ctx.Process(target=pound, args=(r,), daemon=True)
                 for r in range(WRITERS)]
        try:
            for p in procs:
                p.start()
            scrapes = 0
            while any(p.is_alive() for p in procs):
                for recs in plane.scrape().values():
                    scrapes += _check_records(recs)
            for p in procs:
                p.join(timeout=60.0)
            assert all(p.exitcode == 0 for p in procs)

            final = plane.scrape()
            for r in range(WRITERS):
                recs = final[r]
                assert len(recs) == CAP
                assert [int(rec[0]) for rec in recs] \
                    == list(range(RECS - CAP, RECS))
                _check_records(recs)
        finally:
            for p in procs:
                if p.is_alive():
                    p.terminate()
            plane.close()
            plane.unlink()
        _no_leaks()


# ---------------------------------------------------------------------------
# ring semantics: overwrite-oldest, park/resume, lifecycle states
# ---------------------------------------------------------------------------
class TestRingSemantics:
    def test_overwrite_oldest_keeps_newest_n(self):
        plane = TracePlane.local(1, capacity=8)
        w = plane.writer(0)
        for i in range(20):
            w.instant(schema.EVENT, a=float(i), b=float(2 * i),
                      c=float(3 * i), d=float(5 * i))
        recs = plane.scrape()[0]
        assert [int(r[0]) for r in recs] == list(range(12, 20))

    def test_park_resume_monotonic_generations_and_seqs(self):
        """A re-bound writer (un-park) resumes the published cursor and
        sequence counter: generations and message ids never repeat."""
        plane = TracePlane.local(1, capacity=32)
        w = plane.writer(0)
        w.instant(schema.EVENT)
        assert w.send(1, 7) == 1
        w.freeze()
        assert plane.scrape() == {}  # frozen: live scrapes skip it
        assert 0 in plane.scrape(include_frozen=True)

        w2 = plane.writer(0)  # thaw + resume
        w2.instant(schema.EVENT)
        assert w2.send(1, 7) == 2
        recs = plane.scrape()[0]
        assert [int(r[0]) for r in recs] == [0, 1, 2, 3]

    def test_empty_rings_never_scraped(self):
        plane = TracePlane.local(3, capacity=8)
        plane.writer(1).instant(schema.EVENT)
        assert set(plane.scrape()) == {1}

    def test_null_tracer_is_default_and_untraced_send(self):
        t = tracer()
        assert not t.active
        assert t.send(3, 9) == 0  # the "untraced" message id


# ---------------------------------------------------------------------------
# backend parity: valid documents, bit-identical on/off, leak-free
# ---------------------------------------------------------------------------
class TestBackendParity:
    @pytest.mark.parametrize("label,config", ALL_CONFIGS,
                             ids=[c[0] for c in ALL_CONFIGS])
    def test_documents_valid_and_results_identical(self, tmp_path,
                                                   label, config):
        if label in ("multiproc", "sockets") and not HAS_FORK:
            pytest.skip("needs fork")
        on = _run_sor(tmp_path, "on", config)
        off = _run_sor(tmp_path, "off", config, trace=False)
        # tracing is wall-side only: results are bit-identical with
        # the plane on or off (vtime is not comparable across runs —
        # region charges come from measured wall time).
        assert on.value == off.value == REF
        assert off.trace is None

        counts = validate_chrome_trace(on.trace)
        # the driver track plus at least one rank track
        assert counts["tracks"] >= 2
        names = _names(on.trace)
        assert names.get("phase", 0) >= 1          # driver span
        assert names.get("safepoint", 0) > 0       # rank spans
        assert names.get("checkpoint", 0) > 0      # EveryN(5) fired
        if config.nranks > 1:
            # cross-rank traffic reconstructed as flow arrows
            assert counts["flows"] > 0
            assert names.get("recv", 0) > 0
        _no_leaks()

    def test_checkpoint_spans_nest_inside_safepoints(self, tmp_path):
        """The interval sweep reproduces the call-stack nesting: a
        checkpoint span opens after its safe point's B and closes
        before the E."""
        res = _run_sor(tmp_path, "seq", ExecConfig.sequential())
        open_spans: list[str] = []
        saw_nested = False
        for ev in res.trace["traceEvents"]:
            if ev.get("pid") == 1:  # rank 0's track
                if ev["ph"] == "B":
                    if ev["name"] == "checkpoint" and \
                            "safepoint" in open_spans:
                        saw_nested = True
                    open_spans.append(ev["name"])
                elif ev["ph"] == "E":
                    open_spans.pop()
        assert saw_nested, "no checkpoint span nested in a safepoint"

    def test_spans_carry_vtime_args(self, tmp_path):
        res = _run_sor(tmp_path, "seq", ExecConfig.sequential())
        sp = [ev for ev in res.trace["traceEvents"]
              if ev.get("name") == "safepoint" and ev["ph"] == "B"]
        assert sp and all("vtime" in ev["args"] for ev in sp)
        assert sp[-1]["args"]["vtime"] > 0.0

    @needs_fork
    def test_park_unpark_rings_survive(self, tmp_path):
        """A grow/shrink chain: joiners' rings freeze at retirement and
        the drain-time scrape still folds their records in."""
        cfg = ExecConfig.distributed(2).with_backend("multiproc")
        hi = ExecConfig.distributed(4).with_backend("multiproc")
        plan = AdaptationPlan([AdaptStep(at=3, config=hi),
                               AdaptStep(at=7, config=cfg)])
        on = _run_sor(tmp_path, "on", cfg, plan=plan)
        off = _run_sor(tmp_path, "off", cfg, plan=plan, trace=False)
        assert on.value == off.value
        assert len(on.in_place_reshapes) == 2

        counts = validate_chrome_trace(on.trace)
        # driver + all four ranks left tracks (joiners wrote real
        # records between the grow and the shrink, scraped frozen)
        assert counts["tracks"] >= 5
        names = _names(on.trace)
        assert names.get("membership_switch", 0) > 0
        assert names.get("join_rendezvous", 0) > 0
        _no_leaks()

    @needs_fork
    def test_flight_recorder_black_box_on_failure(self, tmp_path):
        """An injected rank failure: the raised report and the final
        document both carry last-N decoded records for every rank —
        including the rank that died — and nothing leaks."""
        cfg = ExecConfig.distributed(2).with_backend("multiproc")
        with pytest.raises(Exception) as ei:
            _run_sor(tmp_path, "boom", cfg, trace="flight",
                     injector=FailureInjector(fail_at=6))
        box = getattr(ei.value, "flight", None)
        assert box is not None, "failure report carries no flight box"
        for rank in ("driver", "0", "1"):
            assert rank in box and box[rank], f"no black box for {rank}"
            for rec in box[rank]:
                assert {"kind", "name", "t0", "dur"} <= set(rec)
        _no_leaks()

        # ... and with auto-recovery the run completes, embedding the
        # snapshot in the assembled document.
        res = _run_sor(tmp_path, "recover", cfg, trace="flight",
                       injector=FailureInjector(fail_at=6),
                       auto_recover=True)
        assert res.value == REF and res.restarts == 1
        validate_chrome_trace(res.trace)
        snaps = res.trace["otherData"]["flight_snapshots"]
        assert len(snaps) == 1
        assert snaps[0]["ranks"]["0"] and snaps[0]["ranks"]["1"]
        assert res.trace["otherData"]["flight"] is True
        _no_leaks()


# ---------------------------------------------------------------------------
# assembler + schema gate: pairing, nesting, validation failures
# ---------------------------------------------------------------------------
class TestAssembler:
    def _send(self, g, t0, dst, tag=5, epoch=0, seq=1):
        return (g, schema.KIND_SEND, schema.SEND, t0, 0.0,
                float(dst), float(tag), float(epoch), float(seq))

    def _recv(self, g, t0, dur, src, tag=5, epoch=0, seq=1):
        return (g, schema.KIND_RECV, schema.RECV, t0, dur,
                float(src), float(tag), float(epoch), float(seq))

    def test_flow_pairing_survives_seq_restart(self):
        """Two launches re-count seq from 1: each recv pairs with the
        closest *preceding* send of its id, and the two arrows get
        distinct flow ids."""
        asm = TraceAssembler()
        asm.add(0, [self._send(0, 10.0, dst=1, seq=1),      # launch 1
                    self._send(1, 30.0, dst=1, seq=1)])     # launch 2
        asm.add(1, [self._recv(0, 10.5, 0.5, src=0, seq=1),
                    self._recv(1, 30.5, 0.5, src=0, seq=1)])
        doc = asm.emit()
        counts = validate_chrome_trace(doc)
        assert counts["flows"] == 2
        ids = [ev["id"] for ev in doc["traceEvents"] if ev["ph"] == "s"]
        assert len(set(ids)) == 2

    def test_lapped_send_leaves_no_dangling_flow(self):
        asm = TraceAssembler()
        asm.add(1, [self._recv(0, 5.0, 0.5, src=0, seq=9)])
        doc = asm.emit()  # the send record was lapped out of its ring
        counts = validate_chrome_trace(doc)
        assert counts["flows"] == 0
        assert _names(doc).get("recv") == 1  # the wait slice survives

    def test_validator_rejects_unbalanced_spans(self):
        doc = {"traceEvents": [
            {"name": "x", "ph": "B", "ts": 0.0, "pid": 1, "tid": 0}]}
        with pytest.raises(ValueError, match="unbalanced"):
            validate_chrome_trace(doc)
        doc = {"traceEvents": [{"ph": "E", "ts": 1.0, "pid": 1}]}
        with pytest.raises(ValueError, match="E without open B"):
            validate_chrome_trace(doc)

    def test_validator_rejects_bad_flows(self):
        doc = {"traceEvents": [
            {"name": "m", "ph": "f", "id": "0.1", "bp": "e",
             "ts": 1.0, "pid": 1}]}
        with pytest.raises(ValueError, match="without start"):
            validate_chrome_trace(doc)
        doc = {"traceEvents": [
            {"name": "m", "ph": "s", "id": "0.1", "ts": 0.0, "pid": 1},
            {"name": "m", "ph": "f", "id": "0.1", "ts": 1.0, "pid": 2}]}
        with pytest.raises(ValueError, match="bp"):
            validate_chrome_trace(doc)

    def test_validator_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="no traceEvents"):
            validate_chrome_trace({"events": []})
        doc = {"traceEvents": [{"name": "x", "ph": "i", "pid": 1}]}
        with pytest.raises(ValueError, match="missing ts"):
            validate_chrome_trace(doc)


# ---------------------------------------------------------------------------
# unified timeline: EventLog entries ride the trace as instants
# ---------------------------------------------------------------------------
class TestEventUnification:
    def test_events_carry_wall_and_global_seq(self):
        log = EventLog()
        e1 = log.emit("checkpoint", vtime=1.0, count=5)
        e2 = log.emit("restore", vtime=2.0)
        assert e1.wall > 0.0 and e2.wall >= e1.wall
        assert e2.seq > e1.seq > 0

    def test_absorb_preserves_child_stamps(self):
        src, dst = EventLog(), EventLog()
        ev = src.emit("failure", vtime=3.0, count=7)
        dst.absorb(ev)
        got = dst.last("failure")
        assert (got.wall, got.seq) == (ev.wall, ev.seq)

    def test_log_events_become_trace_instants(self, tmp_path):
        res = _run_sor(tmp_path, "seq", ExecConfig.sequential())
        from_log = [ev for ev in res.trace["traceEvents"]
                    if ev.get("cat") == "event"]
        assert from_log, "no event-log instants in the document"
        names = {ev["name"] for ev in from_log}
        assert "checkpoint" in names
        assert all("vtime" in ev["args"] and "seq" in ev["args"]
                   for ev in from_log)


# ---------------------------------------------------------------------------
# service: the trace RPC
# ---------------------------------------------------------------------------
class TestServiceTrace:
    @needs_fork
    def test_trace_rpc_round_trip(self, tmp_path):
        from repro.service import RuntimeService, ServiceClient
        from repro.service.client import ServiceError

        with RuntimeService(workers=2, lanes=1, machine=MACHINE,
                            ckpt_dir=str(tmp_path)) as svc:
            client = ServiceClient(svc.address)
            jid = client.submit(WOVEN,
                                ctor_kwargs={"n": N, "iterations": ITERS},
                                entry="execute", nranks=2, trace=True)
            out = client.result(jid, timeout=120.0)
            assert out["status"] == "done" and out["value"] == REF
            doc = client.trace(jid)
            counts = validate_chrome_trace(doc)
            assert counts["tracks"] >= 3  # driver + both fleet ranks
            assert _names(doc).get("safepoint", 0) > 0

            # a job submitted without tracing has no document to give
            jid2 = client.submit(WOVEN,
                                 ctor_kwargs={"n": N, "iterations": ITERS},
                                 entry="execute", nranks=2)
            client.result(jid2, timeout=120.0)
            with pytest.raises(ServiceError, match="without tracing"):
                client.trace(jid2)
        _no_leaks()
