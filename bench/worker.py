"""Run one workload in this (fresh) process and print its numbers.

``run.py`` starts this file once per measurement.  The last line of
standard output is one JSON object: set-up seconds, the timed samples
and what was counted beside them; ``run.py`` turns samples into metrics.

Set-up is everything before the first timed op: imports, ``plug()``,
the plain reference value, the workload's world (service fleet,
prepared checkpoint state) and one un-timed warm-up op.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before the program under test is imported

import argparse
import json
import resource
import shutil
import signal
import tempfile
import threading
from pathlib import Path

from spans import RECORDER

WARMUP_OPS = 1
OUT = Path(__file__).resolve().parent / "out"


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its deadline")


class Client:
    """One closed-loop caller: the next op starts when the last ended."""

    def __init__(self, workload, deadline_s: float) -> None:
        self.workload = workload
        self.deadline_s = deadline_s
        self.samples: list[tuple[int, float, int]] = []  # op id, s, bytes
        self.attempted = 0
        self.errors: list[str] = []
        self.busy_s = 0.0

    def attempt(self, i: int, timed: bool, record: bool) -> bool:
        RECORDER.begin_op(i, record)
        self.attempted += 1
        alarm = threading.current_thread() is threading.main_thread()
        if alarm:
            signal.setitimer(signal.ITIMER_REAL, self.deadline_s)
        try:
            seconds, nbytes = self.workload.op(i)
        except Exception as exc:  # a failed op is a result, not a crash
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return not isinstance(exc, OpTimeout)
        finally:
            if alarm:
                signal.setitimer(signal.ITIMER_REAL, 0)
        if timed:
            self.samples.append((i, seconds, nbytes))
            self.busy_s += seconds
        return True

    def loop(self, first: int, stride: int, until: float, min_ops: int,
             traced: bool) -> None:
        i = first
        while len(self.samples) < min_ops or time.perf_counter() < until:
            # traced runs record every other op, so both arms see the
            # same machine state and their ratio is the span overhead
            if not self.attempt(i, True, traced and (i // stride) % 2 == 1):
                return  # the world is in an unknown state after a hang
            if self.errors and len(self.samples) < min_ops:
                return  # failing before the clock matters: do not spin
            i += stride


def measure(workload, seconds: float, min_ops: int, traced: bool,
            deadline_s: float):
    clients = [Client(workload, deadline_s) for _ in range(workload.clients)]
    until = time.perf_counter() + seconds
    if len(clients) == 1:
        clients[0].loop(0, 1, until, min_ops, traced)
    else:
        threads = [threading.Thread(target=c.loop, args=(
                       k, len(clients), until, min_ops, traced))
                   for k, c in enumerate(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return clients


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probes", type=int, default=0,
                    help="layer probes: 0 skip, 1 two repeats, 2 full")
    ap.add_argument("--warmups", type=int, default=WARMUP_OPS)
    ap.add_argument("--min-ops", type=int, default=2,
                    help="ops per client before the clock may end the run")
    args = ap.parse_args()

    import workloads  # imports the program under test: part of set-up

    signal.signal(signal.SIGALRM, _on_alarm)
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    workload = workloads.WORKLOADS[args.workload]()
    warm = Client(workload, workloads.OP_DEADLINE_S)
    try:
        workload.setup(args.seed, tmp)
        for k in range(args.warmups):
            warm.attempt(-1 - k, False, False)
        setup_s = time.perf_counter() - T0
        out = {"workload": args.workload, "seed": args.seed,
               "setup_s": setup_s}
        clients = measure(workload, args.seconds, args.min_ops,
                          bool(args.trace), workloads.OP_DEADLINE_S)
        try:
            workload.teardown()
        except workloads.OpFailed as exc:  # e.g. segments left behind
            warm.attempted += 1
            warm.errors.append(f"teardown: {exc}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    clients.append(warm)
    samples = sorted(s for c in clients for s in c.samples)
    errors = [e for c in clients for e in c.errors]
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    attempted = sum(c.attempted for c in clients)
    out.update(
        attempted=attempted, failed=len(errors), errors=errors[:5],
        op_s=[s for _, s, _ in samples],
        # un-timed housekeeping between ops is not the program's time:
        # the section lasted as long as its busiest client was in ops
        busy_s=max(c.busy_s for c in clients),
        disk_bytes=([workload.disk_bytes_total / attempted]
                    if workload.disk_bytes_total is not None
                    else [b for _, _, b in samples]),
        peak_rss_mb=rss_kb / 1024.0)
    if args.trace:
        # the loop records every other op of each client
        for key, parity in (("op_s_plain", 0), ("op_s_recorded", 1)):
            out[key] = [s for i, s, _ in samples
                        if (i // workload.clients) % 2 == parity]
        out["spans"] = len(RECORDER.spans)
        out["per_layer"] = {}
        if args.probes:
            import probes

            RECORDER.begin_op(-1, True)
            out["per_layer"], out["probe_wall_s"] = probes.run_all(
                args.seed, args.probes > 1, OUT)
        out["span_self_s"] = RECORDER.self_seconds()
        RECORDER.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
