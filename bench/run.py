"""The benchmark's one command.

    python3 bench/run.py                       every workload, end to end
    python3 bench/run.py --trace               ... then each traced, and the layer probes
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                               one run, one JSON line (the gate's form)
    python3 bench/run.py --smoke               one op per workload + two-repeat probes
    python3 bench/run.py --aa                  two sets of runs of the same code, compared

Every measurement runs in a fresh ``worker.py`` process, so set-up is
paid (and measured) each time and one workload cannot warm another.
End-to-end metrics come from untraced runs.  The program under test is
the ``src`` directory beside this one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import compare
import stats

HERE = Path(__file__).resolve().parent

SETUPS = 3
#: the gate allows a run 180 s; leave it time to report.
RUN_DEADLINE_S = 170.0
#: jobs are ~20 ms, so the smoke run asks for ten per client
SMOKE_MIN_OPS = {"service_jobs": 10}


class WorkerFailed(RuntimeError):
    pass


def worker(deadline: float, **flags) -> dict:
    """Run ``worker.py`` to completion; its last stdout line, parsed."""
    cmd = [sys.executable, str(HERE / "worker.py")]
    for name, value in flags.items():
        cmd += [f"--{name.replace('_', '-')}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parent / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{flags.get('workload')}: no result before the "
                           "run deadline") from None
    finally:
        # ranks and fleet workers share the worker's session: none may
        # outlive it, whether it hung, crashed or ended cleanly
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise WorkerFailed(f"{flags.get('workload')}: worker exited "
                           f"{proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             probes: int = 0, setups: int = SETUPS, **worker_flags) -> dict:
    """One gate-form run.

    Untraced: ``SETUPS`` fresh workers, each setting up from nothing and
    then measuring for its share of ``seconds``; the op samples are
    pooled, so one process's luck (placement, page cache, a neighbour's
    burst) weighs a third.  Traced: one worker for the whole of
    ``seconds``, recording spans on every other op, then the probes.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    flags = dict(workload=workload, seed=seed, trace=int(trace),
                 **worker_flags)
    if trace:
        parts = [worker(deadline, seconds=seconds, probes=probes, **flags)]
    else:
        parts = [worker(deadline, seconds=seconds / setups, **flags)
                 for _ in range(setups)]
    op_s = [s for p in parts for s in p["op_s"]]
    out = {"attempted": sum(p["attempted"] for p in parts),
           "failed": sum(p["failed"] for p in parts),
           "errors": [e for p in parts for e in p["errors"]],
           "samples": len(op_s)}
    out["correct"] = out["failed"] == 0
    if not op_s:
        raise WorkerFailed(f"{workload}: no op completed: {out['errors']}")
    if trace:
        part = parts[0]
        on, off = part["op_s_recorded"], part["op_s_plain"]
        out["metrics"] = dict(
            part["per_layer"],
            **{"bench.trace_overhead_ratio":
               stats.median(on) / stats.median(off),
               "bench.spans_per_op": part["spans"] / len(on)})
        out["span_self_s"] = part["span_self_s"]
    else:
        out["metrics"] = {
            "setup_s": stats.median([p["setup_s"] for p in parts]),
            "op_s_p50": stats.median(op_s),
            "ops_per_s": stats.median([len(p["op_s"]) / p["busy_s"]
                                       for p in parts]),
            "ckpt_disk_bytes_per_op": float(stats.median(
                [b for p in parts for b in p["disk_bytes"]])),
            "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in parts]),
        }
    return out


def contract_line(out: dict, schema: dict, trace: bool) -> str:
    units = {m["name"]: m["unit"]
             for m in schema["per_layer" if trace else "end_to_end"]}
    metrics = {name: {"value": out["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({"correct": out["correct"],
                       "attempted": out["attempted"],
                       "failed": out["failed"], "metrics": metrics})


# ---------------------------------------------------------------------------
# the human-facing modes
# ---------------------------------------------------------------------------
def fmt(value: float) -> str:
    return f"{value:.6g}"


def new_results(seed: int, seconds: float, repeats: int) -> dict:
    return {"meta": {"nproc": os.cpu_count(), "seconds": seconds,
                     "seed": seed, "repeats": repeats,
                     "python": sys.version.split()[0],
                     "date": time.strftime("%Y-%m-%d")},
            "end_to_end": {}, "samples": {}, "attempted": {}, "failed": {},
            "per_layer": {}, "trace_overhead": {}}


def record(results: dict, schema: dict, w: str, runs: list[dict],
           label: str = "") -> None:
    """File one workload's untraced runs and print a row per metric."""
    e2e = results["end_to_end"][w] = {
        m["name"]: [r["metrics"][m["name"]] for r in runs]
        for m in schema["end_to_end"]}
    results["samples"][w] = [r["samples"] for r in runs]
    results["attempted"][w] = sum(r["attempted"] for r in runs)
    results["failed"][w] = sum(r["failed"] for r in runs)
    for r in runs:
        for err in r["errors"]:
            print(f"{label}{w}: FAILED {err}", file=sys.stderr)
    for m in schema["end_to_end"]:
        values = e2e[m["name"]]
        print(f"{label}{w:15s} {m['name']:24s} "
              f"{fmt(stats.median(values)):>12s} {m['unit']:6s} "
              f"runs={len(values)} spread={stats.spread(values):.3f} "
              f"ops/run={stats.median(results['samples'][w]):g}", flush=True)


def run_set(schema: dict, seed: int, seconds: float, repeats: int,
            trace: bool) -> dict:
    """Every workload ``repeats`` times (seed, seed+1, ...), untraced;
    with ``trace`` one more traced run each, and the probes once."""
    names = [w["name"] for w in schema["workloads"]]
    results = new_results(seed, seconds, repeats)
    for w in names:
        record(results, schema, w, [run_once(w, seed + r, seconds, False)
                                    for r in range(repeats)])
    if trace:
        units = {m["name"]: m["unit"] for m in schema["per_layer"]}
        for k, w in enumerate(names):
            out = run_once(w, seed, seconds, True, probes=2 if k == 0 else 0)
            results["attempted"][w] += out["attempted"]
            results["failed"][w] += out["failed"]
            per_workload = {name: out["metrics"].pop(name) for name in
                            ("bench.trace_overhead_ratio",
                             "bench.spans_per_op")}
            results["trace_overhead"][w] = per_workload
            results["per_layer"].update(out["metrics"])
            for name, value in per_workload.items():
                print(f"{w:15s} {name:32s} {fmt(value):>12s} {units[name]}")
        for name, value in results["per_layer"].items():
            print(f"{'(probes)':15s} {name:32s} {fmt(value):>12s} "
                  f"{units[name]}")
        print("spans written to bench/out/spans-<workload>-<seed>.json")
    return results


def smoke(schema: dict, seed: int) -> int:
    """Every workload and every probe once, as cheaply as sizes allow;
    checks that each metric ``BENCHMARK.json`` names comes out finite."""
    bad = []
    for k, w in enumerate(schema["workloads"]):
        name = w["name"]
        cheap = dict(seconds=0, warmups=0, setups=1)
        runs = [(False, run_once(name, seed, trace=False, **cheap,
                                 min_ops=SMOKE_MIN_OPS.get(name, 1)))]
        if k == 0:
            runs.append((True, run_once(name, seed, trace=True, probes=1,
                                        **cheap)))
        for traced, out in runs:
            bad += [f"{name}: {err}" for err in out["errors"]]
            for m in schema["per_layer" if traced else "end_to_end"]:
                value = out["metrics"].get(m["name"])
                ok = isinstance(value, (int, float)) and math.isfinite(value)
                print(f"{name:15s} {m['name']:32s} "
                      f"{fmt(value) if ok else value!s:>12s} {m['unit']}")
                if not ok:
                    bad.append(f"{name}: {m['name']} = {value!r}")
    for line in bad:
        print("SMOKE FAILED", line, file=sys.stderr)
    return 1 if bad else 0


def a_vs_a(schema: dict, seed: int, seconds: float, repeats: int) -> int:
    """Two sets of runs of the same code must agree within the bounds.

    The two sides' runs alternate, as a parent-against-change comparison
    would run them, so that drift of the machine falls on both.
    """
    sides = {side: new_results(seed, seconds, repeats) for side in "AB"}
    for w in (w["name"] for w in schema["workloads"]):
        runs = {"A": [], "B": []}
        for r in range(repeats):
            for side in ("AB" if r % 2 == 0 else "BA"):
                runs[side].append(run_once(w, seed + r, seconds, False))
        for side in "AB":
            record(sides[side], schema, w, runs[side], f"[{side}] ")
    rows, status = compare.compare(sides["A"], sides["B"], schema)
    compare.print_rows(rows)
    record_path = HERE / "results" / "aa.json"
    record_path.write_text(json.dumps({
        "meta": sides["A"]["meta"], "agree": status == 0,
        "rows": {f"{r['workload']}.{r['metric']}": {
            "bound": r["bound"], "spread_a": round(r["spread_a"], 4),
            "b_over_a": round(r["ratio"], 4), "verdict": r["verdict"]}
            for r in rows}}, indent=1) + "\n")
    print(f"A/A record written to {record_path}")
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--out", help="write the results JSON here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--aa", action="store_true")
    args = ap.parse_args()
    schema = stats.schema()
    seconds = args.seconds if args.seconds is not None \
        else float(schema["run_seconds"])
    try:
        if args.smoke:
            return smoke(schema, args.seed)
        if args.aa:
            return a_vs_a(schema, args.seed, seconds, max(args.repeats, 5))
        if args.workload:
            out = run_once(args.workload, args.seed, seconds, bool(args.trace),
                           probes=2)
            for err in out["errors"]:
                print(f"{args.workload}: FAILED {err}", file=sys.stderr)
            print(contract_line(out, schema, bool(args.trace)))
            return 0
        results = run_set(schema, args.seed, seconds, args.repeats,
                          bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    return 1 if any(results["failed"].values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
