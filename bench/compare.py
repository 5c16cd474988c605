"""Compare two result files of ``run.py --out`` metric by metric.

    python3 bench/compare.py A.json B.json [--append]

A is the parent, B the change.  One row per (workload, end-to-end
metric): both medians, B/A with A as its base, A's own run-to-run
spread, and a verdict against the bound ``BENCHMARK.json`` fixes:

``worse``       B's median is worse than A's by more than the bound
``unresolved``  A's spread is wider than the bound, so neither "worse"
                nor "same" can be told — unless every run of one side
                beats every run of the other
``better``      B's median is better by more than either side's spread
                (and by more than a tenth of the bound)
``same``        anything else

Exits non-zero on any ``worse`` row or any rise in the failed share.
``--append`` adds B's medians to ``bench/results/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

TRAJECTORY = Path(__file__).resolve().parent / "results" / "trajectory.jsonl"


def verdict(a: list[float], b: list[float], lower_is_better: bool,
            bound: float) -> tuple[str, float, float]:
    med_a, med_b = stats.median(a), stats.median(b)
    ratio = med_b / med_a
    worse_by = (ratio - 1.0) if lower_is_better else (1.0 - ratio)
    spread_a = stats.spread(a)
    if lower_is_better:
        b_all_better, b_all_worse = max(b) < min(a), min(b) > max(a)
    else:
        b_all_better, b_all_worse = min(b) > max(a), max(b) < min(a)
    if spread_a > bound and len(a) > 1:
        if b_all_better:
            out = "better"
        elif b_all_worse and worse_by > bound:
            out = "worse"
        else:
            out = "unresolved"
    elif worse_by > bound:
        out = "worse"
    elif -worse_by > max(spread_a, stats.spread(b), bound / 10) \
            and len(a) > 1:
        out = "better"
    else:
        out = "same"
    return out, ratio, spread_a


def compare(res_a: dict, res_b: dict, schema: dict) -> tuple[list[dict], int]:
    rows, status = [], 0
    for w in (w["name"] for w in schema["workloads"]):
        for m in schema["end_to_end"]:
            a = res_a["end_to_end"][w][m["name"]]
            b = res_b["end_to_end"][w][m["name"]]
            out, ratio, spread_a = verdict(a, b, m["better"] == "lower",
                                           m["bound"])
            rows.append({"workload": w, "metric": m["name"],
                         "unit": m["unit"], "a": stats.median(a),
                         "b": stats.median(b), "ratio": ratio,
                         "spread_a": spread_a, "bound": m["bound"],
                         "verdict": out})
            status |= out == "worse"
        frac_a = res_a["failed"][w] / res_a["attempted"][w]
        frac_b = res_b["failed"][w] / res_b["attempted"][w]
        rows.append({"workload": w, "metric": "failed_frac", "unit": "ratio",
                     "a": frac_a, "b": frac_b,
                     "ratio": frac_b / frac_a if frac_a else float("nan"),
                     "spread_a": 0.0, "bound": 0.0,
                     "verdict": "worse" if frac_b > frac_a else "same"})
        status |= frac_b > frac_a
    return rows, int(status)


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':15s} {'metric':24s} {'A (base)':>12s} {'B':>12s} "
          f"{'unit':6s} {'B/A':>7s} {'spread A':>8s} {'bound':>6s}  verdict")
    for r in rows:
        print(f"{r['workload']:15s} {r['metric']:24s} {r['a']:12.6g} "
              f"{r['b']:12.6g} {r['unit']:6s} {r['ratio']:7.3f} "
              f"{r['spread_a']:8.3f} {r['bound']:6.2f}  {r['verdict']}")


def append_trajectory(res: dict) -> None:
    line = {"meta": res["meta"],
            "end_to_end": {w: {m: stats.median(v) for m, v in ms.items()}
                           for w, ms in res["end_to_end"].items()},
            "failed": res["failed"], "attempted": res["attempted"]}
    with open(TRAJECTORY, "a") as fh:
        fh.write(json.dumps(line) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--append", action="store_true")
    args = ap.parse_args()
    res_a = json.loads(Path(args.a).read_text())
    res_b = json.loads(Path(args.b).read_text())
    rows, status = compare(res_a, res_b, stats.schema())
    print_rows(rows)
    if args.append:
        append_trajectory(res_b)
    return status


if __name__ == "__main__":
    sys.exit(main())
