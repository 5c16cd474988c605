"""Ablations on the checkpointing design choices (Section IV.A).

1. **Strategy** — per-rank *local* snapshots (two global barriers) vs
   *master-collected* snapshots (no barriers, mode-independent file).
   The paper offers both and argues for the master strategy; this
   ablation quantifies the trade: local shards write in parallel (faster
   at scale) but pin the restart to the same rank count and mode.
2. **Safe-point granularity** — "the selection of the set of safe points
   is a trade-off between checkpointing overhead and computation lost
   when a failure occurs": checkpoint every N for several N, reporting
   both the overhead and the worst-case recomputation window.
"""

from __future__ import annotations

from conftest import SOR_ITERS, p_config, run_pp_sor
from paper_report import FigureReport
from repro.ckpt.policy import EveryN, Never
from repro.core import Runtime
from repro.core.context import STRATEGY_LOCAL, STRATEGY_MASTER
from conftest import PAPER_CLUSTER


def test_ablation_checkpoint_strategy(benchmark, tmp_path):
    report = FigureReport(
        "Ablation ckpt-strategy",
        "Master-collected vs per-rank local checkpoints (one save)",
        ["ranks", "master", "local", "local/master"])

    def experiment():
        for p in (4, 8, 16, 32):
            rts = {}
            for strategy in (STRATEGY_MASTER, STRATEGY_LOCAL):
                rt = Runtime(machine=PAPER_CLUSTER,
                             ckpt_dir=tmp_path / f"ab1-{strategy}-{p}",
                             policy=EveryN(SOR_ITERS // 2),
                             ckpt_strategy=strategy)
                _, res = run_pp_sor(p_config(p), None, runtime=rt)
                rts[strategy] = res.vtime
            report.add(p, rts[STRATEGY_MASTER], rts[STRATEGY_LOCAL],
                       rts[STRATEGY_LOCAL] / rts[STRATEGY_MASTER])
        return report

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    report.emit(benchmark)
    # local shards avoid the gather: never slower than master at scale
    last = report.rows[-1]
    assert last[2] <= last[1] * 1.05


def test_ablation_safepoint_granularity(benchmark, tmp_path):
    report = FigureReport(
        "Ablation granularity",
        "Checkpoint frequency: overhead vs exposure "
        f"({SOR_ITERS} safe points total)",
        ["every N", "checkpoints", "total time", "overhead vs none",
         "worst-case lost work"])

    def experiment():
        _, none = run_pp_sor(p_config(8), tmp_path / "ab2-none",
                             policy=Never())
        per_iter = none.vtime / SOR_ITERS
        for every in (2, 5, 10, 25):
            _, res = run_pp_sor(p_config(8), tmp_path / f"ab2-{every}",
                                policy=EveryN(every))
            ncheckpoints = len([e for e in res.events.of_kind("checkpoint")
                                if e.rank == 0])
            report.add(every, ncheckpoints, res.vtime,
                       res.vtime - none.vtime, every * per_iter)
        return report

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    report.emit(benchmark)
    rows = report.rows
    # the trade-off is real: more frequent checkpoints cost more time ...
    overheads = [r[3] for r in rows]
    assert overheads[0] > overheads[-1]
    # ... but bound the lost work more tightly
    exposures = [r[4] for r in rows]
    assert exposures[0] < exposures[-1]

