"""Figure 4 — time to save checkpoint data.

Paper: the cost of one checkpoint save per environment.  Most of the
cost is writing the application data (the sequential baseline); shared
memory adds slightly (a barrier pair); distributed memory adds more (the
partitioned data is collected at the root), worst at 32 P where the data
crosses machines.

The second experiment bends this curve: the CAS store's fixed-block
recipes skip every 4 KiB block already on disk (here, the whole static
field), the async double-buffered writer hides the disk write behind the
following compute phase, and zlib compression of each stored block
shrinks what does hit the disk — together they cut both bytes written
and the modelled save overhead versus the paper's full synchronous
snapshot at every checkpoint.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    SOR_ITERS,
    SOR_N,
    le_config,
    p_config,
    run_pp_sor,
)
from paper_report import FigureReport
from repro.apps.sor import SOR
from repro.ckpt.policy import AtCounts, EveryN, Never
from repro.core import (
    ExecConfig,
    ForMethod,
    IgnorableMethod,
    PlugSet,
    Runtime,
    SafeData,
    SafePointAfter,
    plug,
)
from repro.vtime.machine import MachineModel

CONFIGS = [("seq", le_config(1))] + \
    [(f"{k} LE", le_config(k)) for k in (2, 4, 8, 16)] + \
    [(f"{k} P", p_config(k)) for k in (2, 4, 8, 16, 32)]

CKPT_AT = SOR_ITERS // 2


def test_fig4_save_cost(benchmark, tmp_path):
    report = FigureReport(
        "Figure 4", "Time to save checkpoint data (virtual seconds)",
        ["config", "no ckpt", "one ckpt", "save cost", "io portion"])

    def experiment():
        for label, config in CONFIGS:
            _, res0 = run_pp_sor(config, tmp_path / f"f4-0-{label}",
                                 policy=Never())
            _, res1 = run_pp_sor(config, tmp_path / f"f4-1-{label}",
                                 policy=AtCounts([CKPT_AT]))
            # rank 0 (every context's rank outside a rank context)
            # writes the file; other ranks log their ~2e-05 s share
            io = next((e.data["save_seconds"] for e in
                       res1.events.of_kind("checkpoint") if e.rank == 0), 0.0)
            report.add(label, res0.vtime, res1.vtime,
                       res1.vtime - res0.vtime, io)
        return report

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    report.emit(benchmark)

    cost = {r[0]: r[3] for r in report.rows}
    seq = cost["seq"]
    assert seq > 0, "saving must cost something"
    # paper shape 1: the LE series stays close to the sequential cost
    # (only a barrier pair on top of the write)
    for k in (2, 4, 8, 16):
        assert cost[f"{k} LE"] == pytest.approx(seq, rel=0.5)
    # paper shape 2: distributed saves cost more (root collects the data)
    assert cost["16 P"] > seq
    # paper shape 3: 32 P is the worst case (inter-machine gather)
    assert cost["32 P"] > cost["16 P"] * 1.03
    assert cost["32 P"] > seq * 1.05


# ---------------------------------------------------------------------------
# CAS / async / compressed save-cost variants
# ---------------------------------------------------------------------------
class StaticSOR(SOR):
    """SOR plus a large static SafeData field (the unchanged-field
    workload): model parameters that recovery needs but iteration never
    mutates — exactly what full snapshots keep re-writing for nothing."""

    def __init__(self, n: int = 100, iterations: int = 100, **kw) -> None:
        super().__init__(n=n, iterations=iterations, **kw)
        # 2x the grid's footprint, and compressible (structured data).
        self.table = np.zeros((n, 2 * n))


STATIC_SOR_CKPT = PlugSet(
    # ForMethod charges the stencil compute to virtual time (StaticSOR
    # inherits SOR.relax's table rate), which is the phase the async
    # writer overlaps with.
    ForMethod("relax"),
    SafeData("G", "iterations_done", "table"),
    SafePointAfter("end_iteration"),
    IgnorableMethod("sweep"),
    name="static-sor-ckpt",
)

WOVEN_STATIC = plug(StaticSOR, STATIC_SOR_CKPT)

CKPT_EVERY = 10

VARIANTS = [
    ("full sync", {}),
    ("CAS", dict(ckpt_cas=True)),
    ("CAS+async", dict(ckpt_cas=True, ckpt_async=True)),
    ("CAS+zlib", dict(ckpt_cas=True, ckpt_async=True,
                      ckpt_compress_min_bytes=1 << 12)),
]


def test_fig4_incremental_async_variants(benchmark, tmp_path):
    machine = MachineModel(nodes=2, cores_per_node=24)
    report = FigureReport(
        "Figure 4b", "CAS + async checkpoint save cost "
        "(10 checkpoints, static-parameter workload)",
        ["variant", "vtime", "ckpt overhead", "bytes written"])

    def run_variant(label, rt_kw, policy):
        rt = Runtime(machine=machine, ckpt_dir=tmp_path / f"f4b-{label}",
                     policy=policy, **rt_kw)
        res = rt.run(WOVEN_STATIC,
                     ctor_kwargs={"n": SOR_N, "iterations": SOR_ITERS},
                     entry="execute", config=ExecConfig.sequential(),
                     fresh=True)
        rt.close()
        return res, rt.store.total_bytes_written

    def experiment():
        res0, _ = run_variant("none", {}, Never())
        for label, rt_kw in VARIANTS:
            res, nbytes = run_variant(label, rt_kw, EveryN(CKPT_EVERY))
            report.add(label, res.vtime, res.vtime - res0.vtime, nbytes)
        return report

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    report.emit(benchmark)

    overhead = {r[0]: r[2] for r in report.rows}
    nbytes = {r[0]: r[3] for r in report.rows}
    # CAS recipes skip the static field's blocks: >= 2x fewer bytes
    assert nbytes["CAS"] * 2 <= nbytes["full sync"]
    # compression shrinks what remains further
    assert nbytes["CAS+zlib"] < nbytes["CAS"]
    # the async writer hides the (already smaller) write behind compute
    assert overhead["CAS+async"] < overhead["CAS"]
    # combined: the modelled save overhead collapses vs. full sync saves
    assert overhead["CAS+async"] * 2 < overhead["full sync"]
    assert overhead["CAS+zlib"] * 2 < overhead["full sync"]
