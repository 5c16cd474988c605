"""The checkpoint object store vs the container store: bytes and restore.

Two workloads where checkpoint cost is dominated by redundancy the
container store (``Runtime(ckpt_cas=False)``, a whole file per
checkpoint) cannot see:

* **SOR, STRATEGY_LOCAL** — every rank saves a full-shape grid each
  checkpoint; the regions a rank doesn't own are byte-identical across
  the shard set, and the grid changes every safe point, so no whole
  field is ever unchanged.  Fixed 4 KiB blocks store the shared regions
  once.
* **MolDyn, STRATEGY_LOCAL** — positions and velocities are replicated
  (identical on every rank); only the partitioned forces differ.

Both runs cross an adaptation (relaunch onto a different rank count)
mid-chain, so the byte accounting spans two shard-set shapes.  A third
scenario funnels two identical jobs through the multi-tenant runtime
service, whose per-job namespaces share one CAS.

Reported: total checkpoint bytes on disk (recipes + packs vs container
files), the byte-reduction ratio, and the wall time to reassemble the
newest shard set (the CAS restore reads each pack once, in offset
order).  The headline series lands machine-readable in
``results/BENCH_ckpt_cas.json``.
"""

from __future__ import annotations

import multiprocessing as mp
import time

from paper_report import FigureReport
from repro.apps.moldyn import MolDyn
from repro.apps.plugs.moldyn_plugs import MOLDYN_CKPT, MOLDYN_DIST
from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt.policy import EveryN
from repro.core import (
    STRATEGY_LOCAL,
    AdaptStep,
    AdaptationPlan,
    ExecConfig,
    Runtime,
    plug,
)
from repro.vtime.machine import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=8)

#: app -> (class, plugs, ctor kwargs, safe points, adapt point).
WORKLOADS = {
    "sor": (SOR, SOR_ADAPTIVE, {"n": 192, "iterations": 16}, 16, 8),
    "moldyn": (MolDyn, MOLDYN_DIST + MOLDYN_CKPT,
               {"n": 48, "steps": 12}, 12, 6),
}

RANKS, RANKS_AFTER = 3, 4


def _disk_bytes(ckpt_dir) -> int:
    """Total checkpoint footprint: recipes/snapshots plus CAS packs."""
    return sum(f.stat().st_size for f in ckpt_dir.rglob("*") if f.is_file())


def _run_chain(app, plugs, kwargs, adapt_at, tmp_path, tag, **store_kw):
    woven = plug(app, plugs)
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 policy=EveryN(3), ckpt_strategy=STRATEGY_LOCAL,
                 **store_kw)
    plan = AdaptationPlan([AdaptStep(
        at=adapt_at, config=ExecConfig.distributed(RANKS_AFTER))])
    res = rt.run(woven, ctor_kwargs=kwargs, entry="execute",
                 config=ExecConfig.distributed(RANKS), plan=plan,
                 fresh=True)
    return rt, woven, res


def _restore_wall(rt, woven) -> float:
    parts = woven.__pp_plugs__.partitioned_fields()
    t0 = time.perf_counter()
    snap = rt.store.assemble_latest_from_shards(parts)
    wall = time.perf_counter() - t0
    assert snap is not None, "no complete shard set to reassemble"
    return wall


def test_cas_vs_full_bytes_and_restore(benchmark, tmp_path):
    report = FigureReport(
        "Ckpt CAS", "Chunked object store vs container store "
        f"(STRATEGY_LOCAL, {RANKS}->{RANKS_AFTER} ranks)",
        ["scenario", "full bytes", "cas bytes", "reduction",
         "full restore s", "cas restore s"],
        note="service-2job counts chunk refs against chunks stored; two "
             "jobs' presence handshakes race, so it reads 1.0-1.72x from "
             "run to run (not a gate)")
    headline: dict[str, float] = {}

    def experiment():
        values = {}
        for name, (app, plugs, kwargs, iters, adapt_at) in \
                WORKLOADS.items():
            rt_f, woven, res_f = _run_chain(
                app, plugs, kwargs, adapt_at, tmp_path, f"{name}-full")
            rt_c, _, res_c = _run_chain(
                app, plugs, kwargs, adapt_at, tmp_path, f"{name}-cas",
                ckpt_cas=True)
            assert res_c.value == res_f.value  # CAS on/off parity
            values[name] = res_c.value
            full_bytes = _disk_bytes(rt_f.store.dir)
            cas_bytes = _disk_bytes(rt_c.store.dir)
            ratio = full_bytes / cas_bytes
            wall_f = _restore_wall(rt_f, woven)
            wall_c = _restore_wall(rt_c, woven)
            report.add(name, full_bytes, cas_bytes, ratio,
                       wall_f, wall_c)
            headline[f"{name}_byte_reduction"] = ratio
            headline[f"{name}_cas_restore_wall_s"] = wall_c
        return values

    benchmark.pedantic(experiment, rounds=1, iterations=1)

    # the multi-tenant scenario: two identical jobs, one shared CAS
    if "fork" in mp.get_all_start_methods():
        from repro.service import RuntimeService, ServiceClient

        woven = plug(SOR, SOR_ADAPTIVE)
        with RuntimeService(workers=4, lanes=2, machine=MACHINE,
                            ckpt_dir=str(tmp_path / "svc"),
                            ckpt_cas=True) as svc:
            client = ServiceClient(svc.address)
            jobs = [client.submit(woven,
                                  ctor_kwargs={"n": 192, "iterations": 16},
                                  entry="execute", nranks=2,
                                  policy=EveryN(4)) for _ in range(2)]
            for jid in jobs:
                out = client.result(jid, timeout=180.0)
                assert out["status"] == "done", out
            cas = svc.store.cas
            refs = cas.chunks_stored + cas.chunks_deduped
            svc_ratio = refs / max(1, cas.chunks_stored)
            report.add("service-2job", refs, cas.chunks_stored,
                       svc_ratio, float("nan"), float("nan"))
            headline["service_chunk_dedup"] = svc_ratio

    report.emit(benchmark, json_name="ckpt_cas", extra=headline)
    # the acceptance gate: block-level dedup must beat the container
    # store's bytes by 1.5x on the shard-redundant SOR chain
    assert headline["sor_byte_reduction"] >= 1.5, headline
