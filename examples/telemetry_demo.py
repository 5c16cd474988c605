#!/usr/bin/env python
"""The shared-memory telemetry plane, scraped three ways.

Every rank of a telemetry-enabled launch owns a fixed-slot metrics page
in a per-world shared segment and writes it lock-free from the hot
paths — safe-point latency, data-plane tier bytes, mailbox waits, pool
occupancy, checkpoint bytes.  The parent scrapes the pages once at the
end of each launch into a :class:`~repro.telemetry.MetricsRegistry`,
and from there one vocabulary (``repro_<subsystem>_<metric>{rank=,
backend=,job=}``) serves every consumer:

* ``RunResult.metrics`` — the picklable snapshot of a direct run;
* the service ``stats`` RPC and its per-job aggregation;
* a Prometheus text endpoint (``RuntimeService.serve_metrics``) you can
  hit with curl.

Telemetry is wall-side only — virtual time never reads it — so results
are bit-identical with it on or off.

Run:  python examples/telemetry_demo.py
"""

import multiprocessing as mp
from urllib.request import urlopen

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import EveryN
from repro.core import ExecConfig, Runtime, plug
from repro.service import RuntimeService, ServiceClient
from repro.telemetry import MetricsRegistry
from repro.vtime import MachineModel


def main():
    woven = plug(SOR, SOR_ADAPTIVE)
    machine = MachineModel(nodes=2, cores_per_node=4)

    # 1. a direct run: telemetry is on by default; the scraped registry
    #    snapshot rides home on the RunResult.  Real rank processes
    #    (when fork is available) put traffic on the data-plane tiers.
    config = ExecConfig.distributed(2)
    if "fork" in mp.get_all_start_methods():
        config = config.with_backend("multiproc")
    rt = Runtime(machine=machine, policy=EveryN(5))
    res = rt.run(woven, ctor_kwargs={"n": 256, "iterations": 12},
                 entry="execute", config=config)
    reg = MetricsRegistry()
    reg.absorb_snapshot(res.metrics)
    print("one distributed run, scraped from the rank pages:")
    print(f"  safe points      : "
          f"{int(reg.value('repro_exec_safepoints_total'))}")
    tiers = {t: int(reg.value("repro_dsm_send_bytes_total", {"tier": t}))
             for t in ("inline", "slab", "borrow", "tcp")}
    print(f"  bytes by tier    : " + ", ".join(
        f"{t}={v}" for t, v in tiers.items()))
    print(f"  mailbox receives : "
          f"{int(reg.value('repro_dsm_mailbox_recvs_total'))}")
    cnt, tot = reg.hist_totals("repro_exec_safepoint_latency_seconds")
    if cnt:
        print(f"  safe-point latency: {tot / cnt * 1e6:.1f} us mean "
              f"over {int(cnt)} passes")

    print("\nPrometheus exposition (first lines):")
    for line in reg.to_prometheus().splitlines()[:8]:
        print(f"  {line}")

    # 2. the service: each job's snapshot is folded into the service
    #    registry under a job= label, and serve_metrics exposes the
    #    whole thing over plain HTTP for curl-style scraping.
    with RuntimeService(workers=2, lanes=1, machine=machine) as svc:
        host, port = svc.serve_metrics()
        client = ServiceClient(svc.address)
        jid = client.submit(woven,
                            ctor_kwargs={"n": 48, "iterations": 10},
                            entry="execute", nranks=2)
        client.result(jid, timeout=120.0)

        svc_reg = MetricsRegistry()
        svc_reg.absorb_snapshot(client.stats()["metrics"])
        print(f"\nservice stats RPC: "
              f"{len(svc_reg.snapshot()['series'])} metric series "
              f"(repro_service_workers_idle = "
              f"{svc_reg.value('repro_service_workers_idle'):.0f})")

        body = urlopen(f"http://{host}:{port}/metrics",
                       timeout=10).read().decode()
        svc_lines = [ln for ln in body.splitlines()
                     if ln.startswith("repro_service_")]
        print(f"curl http://{host}:{port}/metrics ->")
        for line in svc_lines[:5]:
            print(f"  {line}")


if __name__ == "__main__":
    main()
