#!/usr/bin/env python
"""Running the runtime as a persistent service.

A ``Runtime.run`` call constructs a world — forks rank processes,
allocates shared-memory segments, wires a mailbox fabric — and tears it
all down again.  For one long job that is noise; for a stream of short
jobs it is the bill.  ``RuntimeService`` keeps the world warm:

* a pre-forked **worker fleet** parks between jobs on control channels
  (activation is a message, never a fork);
* a shared-memory **arena** re-leases capacity-classed segments to each
  next job instead of unlink/re-allocate;
* a **job queue** with admission control and fair-share elastic
  scheduling — a waiting higher-priority job shrinks a running elastic
  job in place (the membership transition priced by the advisor), and
  shrunken jobs grow back when the queue drains;
* a **client API** (submit/status/result/cancel) over a local socket,
  so any process can feed the warm world.

Each job gets its own checkpoint namespace in the service's store, and
its results are bit-identical to a direct ``Runtime.run``.

Run:  python examples/service_demo.py
"""

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.core import plug
from repro.service import RuntimeService, ServiceClient
from repro.telemetry import MetricsRegistry
from repro.vtime import MachineModel


def main():
    woven = plug(SOR, SOR_ADAPTIVE)
    reference = SOR(n=48, iterations=10).execute()

    with RuntimeService(workers=4, lanes=2,
                        machine=MachineModel(nodes=2,
                                             cores_per_node=4)) as svc:
        client = ServiceClient(svc.address)

        # a burst of short jobs: the fleet runs them two lanes wide,
        # zero forks after start-up.
        jobs = [client.submit(woven, ctor_kwargs={"n": 48,
                                                  "iterations": 10},
                              entry="execute", nranks=2)
                for _ in range(6)]
        for jid in jobs:
            out = client.result(jid, timeout=120.0)
            assert out["status"] == "done" and out["value"] == reference
            print(f"job {jid}: value={out['value']:.6e} "
                  f"latency={out['latency_s'] * 1e3:.0f}ms")

        # an elastic job takes the whole fleet ...
        big = client.submit(woven,
                            ctor_kwargs={"n": 48, "iterations": 2500},
                            entry="execute", nranks=4, min_ranks=2)
        import time
        while client.status(big)["status"] != "running":
            time.sleep(0.05)
        time.sleep(0.3)

        # ... until a higher-priority job arrives: the scheduler shrinks
        # the big job in place (no relaunch) to make room.
        urgent = client.submit(woven,
                               ctor_kwargs={"n": 48, "iterations": 10},
                               entry="execute", nranks=2, priority=5)
        out = client.result(urgent, timeout=120.0)
        assert out["status"] == "done" and out["value"] == reference
        print(f"urgent job {urgent}: done while job {big} kept running "
              f"at {client.status(big).get('nranks', '?')} ranks")

        out = client.result(big, timeout=300.0)
        assert out["status"] == "done"
        assert out["value"] == SOR(n=48, iterations=2500).execute()
        print(f"elastic job {big}: done, reshapes={out['reshapes']}, "
              f"relaunches={out['relaunches']}")

        reg = MetricsRegistry()
        reg.absorb_snapshot(client.stats()["metrics"])
        print(f"fleet: {reg.value('repro_service_workers_total'):.0f} "
              f"workers ({reg.value('repro_service_workers_idle'):.0f} "
              f"idle), arena reusing "
              f"{reg.value('repro_arena_segments_total'):.0f} segment(s)")

    print("\nsame results as a cold Runtime, none of the construction.")


if __name__ == "__main__":
    main()
