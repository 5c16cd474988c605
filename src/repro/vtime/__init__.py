"""Virtual-time substrate.

The paper's evaluation ran on a real two-node, 24-core/node cluster.  This
reproduction executes every code path for real (partitioning, collectives,
barriers, snapshots, replay) but models *time* with a virtual clock per
rank, because CPython's GIL makes single-box wall-clock speedup curves
meaningless for pure-Python compute.

Every charge is modelled, none is measured:

* a work-shared compute chunk costs its work units times the kernel's rate
  in ``KERNEL_RATES`` (:func:`~repro.vtime.machine.kernel_cost`), charged
  to the executing rank's clock (scaled by core contention when ranks are
  over-subscribed onto cores — the over-decomposition experiment);
* message, collective, barrier and disk costs come from an explicit
  :class:`MachineModel` (latency/bandwidth per link class, barrier alpha/
  beta, disk latency/bandwidth).

So the curves of Figures 3-9 depend only on work units, data volumes and
participant counts, which the real execution determines exactly: the same
program, configuration and machine give the same virtual time on any host
and in any process.
"""

from repro.vtime.clock import VClock
from repro.vtime.machine import DiskModel, MachineModel, NetworkModel

__all__ = ["DiskModel", "MachineModel", "NetworkModel", "VClock"]
