"""Shared-memory substrate: an OpenMP-like thread-team runtime.

Provides the execution model of Section III.B of the paper: a master thread
spawns a team to execute a *parallel method* (region); inside the region,
work-sharing constructs split loops among team members, ``single``
methods run on one member, and barriers synchronise.

The team is *malleable* (Section IV.B): at adaptation points it can grow —
new threads replay the region body to rebuild their call stack and then go
live — or shrink — retired threads keep executing the region with empty
work shares until they fall off the end of the region, exactly the paper's
"executing methods with empty operations until the thread gets to the end
of the parallel region".
"""

from repro.smp.barrier import AdaptiveBarrier
from repro.smp.sched import Schedule, iter_chunks, static_slice
from repro.smp.sync import SingleArbiter
from repro.smp.team import RegionState, ThreadTeam, Worker, current_worker

__all__ = [
    "AdaptiveBarrier",
    "RegionState",
    "Schedule",
    "SingleArbiter",
    "ThreadTeam",
    "Worker",
    "current_worker",
    "iter_chunks",
    "static_slice",
]
