"""The persistent runtime service: warm worker fleets, pooled segments.

A :class:`~repro.service.daemon.RuntimeService` amortises world
construction — process forks, shared-memory segment allocation, mailbox
fabrics, checkpoint funnels — across *jobs*: a pre-forked
:class:`~repro.service.fleet.WorkerFleet` idles between jobs on control
channels (the same park/un-park mechanism the elastic membership
protocol uses), a :class:`~repro.service.arena.SegmentArena` recycles
capacity-classed shared-memory segments instead of unlink/re-allocating
per run, and a :class:`~repro.service.scheduler.JobQueue` admits and
fair-shares jobs over the fleet, reshaping running jobs in place when a
higher-priority job arrives.  Clients talk to the daemon over a local
socket in the one wire format of :mod:`repro.dsm.links`, whose serving
loop is the daemon's front door.
"""

from repro.service.arena import SegmentArena
from repro.service.backend import FleetBackend
from repro.service.client import ServiceClient
from repro.service.daemon import RuntimeService
from repro.service.fleet import WorkerFleet
from repro.service.scheduler import Job, JobQueue
from repro.service.steer import JobCancelled, SteerBlock, SteerClient

__all__ = [
    "FleetBackend",
    "Job",
    "JobCancelled",
    "JobQueue",
    "RuntimeService",
    "SegmentArena",
    "ServiceClient",
    "SteerBlock",
    "SteerClient",
    "WorkerFleet",
]
