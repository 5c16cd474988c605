"""Distributed-memory substrate: an MPI-like communicator over rank fabrics.

The paper's distributed execution model (Section III.C) is SPMD over
*object aggregates*.  This package provides the substrate underneath:

* :class:`Mailbox` / :class:`Communicator` — point-to-point messages with
  (source, tag) matching and the flat root-funnel collectives (barrier,
  bcast, gather, reduce, allreduce), with mpi4py-style lower-case
  generic-object semantics.  There is one mailbox class for
  every fabric: a :class:`~repro.dsm.transport.Transport` builds each
  rank's endpoints over thread queues (the simulated cluster), pipe
  channels (:mod:`repro.dsm.procmail`, the process ranks) or TCP
  (:mod:`repro.dsm.socketmail`).
* partitioners — BLOCK / CYCLIC / HYBRID layouts over numpy arrays, with
  optional halo (ghost) rows for stencil codes, and exact round-trip
  ``gather(scatter(x)) == x``.
* :class:`SimCluster` — launches ``nranks`` rank threads running the same
  entry point, each with a virtual clock placed on the machine model's
  node/core grid (over-decomposition charges core contention).

Every message also advances the participating ranks' virtual clocks using
the machine's network model, so communication-bound effects (gather at the
root, inter-node hops, barrier scaling) appear in the reproduced figures.
"""

from repro.dsm.comm import Communicator, RankContext, current_rank
from repro.dsm.mailbox import Mailbox, Message
from repro.dsm.partition import (
    BlockLayout,
    CyclicLayout,
    HybridLayout,
    Layout,
    local_slice,
)
from repro.dsm.simcluster import RankFailure, SimCluster

__all__ = [
    "BlockLayout",
    "Communicator",
    "CyclicLayout",
    "HybridLayout",
    "Layout",
    "Mailbox",
    "Message",
    "RankContext",
    "RankFailure",
    "SimCluster",
    "current_rank",
    "local_slice",
]
