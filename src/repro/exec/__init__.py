"""Pluggable execution backends — the launch layer under the Runtime.

One woven code base, many execution substrates: every launch path
(sequential, thread team, simulated cluster, hybrid, and anything a user
registers) implements the same :class:`ExecutionBackend` interface —
``launch(PhaseSpec) -> PhaseOutcome`` plus clock seeding, context
creation, worker lifecycle and unwind normalisation.  The
:class:`PhaseDriver` resolves a backend per phase through a
:class:`BackendRegistry`, so adaptation can reshape not just the
resource shape but the backend itself, and a new substrate (multiprocess,
real MPI, ...) is a drop-in module rather than a Runtime rewrite.
"""

from repro.exec.base import (
    PHASE_ADAPTED,
    PHASE_COMPLETED,
    PHASE_FAILED,
    ExecutionBackend,
    PhaseOutcome,
    PhaseServices,
    PhaseSpec,
)
from repro.exec.cluster import SimClusterBackend
from repro.exec.driver import PhaseDriver
from repro.exec.hybrid import HybridBackend
from repro.exec.multiproc import MultiprocessBackend
from repro.exec.registry import (
    BackendRegistry,
    build_default_registry,
    default_registry,
)
from repro.exec.sequential import SequentialBackend
from repro.exec.sockets import SocketsBackend
from repro.exec.threads import ThreadTeamBackend

__all__ = [
    "BackendRegistry",
    "ExecutionBackend",
    "HybridBackend",
    "MultiprocessBackend",
    "PHASE_ADAPTED",
    "PHASE_COMPLETED",
    "PHASE_FAILED",
    "PhaseDriver",
    "PhaseOutcome",
    "PhaseServices",
    "PhaseSpec",
    "SequentialBackend",
    "SimClusterBackend",
    "SocketsBackend",
    "ThreadTeamBackend",
    "build_default_registry",
    "default_registry",
]
