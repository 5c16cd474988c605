"""Machine, network and disk cost models.

The defaults approximate the paper's testbed: two nodes, dual Opteron 6174
(24 cores/node), gigabit-class interconnect, shared remote storage (the
paper stresses that Grid storage elements have *higher* latency than local
cluster disks — ``DiskModel`` has a generous latency term for that reason).

All quantities are seconds and bytes.  The constants do not try to match
the paper's absolute numbers (our compute substrate is Python, not a JVM);
they are chosen so the *relationships* the paper reports hold: inter-node
bandwidth well below intra-node, barrier cost growing with participant
count, disk write cost dominated by volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class NetworkModel:
    """Point-to-point message cost: ``latency + nbytes / bandwidth``.

    Two link classes: *intra* (ranks placed on the same node — in the real
    system this is shared memory or loopback) and *inter* (ranks on
    different nodes — the real network).
    """

    intra_latency: float = 2e-6
    intra_bandwidth: float = 6e9  # bytes/s, memory-bus class
    inter_latency: float = 30e-6
    inter_bandwidth: float = 500e6  # bytes/s, Myrinet/10GbE class

    def p2p_cost(self, nbytes: int, same_node: bool) -> float:
        """Time for one point-to-point message of ``nbytes``."""
        if same_node:
            return self.intra_latency + nbytes / self.intra_bandwidth
        return self.inter_latency + nbytes / self.inter_bandwidth


@dataclass(frozen=True)
class DiskModel:
    """Checkpoint storage cost: ``latency + nbytes / bandwidth``.

    Grid storage elements are remote, so the latency term is large relative
    to a local disk; bandwidth is NFS-class.
    """

    latency: float = 5e-3
    write_bandwidth: float = 120e6
    read_bandwidth: float = 150e6
    #: memory-to-memory bandwidth of the async writer's double-buffer
    #: copy (memcpy class) — the only cost an asynchronous checkpoint
    #: leaves on the critical path when the writer keeps up.
    copy_bandwidth: float = 8e9

    def write_cost(self, nbytes: int) -> float:
        return self.latency + nbytes / self.write_bandwidth

    def read_cost(self, nbytes: int) -> float:
        return self.latency + nbytes / self.read_bandwidth

    def copy_cost(self, nbytes: int) -> float:
        """In-memory handoff cost of one async checkpoint submission."""
        return nbytes / self.copy_bandwidth


@dataclass(frozen=True)
class MachineModel:
    """Cluster topology plus derived cost helpers.

    ``nodes`` x ``cores_per_node`` processing elements.  Ranks (or threads)
    are placed on cores round-robin *within* a node and fill nodes in order
    (rank r sits on node ``r // cores_per_node`` while ranks fit; beyond
    that, placement wraps — over-decomposition).
    """

    nodes: int = 2
    cores_per_node: int = 24
    #: barrier cost = alpha * ceil(log2(P)) + beta * P (tree + linear term).
    barrier_alpha: float = 3e-6
    barrier_beta: float = 0.4e-6
    #: fixed per-rank scheduling overhead charged per synchronisation epoch
    #: when more ranks than cores share a core (context switching).
    oversub_switch_cost: float = 150e-6
    #: cache-pollution penalty of time-slicing: k co-located ranks run
    #: their compute at an effective slowdown of ``k + (k-1)*thrash``
    #: rather than the ideal k (every switch refills caches).  Calibrated
    #: so the Figure 8 over-decomposition blow-up lands near the paper's
    #: ~3x at 16 ranks per core.
    oversub_thrash: float = 2.5
    #: fixed cost to spawn one thread / rank (team creation, replay entry).
    spawn_cost: float = 120e-6
    network: NetworkModel = field(default_factory=NetworkModel)
    disk: DiskModel = field(default_factory=DiskModel)

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    def node_of(self, rank: int, nranks: int | None = None) -> int:
        """Node hosting ``rank``.

        Ranks fill node 0's cores first, then node 1's, etc.; with more
        ranks than cores the assignment wraps around the core grid, so
        rank placement is ``(rank % total_cores)`` mapped to nodes.
        """
        core = self.core_of(rank)
        return core // self.cores_per_node

    def core_of(self, rank: int) -> int:
        """Global core index hosting ``rank`` (wraps when over-subscribed)."""
        return rank % self.total_cores

    def same_node(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    def contention(self, rank: int, nranks: int) -> int:
        """How many of ``nranks`` ranks share ``rank``'s core.

        1 when the machine is under-subscribed; ``ceil(nranks/cores)``-ish
        when over-decomposed.  Compute charges are multiplied by this
        factor: co-located ranks time-slice one core.
        """
        core = self.core_of(rank)
        ncores = self.total_cores
        if nranks <= ncores:
            return 1
        base, extra = divmod(nranks, ncores)
        return base + (1 if core < extra else 0)

    def thread_contention(self, tid: int, nthreads: int) -> int:
        """Core sharing for *threads*, which all live on a single node."""
        cores = self.cores_per_node
        if nthreads <= cores:
            return 1
        base, extra = divmod(nthreads, cores)
        return base + (1 if (tid % cores) < extra else 0)

    def contention_factor(self, rank: int, nranks: int) -> float:
        """Effective compute slowdown of a rank on its (shared) core."""
        k = self.contention(rank, nranks)
        return k if k <= 1 else k + (k - 1) * self.oversub_thrash

    def thread_contention_factor(self, tid: int, nthreads: int) -> float:
        k = self.thread_contention(tid, nthreads)
        return k if k <= 1 else k + (k - 1) * self.oversub_thrash

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    def barrier_cost(self, nparticipants: int) -> float:
        """Cost of one barrier among ``nparticipants`` ranks/threads."""
        if nparticipants <= 1:
            return 0.0
        stages = math.ceil(math.log2(nparticipants))
        return self.barrier_alpha * stages + self.barrier_beta * nparticipants

    def p2p_cost(self, nbytes: int, src: int, dst: int) -> float:
        """Message cost between two ranks given their node placement."""
        return self.network.p2p_cost(nbytes, self.same_node(src, dst))

    def oversub_epoch_cost(self, nranks: int) -> float:
        """Context-switch overhead charged per rank per sync epoch.

        Zero when every rank has its own core.
        """
        if nranks <= self.total_cores:
            return 0.0
        return self.oversub_switch_cost


#: Virtual seconds per work unit of a work-shared (``ForMethod``) kernel,
#: keyed ``"Class.method"``.  Compute time is part of the model, like the
#: network and the disk: the figure ratios depend on the compute :
#: communication : disk proportions, not on whichever host runs them.
#: 7 us per SOR row of one colour phase reproduces the paper's
#: proportions at the N=700 figure harness; 50 us is one Series term.
KERNEL_RATES: dict[str, float] = {
    "SOR.relax": 7e-6,
    "Series.compute_terms": 50e-6,
}
#: per-unit rate of every kernel ``KERNEL_RATES`` does not list.
DEFAULT_KERNEL_RATE = 1e-6


def kernel_cost(cls: type, method: str, units: int) -> float:
    """Virtual seconds that ``units`` work units of ``cls.method`` cost.

    The rate is the first ``KERNEL_RATES`` entry along ``cls``'s MRO, so
    a subclass charges its base's rate unless the table lists it itself.
    """
    if units <= 0:
        return 0.0
    for klass in cls.__mro__:
        rate = KERNEL_RATES.get(f"{klass.__name__}.{method}")
        if rate is not None:
            return units * rate
    return units * DEFAULT_KERNEL_RATE


#: The paper's testbed for the distributed experiments (2 x 24 cores).
PAPER_CLUSTER = MachineModel(nodes=2, cores_per_node=24)

#: The cluster used for the paper's Figure 9 ("eight-core machines").
EIGHT_CORE_CLUSTER = MachineModel(nodes=4, cores_per_node=8)
