"""Hand-written SOR against the raw substrates (no weaver).

Three functions — sequential, thread-team, SPMD cluster — each optionally
with checkpointing *inlined* into the domain loop, exactly the "invasive"
programming style the paper's Figure 3 compares pluggable
parallelisation against.  With ``ckpt_every=None`` they are the paper's
fixed JGF versions (original benchmark, no fault tolerance): the
comparators of Figure 9.

They call the woven app's own kernel (:func:`repro.apps.sor.relax_rows`)
and charge it at the woven app's ``SOR.relax`` table rate, so both
versions compute bit-identical grids in the same virtual compute time.
The point is the code around it: checkpoint bookkeeping threads through
every function here, versus three declarations in
``apps/plugs/sor_plugs.py``, yet gains no performance — the paper's
headline claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.sor import SOR, grid_checksum, init_grid, relax_rows
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.store import CheckpointStore
from repro.dsm.comm import current_rank
from repro.dsm.partition import BlockLayout, exchange_halo, gather_inplace, \
    local_slice, scatter_inplace
from repro.dsm.simcluster import SimCluster
from repro.smp.team import ThreadTeam, current_worker
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel, kernel_cost


def _charge_relax(clock, lo: int, hi: int) -> None:
    """Charge one relax chunk; one unit = one row of one colour phase."""
    clock.charge_compute(kernel_cost(SOR, "relax", hi - lo))


@dataclass
class HandwrittenResult:
    checksum: float
    vtime: float
    safepoints: int
    checkpoints: int
    breakdown: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# sequential
# ---------------------------------------------------------------------------
def run_sequential_sor(n: int = 100, iterations: int = 100,
                       omega: float = 1.25, seed: int = 17,
                       machine: MachineModel | None = None,
                       store: CheckpointStore | None = None,
                       ckpt_every: int | None = None) -> HandwrittenResult:
    machine = machine if machine is not None else MachineModel()
    clock = VClock()
    G = init_grid(n, seed)
    count = 0
    checkpoints = 0
    for _ in range(iterations):
        relax_rows(G, 1, n - 1, 0, omega)
        relax_rows(G, 1, n - 1, 1, omega)
        _charge_relax(clock, 1, 2 * n - 3)
        # --- invasive checkpoint code tangled into the domain loop ----
        count += 1
        clock.charge_compute(5e-8)  # safe-point counting
        if store is not None and ckpt_every and count % ckpt_every == 0:
            snap = Snapshot.capture(_SnapShim(G, count), ["G", "count"],
                                    count, app="SOR-invasive")
            store.write(snap)
            clock.charge_io(machine.disk.write_cost(store.last_write_nbytes))
            checkpoints += 1
    return HandwrittenResult(grid_checksum(G), clock.now, count, checkpoints,
                             clock.snapshot())


class _SnapShim:
    """Invasive code has no object model to hang SafeData on: improvise."""

    def __init__(self, G: np.ndarray, count: int) -> None:
        self.G = G
        self.count = count


# ---------------------------------------------------------------------------
# thread team
# ---------------------------------------------------------------------------
def run_threads_sor(workers: int, n: int = 100, iterations: int = 100,
                    omega: float = 1.25, seed: int = 17,
                    machine: MachineModel | None = None,
                    store: CheckpointStore | None = None,
                    ckpt_every: int | None = None) -> HandwrittenResult:
    machine = machine if machine is not None else MachineModel()
    team = ThreadTeam(machine, size=workers)
    G = init_grid(n, seed)
    state = {"count": 0, "checkpoints": 0}

    def save_if_due(sp_index: int, tm: ThreadTeam) -> bool:
        state["count"] = sp_index
        if store is None or not ckpt_every or sp_index % ckpt_every != 0:
            return False
        snap = Snapshot.capture(_SnapShim(G, sp_index), ["G", "count"],
                                sp_index, app="SOR-invasive-smp")
        store.write(snap)
        current_worker().clock.charge_io(
            machine.disk.write_cost(store.last_write_nbytes))
        state["checkpoints"] += 1
        return True

    def region() -> None:
        for _ in range(iterations):
            for parity in (0, 1):
                for s, e in team.worksharing(1, n - 1):
                    relax_rows(G, s, e, parity, omega)
                    _charge_relax(current_worker().clock, s, e)
                team.barrier()
            team.safepoint(save_if_due)

    team.run_region(region)
    return HandwrittenResult(grid_checksum(G), team.clock.now, state["count"],
                             state["checkpoints"], team.clock.snapshot())


# ---------------------------------------------------------------------------
# SPMD cluster
# ---------------------------------------------------------------------------
def run_mpi_sor(nranks: int, n: int = 100, iterations: int = 100,
                omega: float = 1.25, seed: int = 17,
                machine: MachineModel | None = None,
                store: CheckpointStore | None = None,
                ckpt_every: int | None = None) -> HandwrittenResult:
    machine = machine if machine is not None else MachineModel()
    cluster = SimCluster(nranks, machine)
    layout = BlockLayout(axis=0, halo=1)

    def rank_entry():
        ctx = current_rank()
        G = init_grid(n, seed)
        lo, hi = local_slice(n, ctx.rank, nranks)
        scatter_inplace(ctx.comm, G, layout, root=0)
        count = 0
        checkpoints = 0
        for _ in range(iterations):
            for parity in (0, 1):
                exchange_halo(ctx.comm, G, layout)
                relax_rows(G, lo, hi, parity, omega)
                _charge_relax(ctx.clock, lo, hi)
            count += 1
            ctx.clock.charge_compute(5e-8)
            if store is not None and ckpt_every and count % ckpt_every == 0:
                # master-collect strategy, hand-coded
                gather_inplace(ctx.comm, G, layout, root=0)
                if ctx.rank == 0:
                    snap = Snapshot.capture(_SnapShim(G, count),
                                            ["G", "count"], count,
                                            app="SOR-invasive-mpi")
                    store.write(snap)
                    ctx.clock.charge_io(
                        machine.disk.write_cost(store.last_write_nbytes))
                checkpoints += 1
        gather_inplace(ctx.comm, G, layout, root=0)
        if ctx.rank == 0:
            return grid_checksum(G), count, checkpoints
        return None

    results = cluster.run(rank_entry)
    checksum, count, checkpoints = results[0]
    return HandwrittenResult(checksum, cluster.max_time, count, checkpoints,
                             cluster.time_breakdown())
