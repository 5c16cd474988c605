"""The safe-point membership protocol: reshape ranks without relaunch.

Every rank of the old membership reaches the same safe point holding the
same :class:`~repro.core.adaptation.AdaptStep` (plans are deterministic),
so the transition needs no negotiation — only choreography:

1. **quiesce** — a barrier on the old membership.  All collectives that
   precede the safe point have completed on every rank, so every mailbox
   is drained of user traffic and the communicator is safe to reshape.
2. **shrink**: retiring ranks first push the field regions they own to
   the surviving new owners (on the old communicator, where everyone
   still has an endpoint), then the membership switches and the retirees
   unwind their call stack via :class:`RankRetired`.
3. **grow**: the membership switches first (joiners have no endpoint
   before it), new ranks rebuild their call stack by replaying the entry
   to the transition safe point (:class:`JoinReplay` — the same replay
   mechanism restart uses, minus the snapshot), then everyone meets at a
   rendezvous barrier on the new communicator and the surviving owners
   scatter the moved regions plus the root-held whole-array state.
4. **identity update** — every rank adopts the new configuration: rank
   count, core-contention factor for its virtual clock, and (rank 0) the
   :class:`~repro.core.adaptation.AdaptationRecord` that reports the
   reshape upstream.  Joiner clocks are seeded at the transition epoch,
   so virtual time stays monotone across the transition; per-rank RNG
   streams are re-derived by the replayed constructor, which keys them
   by logical index, not rank count.

Backends provide the substrate-specific halves (how a membership
actually switches — spawn rank threads, un-park processes, ...) through
a :class:`RankReshaper`; the data movement and identity bookkeeping here
are shared by all of them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.ckpt.replay import ReplayState
from repro.core.adaptation import AdaptationRecord, AdaptStep
from repro.dsm.comm import TAG_COLL
from repro.elastic.plan import ReshapePlan
from repro.telemetry import schema as _ts
from repro.telemetry.plane import writer as telemetry_writer
from repro.trace import schema as _tc
from repro.trace.plane import tracer as trace_writer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.context import ExecutionContext
    from repro.vtime.machine import MachineModel

#: reshape plumbing tags (region moves; root -> joiner state refresh).
TAG_RESHAPE_MOVE = TAG_COLL + 40
TAG_RESHAPE_STATE = TAG_COLL + 41


class RankRetired(BaseException):
    """Control-flow signal: this rank leaves the membership at a shrink.

    Unwinds the retiring rank's call stack out of the woven entry — the
    paper's thread-retirement idea ("executing ... until the thread gets
    to the end of the parallel region") lifted to the rank dimension,
    where the whole entry is the region.  ``BaseException`` so domain
    ``except Exception`` handlers cannot swallow it; backends catch it at
    their rank-entry boundary and treat it as a normal (resultless) end
    of that rank's participation.
    """

    def __init__(self, count: int, rank: int) -> None:
        super().__init__(f"rank {rank} retired at safe point {count}")
        self.count = count
        self.rank = rank


class JoinReplay(ReplayState):
    """Replay driver for a rank joining mid-phase.

    Like a restart replay there is no data to restore along the way —
    the joiner skips ignorable methods and counts safe points — but the
    completion differs: instead of loading a snapshot, the joiner enters
    the transition rendezvous and receives its partitions from the
    surviving owners.
    """

    def __init__(self, target: int, reshaper: "RankReshaper",
                 plan: ReshapePlan, step: AdaptStep) -> None:
        super().__init__(target=target, snapshot=None)
        self.reshaper = reshaper
        self.plan = plan
        self.step = step

    def complete(self, ctx: "ExecutionContext", count: int) -> None:
        self.reshaper.complete_join(ctx, self, count)


class RankReshaper(ABC):
    """Backend hook turning a rank-count AdaptStep into a membership
    transition.  One instance serves one phase launch."""

    @abstractmethod
    def reshape(self, ctx: "ExecutionContext", step: AdaptStep,
                count: int) -> bool:
        """Run the transition from an *old-membership* rank.

        Called by every current rank at the same safe point.  Returns
        False (deterministically, before any communication) when the
        backend cannot reshape to ``step.config`` in place — the caller
        then falls back to the unwind-and-relaunch path.  Retiring ranks
        do not return: they raise :class:`RankRetired`.
        """

    @abstractmethod
    def complete_join(self, ctx: "ExecutionContext", replay: JoinReplay,
                      count: int) -> None:
        """Run the joiner's half of the rendezvous (new-membership rank)."""


# ---------------------------------------------------------------------------
# the shared choreography steps
# ---------------------------------------------------------------------------
def _axis_take(arr: np.ndarray, idx: np.ndarray, axis: int) -> np.ndarray:
    return np.take(arr, idx, axis=axis)


def movable_fields(ctx: "ExecutionContext") -> list[str]:
    """Partitioned fields whose regions travel rank-to-rank.

    ``whole_at_safepoints`` fields are whole on every member (refreshed
    root -> joiner instead); fields the backend placed in cross-process
    shared memory are one physical copy — membership changes need no
    data movement for them at all, which is precisely why the
    multiprocessing backend's reshape is cheap.
    """
    out = []
    for name in sorted(ctx.partitioned):
        part = ctx.partitioned[name]
        if part.whole_at_safepoints or ctx._shared(name):
            continue
        if isinstance(getattr(ctx.instance, name, None), np.ndarray):
            out.append(name)
    return out


def _move_payload(arr: np.ndarray, idx: np.ndarray, axis: int):
    """Source-side packing of one move: ``(values, owned, put_idx)``.

    A contiguous index run becomes a *slice view* of the field with
    ``(lo, hi)`` bounds (the send copies it, or packs it into a slab).
    Non-contiguous runs fall back to a fresh ``np.take`` staging buffer
    (owned: no defensive copy needed).
    """
    idx = np.asarray(idx)
    if idx.size and np.array_equal(
            idx, np.arange(idx[0], idx[0] + idx.size)):
        lo, hi = int(idx[0]), int(idx[0]) + int(idx.size)
        sl: list = [slice(None)] * arr.ndim
        sl[axis] = slice(lo, hi)
        view = arr[tuple(sl)]
        if view.flags.c_contiguous:
            return view, False, (lo, hi)
        return np.ascontiguousarray(view), True, (lo, hi)
    return _axis_take(arr, idx, axis), True, idx


def execute_moves(ctx: "ExecutionContext", plan: ReshapePlan, comm) -> None:
    """Walk the move schedule one-sidedly: put sourced regions into the
    new owners' windows, fence the incoming schedule.

    Every participating rank iterates the identical deterministic list.
    Each movable field is exposed as a window (``mv:<field>``) up
    front; sources *put* their regions straight at the destination
    indices (puts never block), and one fence per rank completes the
    incoming moves in schedule order — deterministic, so the clock
    coupling is bit-reproducible, and the envelope carries its window
    name, so interleavings across fields between one pair still land
    correctly.  Target regions of distinct moves are disjoint by
    construction (each region has exactly one new owner), which is what
    makes the one-sided port value-identical to the old send/recv walk.
    On a shrink this runs on the *old* communicator (retiring sources
    still have endpoints, and fence an empty schedule); on a grow on
    the *new* one (joining sinks do).
    """
    me = ctx.rank
    fields = []
    for name in movable_fields(ctx):
        part = ctx.partitioned[name]
        arr = getattr(ctx.instance, name)
        axis = part.layout.axis
        moves = list(plan.moves(part.layout, arr.shape[axis]))
        if moves:
            fields.append((name, arr, axis, moves))
    schedule: list[int] = []
    tele = telemetry_writer()
    tr = trace_writer()
    tw0 = perf_counter() if tr.active else 0.0
    for name, arr, axis, moves in fields:
        comm.win_expose("mv:" + name, arr)
        for mv in moves:
            if mv.src == me:
                values, owned, put_idx = _move_payload(arr, mv.idx, axis)
                if tele.active:
                    tele.inc(_ts.MOVE_BYTES, float(values.nbytes))
                comm.put("mv:" + name, values, mv.dst, put_idx,
                         axis=axis, owned=owned)
            elif mv.dst == me:
                schedule.append(mv.src)
    try:
        comm.fence(schedule)
    finally:
        for name, _arr, _axis, _moves in fields:
            comm.win_drop("mv:" + name)
    if tr.active:
        tr.span(_tc.MOVES, tw0, a=ctx.clock().now, b=float(len(schedule)))


def refresh_new_members(ctx: "ExecutionContext", plan: ReshapePlan,
                        comm) -> None:
    """Root -> joiner refresh of the state replay cannot reconstruct.

    Whole-at-safepoint partitioned fields and non-partitioned SafeData
    are identical on every surviving member (SPMD lockstep), so member 0
    sends its copies to each joiner — the same field treatment as a
    distributed restore, with targeted sends instead of a broadcast.

    Fields the backend gave a commit slab (``ctx.slab_whole``) skip the
    sends entirely: member 0 commits its whole scratch into the shared
    slab once and every joiner copies it out after one barrier — a
    memcpy per side instead of a pickled payload per joiner, which is
    most of a short job's elastic-activation latency.
    """
    if not plan.joining:
        return
    names = [f for f in ctx.safedata
             if (part := ctx.partitioned.get(f)) is None
             or part.whole_at_safepoints]
    if not names:
        return
    me = ctx.rank
    slab = [f for f in names if f in ctx.slab_whole]
    wired = [f for f in names if f not in ctx.slab_whole]
    if slab:
        if me == 0:
            for f in slab:
                ctx.slab_whole[f][...] = getattr(ctx.instance, f)
        comm.barrier()  # commits land before any joiner's read
        if me in plan.joining:
            for f in slab:
                getattr(ctx.instance, f)[...] = ctx.slab_whole[f]
    if me == 0:
        for dst in plan.joining:
            for f in wired:
                comm.send(getattr(ctx.instance, f), dst, TAG_RESHAPE_STATE)
    elif me in plan.joining:
        for f in wired:
            setattr(ctx.instance, f,
                    comm.recv(source=0, tag=TAG_RESHAPE_STATE))


def join_rendezvous(ctx: "ExecutionContext", plan: ReshapePlan,
                    step: AdaptStep, count: int, comm,
                    machine: "MachineModel") -> None:
    """The new membership's meeting point after a grow switch.

    Symmetric by construction: surviving ranks run it at the tail of
    ``RankReshaper.reshape`` and joiners from ``complete_join``, so the
    two sides can never desynchronise — barrier with everyone present,
    move the partitioned regions to their new owners, refresh the
    joiners' root-held state, fence, adopt the new identity.
    """
    tr = trace_writer()
    tw0 = perf_counter() if tr.active else 0.0
    comm.barrier()
    execute_moves(ctx, plan, comm)
    refresh_new_members(ctx, plan, comm)
    comm.barrier()
    apply_new_identity(ctx, step, plan, count, machine)
    if tr.active:
        tr.span(_tc.RENDEZVOUS, tw0, a=ctx.clock().now, b=float(count))


def apply_new_identity(ctx: "ExecutionContext", step: AdaptStep,
                       plan: ReshapePlan, count: int,
                       machine: "MachineModel") -> None:
    """Adopt the new configuration on this (surviving or joining) rank."""
    old_config = ctx.config
    ctx.config = step.config
    ctx.rankctx.nranks = plan.new_n
    # co-location changes with the member count: re-derive the core
    # time-slicing factor exactly as a fresh launch would.
    ctx.rankctx.clock.contention = machine.contention_factor(
        ctx.rank, plan.new_n)
    now = ctx.clock().now
    ctx.log.emit("reshape", vtime=now, rank=ctx.rank, count=count,
                 ranks=plan.new_n, was=plan.old_n,
                 grew=plan.growing)
    telemetry_writer().inc(_ts.RESHAPES)
    tr = trace_writer()
    if tr.active:
        tr.instant(_tc.SWITCH, a=now, b=float(plan.new_n))
    if ctx.rank == 0:
        ctx.reshapes.append(AdaptationRecord(
            at_count=count, from_config=old_config, to_config=step.config,
            via_restart=False, vtime=now,
            extra={"in_place": True, "kind": "rank_reshape"}))
