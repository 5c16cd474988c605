"""ExecutionContext: the per-execution state behind every woven method.

A context binds one application instance to one execution configuration:
the mode, the thread team and/or rank identity, the checkpoint machinery
(store, policy, safe-point counter, replay state, failure injector) and
the adaptation plan.  Template wrappers fetch it from the instance
(``instance.__pp_ctx__``) and delegate all mode-dependent behaviour here,
which is what lets a single woven class execute sequentially, on a thread
team, on a simulated cluster, or on both at once.

The safe-point protocol (:meth:`on_safepoint`) is the paper's Figure 2 in
code — counting, checkpoint-taking, replay/restore, failure injection and
adaptation all happen at safe points:

* sequential — run the protocol inline;
* shared memory — rendezvous the team (``ThreadTeam.safepoint``) and run
  the protocol once while everyone is parked, barriers included exactly
  where the paper inserts them;
* distributed — every rank runs the protocol in lockstep; saving gathers
  partitioned fields at member 0 (no barriers — the paper's preferred
  alternative) or writes per-rank shards between two global barriers (the
  first alternative, kept for the ablation study);
* hybrid — the team protocol per rank, with rank-level collectives run by
  one thread per rank.
"""

from __future__ import annotations

import copy
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable

from repro.ckpt.failure import FailureInjector
from repro.ckpt.policy import CheckpointPolicy, Never
from repro.ckpt.replay import ReplayState, SafePointCounter
from repro.ckpt.snapshot import Snapshot
from repro.ckpt.store import CheckpointStore
from repro.core.adaptation import AdaptationPlan, AdaptStep
from repro.core.errors import AdaptationExit, WeaveError
from repro.core.modes import Capabilities, ExecConfig, Mode
from repro.dsm.comm import RankContext
from repro.dsm.partition import (
    BlockLayout,
    exchange_halo,
    gather_inplace,
    scatter_inplace,
)
from repro.smp.team import ThreadTeam, current_worker
from repro.telemetry import schema as _ts
from repro.telemetry.plane import writer as telemetry_writer
from repro.trace import schema as _tc
from repro.trace.plane import tracer as trace_writer
from repro.util.events import EventLog
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.templates import ForMethod, Partitioned

#: checkpoint placement strategies for distributed runs (Section IV.A).
STRATEGY_MASTER = "master"  # collect at member 0; mode-independent file
STRATEGY_LOCAL = "local"    # per-rank shards between two barriers


class ExecutionContext:
    """Everything a woven instance needs to execute in one configuration."""

    def __init__(self,
                 config: ExecConfig,
                 machine: MachineModel | None = None,
                 log: EventLog | None = None,
                 store: CheckpointStore | None = None,
                 policy: CheckpointPolicy | None = None,
                 injector: FailureInjector | None = None,
                 plan: AdaptationPlan | None = None,
                 replay: ReplayState | None = None,
                 safedata: list[str] | None = None,
                 partitioned: "dict[str, Partitioned] | None" = None,
                 ckpt_strategy: str = STRATEGY_MASTER,
                 team: ThreadTeam | None = None,
                 rankctx: RankContext | None = None,
                 start_count: int = 0,
                 advisor=None,
                 caps: Capabilities | None = None,
                 reshaper=None) -> None:
        if ckpt_strategy not in (STRATEGY_MASTER, STRATEGY_LOCAL):
            raise ValueError(f"unknown checkpoint strategy {ckpt_strategy!r}")
        self.config = config
        #: coordination services the execution backend provides; contexts
        #: built outside a backend default to the mode's stock set.
        self.caps = caps if caps is not None \
            else config.mode.default_capabilities()
        self.machine = machine if machine is not None else MachineModel()
        self.log = log if log is not None else EventLog()
        self.store = store
        self.policy = policy if policy is not None else Never()
        self.injector = injector if injector is not None else FailureInjector()
        self.plan = plan if plan is not None else AdaptationPlan()
        self.replay = replay
        self.safedata = list(safedata or [])
        self.partitioned = dict(partitioned or {})
        self.ckpt_strategy = ckpt_strategy
        self.rankctx = rankctx
        #: names of partitioned fields the backend actually placed in
        #: cross-process shared memory (set by shared-field backends
        #: after instantiation; always a subset of ``partitioned``).
        #: Data movement for these degenerates to synchronisation.
        self.shared_fields: set[str] = set()
        #: ``whole_at_safepoints`` fields backed by a shared commit slab:
        #: field -> whole-size shared view.  Each rank computes into its
        #: *private* scratch array (replicated whole-array writes cannot
        #: alias), but gather/allgather commit only the owned regions
        #: into the slab and read the assembled whole back — no
        #: root-funnelled payload bytes, and joiners refresh from the
        #: slab instead of a root send.
        self.slab_whole: dict[str, Any] = {}
        #: optional external steering hook (the runtime service): polled
        #: at rank 0 each safe point, verdict broadcast to every member.
        self.steer = None
        #: optional SelfAdaptationAdvisor (sequential/shared phases only).
        self.advisor = advisor
        #: optional backend RankReshaper — the in-place rank-membership
        #: hook behind ``Capabilities.elastic_ranks``.
        self.reshaper = reshaper
        #: AdaptationRecords of in-place reshapes (rank membership
        #: transitions and worker resizes) applied during this phase;
        #: collected by the backend into the PhaseOutcome, so reshapes
        #: that never unwind still reach RunResult.adaptations.
        self.reshapes: list = []
        self.counter = SafePointCounter(start_count)
        self.instance: Any = None
        self._seq_clock = VClock()
        self._last_counted: tuple[int, int] = (-1, -1)  # (region_gen, sp)
        #: completion vtimes (ascending) of async checkpoint writes not
        #: yet finished; mirrors the writer's bounded queue so the model
        #: stalls exactly when the real submit() would block.
        self._async_pending: list[float] = []

        if self.caps.team_regions:
            self.team = team if team is not None else ThreadTeam(
                self.machine, size=config.workers, log=self.log)
        else:
            self.team = None

    # ------------------------------------------------------------------
    @property
    def mode(self) -> Mode:
        return self.config.mode

    @property
    def distributed(self) -> bool:
        """Are rank-level collectives live for this execution?

        True only when the backend declared the capability *and* bound a
        rank identity — the single predicate behind every collective, so
        nothing else needs to branch on mode identity.
        """
        return self.caps.rank_collectives and self.rankctx is not None

    @property
    def rank(self) -> int:
        return self.rankctx.rank if self.rankctx is not None else 0

    @property
    def nranks(self) -> int:
        return self.rankctx.nranks if self.rankctx is not None else 1

    def seed_clock(self, start_vtime: float) -> None:
        """Start this context's base clock at the phase's start time.

        Backends call this so virtual time is continuous across phases;
        rank clocks are seeded by the cluster launcher instead.
        """
        if self.team is not None:
            self.team.clock.advance_to(start_vtime)
        else:
            self._seq_clock.advance_to(start_vtime)

    def clock(self) -> VClock:
        """The virtual clock of the calling thread's line of execution."""
        w = current_worker()
        if w is not None:
            return w.clock
        if self.rankctx is not None:
            return self.rankctx.clock
        if self.team is not None:
            return self.team.clock
        return self._seq_clock

    def max_time(self) -> float:
        if self.rankctx is not None:
            return self.rankctx.clock.now
        if self.team is not None:
            return self.team.clock.now
        return self._seq_clock.now

    def bind(self, instance: Any) -> None:
        """Attach this context to a woven instance (validates fields)."""
        for f in self.safedata:
            if not hasattr(instance, f):
                raise WeaveError(f"SafeData field {f!r} missing on instance")
        for f in self.partitioned:
            if not hasattr(instance, f):
                raise WeaveError(f"Partitioned field {f!r} missing")
        instance.__pp_ctx__ = self
        self.instance = instance

    def unbind(self) -> None:
        """Detach from the instance at phase end: the two point at each
        other, so bound they would keep the run's arrays alive until a
        full garbage-collection pass."""
        instance, self.instance = self.instance, None
        if instance is not None:
            instance.__pp_ctx__ = None

    # ------------------------------------------------------------------
    # wrapper services: replay / region / barriers / locks
    # ------------------------------------------------------------------
    def replay_active(self) -> bool:
        """Should ignorable methods be skipped right now?

        True during application-level restart replay and during a new
        team thread's region replay.
        """
        w = current_worker()
        if w is not None and w.replaying:
            return True
        return self.replay is not None and self.replay.active

    def in_region(self) -> bool:
        return self.team is not None and self.team.in_region()

    def barrier(self) -> None:
        if self.in_region():
            self.team.barrier()  # type: ignore[union-attr]
        elif self.distributed:
            if not self.replay_active():
                self.rankctx.comm.barrier()

    def lock(self, name: str):
        if self.team is not None:
            return self.team.locks().lock(name)
        import threading

        return threading.RLock()

    def is_master_thread(self) -> bool:
        return self.team.is_master() if self.team is not None else True

    def is_master_rank(self) -> bool:
        return self.rank == 0

    # ------------------------------------------------------------------
    # work sharing (ForMethod)
    # ------------------------------------------------------------------
    def for_ranges(self, lo: int, hi: int, tmpl: "ForMethod"):
        """The sub-ranges of ``[lo, hi)`` this line of execution runs.

        Distributed modes first restrict to the rank's partition (aligned
        with a Partitioned field's layout when declared); team modes then
        split among threads.  Replay consumes work-sharing occurrences but
        receives no work.

        Returns an *iterable*; for dynamic/guided schedules it is lazy, so
        chunk grabs interleave with chunk execution — draining the shared
        loop up front would hand all the work to the first-arriving
        thread and defeat the schedule.
        """
        ranges = [(lo, hi)]
        if self.distributed:
            ranges = self._rank_restrict(lo, hi, tmpl)
        if self.team is not None and self.team.in_region():
            # worksharing registers the occurrence eagerly (at call time),
            # which keeps replaying members' counters aligned even though
            # consumption below is lazy.
            shares = [self.team.worksharing(s, e, tmpl.schedule, tmpl.chunk)
                      for s, e in ranges]
            if self.replay_active():
                return []
            import itertools

            return itertools.chain.from_iterable(shares)
        if self.replay_active():
            return []
        return ranges

    def _rank_restrict(self, lo: int, hi: int, tmpl: "ForMethod"
                       ) -> list[tuple[int, int]]:
        from repro.dsm.partition import contiguous_runs, local_slice

        r, p = self.rank, self.nranks
        part = self.partitioned.get(tmpl.align) if tmpl.align else None
        if part is None:
            s, e = local_slice(hi - lo, r, p)
            return [(lo + s, lo + e)] if s < e else []
        layout = part.layout
        arr = getattr(self.instance, tmpl.align)
        n = arr.shape[layout.axis]
        owned = layout.owned(n, r, p)
        owned = owned[(owned >= lo) & (owned < hi)]
        return contiguous_runs(owned)

    # ------------------------------------------------------------------
    # distributed data movement (Scatter / Gather / Halo templates)
    # ------------------------------------------------------------------
    def _part(self, field: str) -> "Partitioned":
        part = self.partitioned.get(field)
        if part is None:
            raise WeaveError(
                f"field {field!r} is not declared Partitioned; Scatter/"
                f"Gather/Halo templates require a Partitioned declaration")
        return part

    def _rank_comm_guarded(self, op: Callable[..., None], *args) -> None:
        """Run a rank-level collective, ``op(*args)``, exactly once per rank.

        Outside a team region the rank thread runs it directly.  Inside a
        hybrid region only the team master performs communication, with
        team barriers fencing it so every thread observes the moved data.
        """
        if self.team is not None and self.team.in_region():
            self.team.barrier()
            if self.team.is_master():
                op(*args)
            self.team.barrier()
        else:
            op(*args)

    def _shared(self, field: str) -> bool:
        """Is ``field`` one physically shared copy across ranks?"""
        return self.caps.shared_fields and field in self.shared_fields

    def _move(self, kind: str, field: str) -> None:
        """One Scatter / Gather / AllGather / Halo movement of ``field``.

        Nothing moves outside distributed execution, nor while replaying
        (the data will come from the snapshot at the restore point).
        Otherwise one of three paths runs once per rank: a shared field
        only synchronises, a slab-backed whole (not for halo) moves
        through its slab, and anything else moves as messages.
        """
        if not self.distributed or self.replay_active():
            return
        part = self._part(field)
        if kind == "halo" and (not isinstance(part.layout, BlockLayout)
                               or part.layout.halo < 1):
            raise WeaveError(
                f"HaloExchange needs BlockLayout(halo>=1) on {field!r}")
        if self._shared(field):
            sync = self._shared_sync
        elif kind != "halo" and field in self.slab_whole:
            sync = self._slab_sync
        else:
            sync = self._message_sync
        self._rank_comm_guarded(sync, kind, field, part)

    def _shared_sync(self, kind: str, field: str, part) -> None:
        """Data movement on a shared field: synchronisation only.

        Every rank reads and writes the same pages (for halo, neighbour
        planes are the same physical pages), so scatter / gather / halo
        reduce to a barrier that orders the writes of the producing
        ranks before the reads of the consuming ones.
        """
        self.rankctx.comm.barrier()
        self.log.emit(kind, vtime=self.rankctx.clock.now,
                      rank=self.rank, field=field, shared=True)

    def _slab_sync(self, kind: str, field: str, part) -> None:
        """Data movement on a slab-backed ``whole_at_safepoints`` field.

        Every member computes into its private scratch array; the shared
        slab carries the committed whole.  One movement is: barrier
        (fences every peer's reads of the previous committed state),
        writers commit — each owner its owned region for gather /
        allgather, the root the whole for scatter — barrier (commits
        landed), readers copy slab into scratch.  Values are
        bit-identical to the message path: the owned regions tile the
        partition axis, so the committed whole equals the
        gathered-then-broadcast whole.
        """
        view = self.slab_whole[field]
        comm = self.rankctx.comm
        arr = getattr(self.instance, field)
        layout = part.layout
        axis = layout.axis
        idx = layout.owned(arr.shape[axis], self.rank, self.nranks)
        sl = (slice(None),) * axis + (idx,)
        comm.barrier()
        if kind == "scatter":
            if self.rank == 0:
                view[...] = arr
        else:
            view[sl] = arr[sl]
        comm.barrier()
        if kind == "allgather":
            arr[...] = view
        elif kind == "gather" and self.rank == 0:
            arr[...] = view
        elif kind == "scatter" and self.rank != 0:
            arr[sl] = view[sl]
        self.log.emit(kind, vtime=self.rankctx.clock.now,
                      rank=self.rank, field=field, slab=True)

    def _message_sync(self, kind: str, field: str, part) -> None:
        """Data movement as messages on the rank fabric, rooted at
        member 0; allgather is gather then broadcast."""
        comm = self.rankctx.comm
        arr = getattr(self.instance, field)
        if kind == "halo":
            exchange_halo(comm, arr, part.layout)
            return
        if kind == "scatter":
            scatter_inplace(comm, arr, part.layout, root=0)
        else:
            gather_inplace(comm, arr, part.layout, root=0)
        if kind == "allgather":
            full = comm.bcast(arr if self.rank == 0 else None, root=0)
            if self.rank != 0:
                arr[...] = full
        self.log.emit(kind, vtime=self.rankctx.clock.now,
                      rank=self.rank, field=field)

    def scatter_field(self, field: str) -> None:
        self._move("scatter", field)

    def gather_field(self, field: str) -> None:
        self._move("gather", field)

    def allgather_field(self, field: str) -> None:
        """Whole-array refresh of a partitioned field on every member."""
        self._move("allgather", field)

    def halo_field(self, field: str) -> None:
        self._move("halo", field)

    def reduce_result(self, value: Any,
                      combine: Callable[[Any, Any], Any] | None) -> Any:
        if not (self.distributed):
            return value
        if self.replay_active():
            return value
        if self.team is not None and self.team.in_region():
            raise WeaveError(
                "ReduceResult inside a hybrid parallel region is not "
                "supported; call the reduced method at rank level")
        return self.rankctx.comm.allreduce(value, op=combine)

    # ------------------------------------------------------------------
    # the safe-point protocol
    # ------------------------------------------------------------------
    def on_safepoint(self) -> None:
        """Pass one safe point (Figure 2 of the paper)."""
        if self.team is not None and self.team.in_region():
            self.team.safepoint(self._team_action)
            return
        # sequential or rank-level safe point
        count = self.counter.increment()
        self.clock().charge_compute(5e-8)
        self._protocol(count)

    def _team_action(self, sp_index: int, team: ThreadTeam) -> bool:
        """Runs once per team passage, all members parked."""
        key = (team.region_gen, sp_index)
        if key > self._last_counted:
            self._last_counted = key
            count = self.counter.increment()
        else:
            count = self.counter.count  # barrier-growth re-run: idempotent
        return self._protocol(count)

    def _protocol(self, count: int) -> bool:
        """Counting done; apply injection, replay, checkpointing, adaptation.

        Returns True if real work happened (the team charges its barrier
        pair only in that case).
        """
        tele = telemetry_writer()
        tr = trace_writer()
        if not tele.active and not tr.active:
            return self._protocol_body(count)
        t0 = perf_counter()
        try:
            return self._protocol_body(count)
        finally:
            # wall-side only; adaptation/failure unwinds still count —
            # they are safe-point passes the world paid for.
            dt = perf_counter() - t0
            if tele.active:
                tele.inc(_ts.SAFEPOINTS)
                tele.inc(_ts.SAFEPOINT_SECONDS, dt)
                tele.observe(_ts.SAFEPOINT_LATENCY, dt)
                tele.clocks(self.clock().now)
            if tr.active:
                tr.span(_tc.SAFEPOINT, t0, a=self.clock().now,
                        b=float(count))

    def _protocol_body(self, count: int) -> bool:
        acted = False
        if self.rank == 0:
            # one timestamped event per safe point: the per-iteration
            # timeline of the paper's Figure 6 is reconstructed from these.
            self.log.emit("safepoint", vtime=self.clock().now, count=count)
        self.injector.check(count, rank=self.rank if self.rankctx else None)
        if self.replay is not None and self.replay.active:
            if self.replay.observe_safepoint(count):
                # restore from the snapshot, or — for an elastic
                # JoinReplay — enter the membership rendezvous.
                self.replay.complete(self, count)
                acted = True
            return acted
        steer_step = None
        if self.steer is not None and self.distributed:
            # external steering (the runtime service's scheduler): rank 0
            # polls the shared control block and the verdict is broadcast
            # *unconditionally* every safe point — conditional polling
            # cannot be made deadlock-free against neighbour-only
            # collectives, a plain consensus bcast trivially is.  Placed
            # after the replay branch, which returns early on every rank
            # symmetrically, so the bcast stays collective.  A resize
            # verdict rides the normal adaptation slot at the *end* of
            # the protocol, exactly like a planned step, so nothing
            # collective runs between the membership switch and the next
            # safe point.
            directive = self.steer.poll(count) if self.rank == 0 else None
            directive = self.rankctx.comm.bcast(directive, root=0)
            if directive is not None:
                op, arg = directive
                if op == "cancel":
                    self.steer.raise_cancelled(count)  # raises, all ranks
                if op == "resize" and arg != self.config.nranks:
                    from dataclasses import replace as _replace

                    steer_step = AdaptStep(
                        at=count, config=_replace(self.config, nranks=arg))
        if self.policy.due(count):
            self.policy.mark_taken(count)
            self._take_checkpoint(count)
            acted = True
        step = self.plan.step_at(count)
        if step is None:
            pending = self.plan.take_pending()
            if pending is not None:
                step = AdaptStep(at=count, config=pending)
        if step is None and self.advisor is not None \
                and self.rankctx is None:
            target = self.advisor.on_safepoint(count, self.clock().now,
                                               self.config)
            if target is not None:
                step = AdaptStep(at=count, config=target)
        if step is None:
            step = steer_step
        if step is not None and step.config != self.config:
            self._adapt(step, count)  # may raise AdaptationExit
            acted = True
        return acted

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def _snapshot(self, count: int, owned: bool) -> tuple[Snapshot, bool]:
        """Build the mode-independent (master-format) snapshot.

        In distributed modes, partitioned fields are first collected at
        member 0 so the snapshot is whole — "collecting the data and
        taking the snapshot at the master process ... mak[es] it possible
        to restart the application on any of the execution modes".
        ``owned`` takes it with :meth:`Snapshot.capture`, otherwise it
        borrows the live fields.  Returns the snapshot and whether shared
        pages are involved: the writer fence has then passed, and the
        caller owes the reader fence once member 0 is done reading.
        """
        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        shared_involved = False
        if self.distributed:
            shared_involved = any(self._shared(f) for f in self.safedata)
            if shared_involved:
                # fence writers: every rank's updates to the shared
                # pages must land before member 0 reads them.
                self.rankctx.comm.barrier()
            for f in self.safedata:
                part = self.partitioned.get(f)
                if part is not None and not part.whole_at_safepoints \
                        and not self._shared(f):
                    gather_inplace(self.rankctx.comm,
                                   getattr(self.instance, f),
                                   part.layout, root=0)
        take = Snapshot.capture if owned else Snapshot.borrow
        snap = take(self.instance, self.safedata, count,
                    mode=self.mode.value, nranks=self.nranks,
                    workers=self.config.workers)
        if tr.active:
            tr.span(_tc.CAPTURE, tw0, a=self.clock().now, b=float(count))
        return snap, shared_involved

    def capture_snapshot(self, count: int) -> Snapshot:
        """The snapshot an adaptation exit carries past its safe point.

        Only member 0's snapshot holds data that outlives the exit, so
        only member 0 copies the fields; the other members borrow theirs
        (``AdaptationExit`` drops them).
        """
        snap, shared_involved = self._snapshot(count, owned=self.rank == 0)
        if shared_involved:
            # fence readers: no rank resumes mutating the shared pages
            # until member 0's copy is done.
            self.rankctx.comm.barrier()
        return snap

    def _take_checkpoint(self, count: int) -> None:
        if self.store is None:
            raise WeaveError("checkpoint due but no CheckpointStore configured")
        if self.ckpt_strategy == STRATEGY_LOCAL and self.distributed:
            self._take_checkpoint_local(count)
            return
        t0 = self.clock().now
        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        # a borrowed snapshot: the store has encoded or copied every byte
        # by the time ``write`` returns, and nothing mutates the fields
        # sooner (member 0 is in the write; peers wait at the fence).
        snap, shared_involved = self._snapshot(count, owned=False)
        if self.rank == 0:
            self.store.write(snap)
        if shared_involved:
            # fence readers: no rank resumes mutating the shared pages
            # until member 0's write has read them.  The charge follows
            # the fence, as it did when the fence preceded the write, so
            # every clock sees the same operations in the same order.
            self.rankctx.comm.barrier()
        if self.rank == 0:
            self._charge_write(self.store.last_write_nbytes)
            tele = telemetry_writer()
            tele.inc(_ts.CKPT_BYTES, float(self.store.last_write_nbytes))
            tele.inc(_ts.CKPT_WRITES)
            self._count_chunk_stats(tele, self.store)
        if tr.active:
            tr.span(_tc.CHECKPOINT, tw0, a=self.clock().now,
                    b=float(count))
        self.log.emit("checkpoint", vtime=self.clock().now, rank=self.rank,
                      count=count, nbytes=snap.nbytes,
                      written=self.store.last_write_nbytes,
                      ckpt_kind=self.store.last_write_kind,
                      asynchronous=self.store.is_async,
                      strategy=self.ckpt_strategy,
                      save_seconds=self.clock().now - t0)

    def _charge_write(self, nbytes: int,
                      store: CheckpointStore | None = None) -> None:
        """Charge one checkpoint write to the calling line of execution.

        Synchronous stores pay the full disk write inline.  With an async
        writer the critical path pays only the in-memory buffer copy; the
        disk time overlaps the compute that follows.  The model mirrors
        the writer's real backpressure — ``depth`` images may be queued
        behind the one in flight, writes are serialised, and a submission
        into a full queue stalls until the earliest pending write lands —
        so ``ckpt_async_depth`` changes modelled cost exactly as it
        changes the real writer's blocking.

        ``store`` selects the store whose write is being charged (a
        per-rank shard store under STRATEGY_LOCAL); default is the master
        store.
        """
        store = store if store is not None else self.store
        clk = self.clock()
        cost = self.machine.disk.write_cost(nbytes)
        if not store.is_async:
            clk.charge_io(cost)
            return
        clk.charge_io(self.machine.disk.copy_cost(nbytes))
        pending = [d for d in self._async_pending if d > clk.now]
        if len(pending) > store.writer.depth:
            clk.charge_io(pending[0] - clk.now)  # queue full: wait one out
            pending = pending[1:]
        start = max(clk.now, pending[-1] if pending else 0.0)
        pending.append(start + cost)
        self._async_pending = pending

    def ckpt_flush_barrier(self) -> None:
        """Make every submitted checkpoint durable, charging the
        non-overlapped remainder of the pending writes.

        Called at the boundaries where recovery may need to read what was
        written: adaptation exits, end of a phase, and (by the runtime,
        without a live clock) after failures.
        """
        if self.store is None or not self.store.is_async:
            return
        clk = self.clock()
        if self._async_pending and self._async_pending[-1] > clk.now:
            clk.charge_io(self._async_pending[-1] - clk.now)
        self._async_pending = []
        self.store.flush()

    def _take_checkpoint_local(self, count: int) -> None:
        """Per-rank shards with the paper's two global barriers.

        Each rank writes through its own shard sub-store
        (:meth:`CheckpointStore.shard`), so shard files get the master
        path's atomic-write discipline and — under a CAS master store —
        the master's shared chunk store.
        """
        assert self.rankctx is not None and self.store is not None
        shard = self.store.shard(self.rank)
        t0 = self.clock().now
        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        self.rankctx.comm.barrier()
        # borrowed: no rank mutates its fields until every shard write
        # has returned and the closing barrier has passed.
        snap = Snapshot.borrow(
            self.instance, self.safedata, count,
            mode=self.mode.value, nranks=self.nranks, shard=self.rank)
        shard.write(snap)
        self._charge_write(shard.last_write_nbytes, store=shard)
        tele = telemetry_writer()
        tele.inc(_ts.CKPT_BYTES, float(shard.last_write_nbytes))
        tele.inc(_ts.CKPT_WRITES)
        self._count_chunk_stats(tele, shard)
        self.rankctx.comm.barrier()
        if tr.active:
            tr.span(_tc.CHECKPOINT_LOCAL, tw0, a=self.clock().now,
                    b=float(count))
        self.log.emit("checkpoint", vtime=self.clock().now, rank=self.rank,
                      count=count, nbytes=snap.nbytes,
                      written=shard.last_write_nbytes,
                      ckpt_kind=shard.last_write_kind,
                      asynchronous=shard.is_async,
                      strategy="local",
                      save_seconds=self.clock().now - t0)

    @staticmethod
    def _count_chunk_stats(tele, store) -> None:
        """Mirror a CAS store's per-write chunk stats into this rank's
        telemetry page (no-op for container stores)."""
        stats = getattr(store, "last_write_stats", None)
        if not stats:
            return
        tele.inc(_ts.CKPT_CHUNKS_NEW, float(stats.get("chunks_new", 0)))
        tele.inc(_ts.CKPT_CHUNKS_DEDUP, float(stats.get("chunks_dedup", 0)))
        tele.inc(_ts.CKPT_DEDUP_SAVED,
                 float(stats.get("dedup_saved_bytes", 0)))

    def _restore(self, snap: Snapshot | None, count: int) -> None:
        """Load checkpoint data at the replay target (Figure 2b, step 4).

        In distributed modes *every* rank participates in the scatter /
        broadcast collectives even though only member 0 holds the snapshot
        (non-root members receive their partitions over the wire).
        """
        t0 = self.clock().now
        tr = trace_writer()
        tw0 = perf_counter() if tr.active else 0.0
        if self.distributed:
            comm = self.rankctx.comm
            if self.rank == 0 and snap is not None:
                if snap.meta.get("from_disk"):
                    self.clock().charge_io(self.machine.disk.read_cost(
                        snap.meta.get("disk_nbytes", snap.nbytes)))
                if snap.meta.get("cas_fetches"):
                    telemetry_writer().inc(
                        _ts.CKPT_FETCHES, float(snap.meta["cas_fetches"]))
                self._restore_into_root(snap)
            for f in self.safedata:
                if self._shared(f):
                    continue  # one shared copy, restored in place above
                part = self.partitioned.get(f)
                if part is not None and not part.whole_at_safepoints:
                    scatter_inplace(comm, getattr(self.instance, f),
                                    part.layout, root=0)
                else:
                    setattr(self.instance, f,
                            comm.bcast(getattr(self.instance, f), root=0))
            if any(self._shared(f) for f in self.safedata):
                # every rank waits for member 0's in-place refresh of the
                # shared pages before touching them again.
                comm.barrier()
        else:
            if snap is None:
                return  # pure call-stack replay: data is already in place
            if snap.meta.get("from_disk"):
                self.clock().charge_io(self.machine.disk.read_cost(
                    snap.meta.get("disk_nbytes", snap.nbytes)))
            if snap.meta.get("cas_fetches"):
                telemetry_writer().inc(
                    _ts.CKPT_FETCHES, float(snap.meta["cas_fetches"]))
            snap.restore_into(self.instance)
        if tr.active:
            tr.span(_tc.RESTORE, tw0, a=self.clock().now, b=float(count))
        self.log.emit("restore", vtime=self.clock().now, rank=self.rank,
                      count=count, nbytes=snap.nbytes if snap else 0,
                      load_seconds=self.clock().now - t0)

    def _restore_into_root(self, snap: Snapshot) -> None:
        """Member 0's restore, keeping shared views bound.

        A shared field's array *object* is the mapping onto the shared
        pages: rebinding it (plain ``restore_into``) would silently
        detach member 0 from its peers, so saved data is copied into the
        existing view instead.
        """
        for name, value in snap.fields.items():
            if self._shared(name):
                getattr(self.instance, name)[...] = value
            else:
                setattr(self.instance, name, value)

    # ------------------------------------------------------------------
    # adaptation
    # ------------------------------------------------------------------
    def _adapt(self, step: AdaptStep, count: int) -> None:
        new = step.config
        cur = self.config
        in_place_ok = not step.via_restart and step.in_place is not False \
            and new.mode == cur.mode \
            and new.backend == cur.backend  # backend switch must relaunch
        live_team_resize = (
            in_place_ok
            and new.nranks == cur.nranks
            and self.caps.team_regions
            and self.team is not None)
        if live_team_resize:
            # run-time protocol, thread dimension: reshape in place.
            from repro.core.adaptation import AdaptationRecord

            self.team.request_resize(new.workers)
            self.config = new
            tr = trace_writer()
            if tr.active:
                tr.instant(_tc.TEAM_RESIZE, a=self.clock().now,
                           b=float(new.workers))
            self.log.emit("adapt_resize", vtime=self.clock().now,
                          count=count, workers=new.workers)
            if self.rank == 0:
                self.reshapes.append(AdaptationRecord(
                    at_count=count, from_config=cur, to_config=new,
                    via_restart=False, vtime=self.clock().now,
                    extra={"in_place": True, "kind": "team_resize"}))
            return
        elastic_rank_reshape = (
            in_place_ok
            and new.nranks != cur.nranks
            and self.caps.elastic_ranks
            and self.reshaper is not None
            and self.rankctx is not None)
        if elastic_rank_reshape and self.reshaper.reshape(self, step, count):
            # membership transition done in place (retiring ranks never
            # reach here: they unwound via RankRetired inside reshape).
            return
        # Reshaping across modes/backends (or an elastic transition the
        # backend declined): unwind and relaunch.
        snap = self.capture_snapshot(count)
        if step.via_restart:
            # checkpoint/restart path: persist, then the relaunch reads
            # the file back (charging disk both ways).
            if self.store is None:
                raise WeaveError("restart-based adaptation needs a store")
            if self.rank == 0:
                self.store.write(snap)
                self._charge_write(self.store.last_write_nbytes)
                # the relaunch reads this file straight back: it must be
                # durable (and its vtime fully paid) before we unwind.
                self.ckpt_flush_barrier()
            snap.meta["from_disk"] = True
        tr = trace_writer()
        if tr.active:
            tr.instant(_tc.ADAPT_EXIT, a=self.clock().now, b=float(count))
        self.log.emit("adapt_exit", vtime=self.clock().now, rank=self.rank,
                      count=count, to=str(new), restart=step.via_restart)
        raise AdaptationExit(snap if self.rank == 0 else None, step)


def clone_policy(policy: CheckpointPolicy) -> CheckpointPolicy:
    """Fresh per-rank copy of a policy (policies hold idempotence state)."""
    return copy.deepcopy(policy)
