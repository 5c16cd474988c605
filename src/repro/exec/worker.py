"""The rank side of process execution: the envelope and the rank loop.

What a rank *process* runs, shared by every process substrate — a cold
:class:`~repro.exec.multiproc.MultiprocessBackend` launch and the
sockets backend fork it, the service's warm fleet hands it to workers
that already exist:

* :class:`WorkerEnv` — the one picklable launch envelope, built once
  per launch (once per job in the service) and shipped as process
  arguments or through a control queue;
* :class:`RankWiring` — the process-local plumbing passed *beside* it;
* :func:`rank_main` / :func:`run_rank_segment` — one rank's life:
  active segments interleaved with parked waits on its control
  channel, each phase end reported as data;
* shared-field placement and :class:`ProcessReshaper`, the elastic
  membership protocol over parked processes.

The parent side — forking, report collection, unwind normalisation,
segment unlinking — is :mod:`repro.exec.multiproc`.
"""

from __future__ import annotations

import queue as _queue
from dataclasses import dataclass, replace

import numpy as np

from repro.ckpt.failure import InjectedFailure
from repro.ckpt.funnel import FunnelStore, funnel_shape
from repro.ckpt.replay import ReplayState
from repro.core.adaptation import AdaptStep
from repro.core.errors import AdaptationExit
from repro.dsm import shm
from repro.dsm.comm import RankContext, _bind
from repro.elastic import (
    JoinReplay,
    RankReshaper,
    RankRetired,
    ReshapePlan,
    apply_new_identity,
    execute_moves,
    join_rendezvous,
)
from repro.exec.base import (
    ExecutionBackend,
    LaunchPlanes,
    PhaseServices,
    PhaseSpec,
)
from repro.util.events import EventLog
from repro.vtime.clock import VClock

#: rank report statuses.
COMPLETED = "completed"
ADAPTED = "adapted"
FAILED = "failed"
ERROR = "error"
#: internal segment end: the rank left the membership and re-parked.
RETIRED = "retired"


def portable_woven(woven: type) -> tuple[type, object | None]:
    """Ship a woven class as ``(base, plugset)`` when it is dynamic.

    ``plug`` builds its subclass at run time, which pickles by reference
    only in the process that built it; the base class plus the plug set
    is portable and re-weaves to an identical class in the child.
    """
    base = getattr(woven, "__pp_base__", None)
    if base is None:
        return woven, None
    return base, woven.__pp_plugs__


@dataclass
class WorkerEnv:
    """Everything one launch's ranks need that can cross a process
    boundary (picklable by construction: no queue, no store, no
    registry — those are :class:`RankWiring`)."""

    #: the phase, with the woven class replaced by its importable base
    #: when it is dynamic (``plugs`` then re-weaves it in the worker).
    spec: PhaseSpec
    plugs: object | None
    machine: object
    policy: object
    ckpt_strategy: str
    #: the backend whose rank-side seams (communicator, context, field
    #: placement, unwind classification) this launch runs under.
    backend: ExecutionBackend
    launch_id: str
    max_ranks: int
    #: :func:`~repro.ckpt.funnel.funnel_shape` of the master store —
    #: what the rank's funnel client must mirror.
    funnel: dict
    #: whether the parent opened a metrics plane for this launch.
    telemetry: bool
    #: trace ring capacity of the launch's trace plane; 0 = tracing off.
    trace: int
    #: the service job (and fleet lane) this launch belongs to, if any.
    job: str = ""
    lane: int = 0

    @classmethod
    def build(cls, spec: PhaseSpec, services: PhaseServices,
              backend: ExecutionBackend, launch_id: str, max_ranks: int,
              job: str = "", lane: int = 0) -> "WorkerEnv":
        base, plugs = portable_woven(spec.woven)
        if plugs is not None:
            spec = replace(spec, woven=base)
        return cls(
            spec=spec, plugs=plugs, machine=services.machine,
            policy=services.policy, ckpt_strategy=services.ckpt_strategy,
            backend=backend, launch_id=launch_id, max_ranks=max_ranks,
            funnel=funnel_shape(services.store),
            telemetry=services.metrics is not None,
            trace=services.trace.capacity if services.trace is not None
            else 0,
            job=job, lane=lane)

    def for_rank(self, rank: int) -> "WorkerEnv":
        """The envelope to ship to ``rank``: only member 0 restores
        from the replay snapshot payload (``make_context`` nulls it for
        other ranks anyway), so nobody else is sent it."""
        rep = self.spec.replay
        if rank == 0 or rep is None or rep.snapshot is None:
            return self
        return replace(self, spec=replace(
            self.spec, replay=ReplayState(target=rep.target, snapshot=None)))

    def rebuild_spec(self) -> PhaseSpec:
        if self.plugs is None:
            return self.spec
        from repro.core.rewriter import plug

        return replace(self.spec, woven=plug(self.spec.woven, self.plugs))


@dataclass
class RankWiring:
    """One rank's process-local plumbing, passed beside its envelope."""

    #: the launch's rank channels (mailbox fabric + control directives).
    channels: list
    #: the parent's inbox :class:`~repro.dsm.procmail.Channel`: every
    #: message a rank sends its parent goes here as a tagged tuple (see
    #: ``MultiprocessBackend._collect`` for the kinds).
    inbox: object
    #: the rank's checkpoint-funnel link: a pipe end, or the funnel
    #: listener's ``(host, port)`` (see :class:`FunnelStore`).
    funnel: object
    #: the launch's :class:`~repro.dsm.procmail.Fence`: the barrier of
    #: ranks that share a host.
    fence: object


def place_shared_fields(ctx, instance, comm, launch_id: str,
                        names_of: dict | None = None
                        ) -> tuple[shm.SegmentManager, dict]:
    """Move every partitioned ndarray field into a shared segment.

    Rank 0 allocates and seeds each segment from its constructor-built
    array (the authoritative copy, matching scatter-from-root
    semantics); the metadata broadcast orders creation before any
    attach.  Every rank then rebinds the field to the shared view.
    Returns the manager plus the ``{field: (shape, dtype, kind, name)}``
    metadata (``kind`` is ``"shared"`` or ``"slab"``) —
    the reshape protocol ships the metadata to un-parked joiners, which
    attach the *same* segments (an elastic grow allocates nothing).

    Fields declared ``whole_at_safepoints`` cannot alias one segment
    directly: that declaration means every member re-assembles and then
    computes over the *whole* array each step (replicated whole-array
    writes), which would race on aliased pages.  They get a **commit
    slab** instead (``kind == "slab"`` in the metadata): the instance
    keeps its private scratch array, and a shared whole-size segment
    carries the committed state — gather/allgather write only each
    owner's region into it and read the assembled whole back
    (:meth:`~repro.core.context.ExecutionContext._slab_sync`), so the
    root-funnelled payload bytes and the root->joiner refresh sends on
    reshape both disappear.

    ``names_of`` maps fields to segments that already exist (the
    service arena's capacity-classed leases): rank 0 attaches and seeds
    those instead of allocating launch-named ones.
    """
    if ctx.rank != 0:
        meta = comm.bcast(None, root=0)
        return attach_shared_fields(ctx, instance, meta, launch_id), meta
    manager = shm.SegmentManager(launch_id)
    meta = {}
    names = names_of or {}
    for f, part in sorted(ctx.partitioned.items()):
        arr = getattr(instance, f, None)
        if not isinstance(arr, np.ndarray):
            continue
        name = names.get(f)
        seg = (manager.allocate(f, arr.shape, arr.dtype) if name is None
               else manager.attach(f, arr.shape, arr.dtype, name=name))
        view = seg.ndarray()
        # seed the committed state (every rank's constructor builds the
        # same array; the scatter-from-root convention makes rank 0's
        # copy the authoritative one).
        view[...] = arr
        kind = "slab" if part.whole_at_safepoints else "shared"
        if kind == "shared":
            setattr(instance, f, view)
        meta[f] = (arr.shape, arr.dtype, kind, name)
    if ctx.nranks > 1:
        comm.bcast(meta, root=0)
    _index_segments(ctx, manager, meta)
    return manager, meta


def _index_segments(ctx, manager: shm.SegmentManager, meta: dict) -> None:
    """Point the context at the placed segments, by kind."""
    ctx.shared_fields = {f for f, m in meta.items() if m[2] == "shared"}
    ctx.slab_whole = {f: manager.get(f).ndarray()
                      for f, m in meta.items() if m[2] == "slab"}


def attach_shared_fields(ctx, instance, meta: dict, launch_id: str
                         ) -> shm.SegmentManager:
    """Map the segments rank 0 placed (every other initial member, and
    an un-parked joiner).

    A joiner needs no broadcast: the segment metadata arrived in the
    un-park message, and the segments themselves have existed since the
    launch — this is the pre-sized-segment half of the elastic design.
    """
    manager = shm.SegmentManager(launch_id)
    for f, (shape, dtype, kind, name) in meta.items():
        seg = manager.attach(f, shape, dtype, name=name)
        if kind == "shared":
            setattr(instance, f, seg.ndarray())
    _index_segments(ctx, manager, meta)
    return manager


class ProcessReshaper(RankReshaper):
    """Elastic membership transitions over parked worker processes.

    A grow un-parks pre-forked processes (rank 0 posts the un-park
    control message carrying the replay target, the transition epoch and
    the segment metadata); a shrink sends the retirees back to their
    control channel via :class:`RankRetired`.  The parent learns of the
    membership change through rank 0's note on its inbox — it is
    bookkeeping, not a participant.
    """

    def __init__(self, env: WorkerEnv, wiring: RankWiring, comm) -> None:
        self.max_ranks = env.max_ranks
        self.machine = env.machine
        self.wiring = wiring
        self.comm = comm
        #: {field: (shape, dtype, kind, name)} of the launch's segments;
        #: filled in once fields are placed/attached.
        self.segment_meta: dict = {}

    # ------------------------------------------------------------------
    def reshape(self, ctx, step: AdaptStep, count: int) -> bool:
        new_n = step.config.nranks
        if new_n > self.max_ranks:
            # beyond the pre-sized fabric: every rank computes the same
            # verdict locally, so all fall back to relaunch together.
            return False
        plan = ReshapePlan(ctx.nranks, new_n)
        comm = self.comm
        rank = ctx.rank
        comm.barrier()  # quiesce: all prior collectives drained
        epoch = ctx.rankctx.clock.now
        if rank == 0:
            self.wiring.inbox.put(("reshape", count, plan.old_n, new_n))
            for j in plan.joining:
                self.wiring.channels[j].put({
                    "kind": "unpark", "count": count, "epoch": epoch,
                    "step": step, "old_n": plan.old_n,
                    "segments": self.segment_meta,
                    # the membership epoch the joiner's mailbox must
                    # match: the switch below bumps every survivor to
                    # exactly this value.
                    "mail_epoch": self.comm.mail_epoch + 1})
        # fence: rank 0's note/un-park sends precede every peer's
        # release, so nothing the new membership does can reach the
        # parent before the membership change itself.
        comm.barrier()
        if plan.shrinking:
            # retiring owners push their (non-shared) regions while they
            # still hold endpoints in the old membership.
            execute_moves(ctx, plan, comm)
            comm.barrier()  # regions landed; clocks coupled
            if rank in plan.retiring:
                raise RankRetired(count, rank)
            comm.reshape(new_n)
            apply_new_identity(ctx, step, plan, count, self.machine)
        else:
            comm.reshape(new_n)
            join_rendezvous(ctx, plan, step, count, comm, self.machine)
        return True

    def complete_join(self, ctx, replay: JoinReplay, count: int) -> None:
        join_rendezvous(ctx, replay.plan, replay.step, count, self.comm,
                        self.machine)


def wait_for_control(channel) -> dict:
    """Parked: block on the control channel until a directive arrives.

    Control directives are plain dicts; anything else (a stray late
    collective envelope from an unwound membership) is discarded — dead
    letters by definition once this rank is out of the membership.
    """
    while True:
        try:
            msg = channel.get(timeout=60.0)
        except _queue.Empty:
            continue  # parent still alive (daemon children die with it)
        if isinstance(msg, dict) and "kind" in msg:
            return msg


def run_rank_segment(rank: int, env: WorkerEnv, wiring: RankWiring,
                     store: FunnelStore, log: EventLog,
                     join_payload: dict | None,
                     plane: shm.DataPlane) -> tuple:
    """One active segment of a rank's life: entry to report (or re-park).

    Initial members run the phase entry directly; un-parked joiners run
    it under a :class:`JoinReplay` targeting the transition safe point.
    Returns ``(status, data, end_vtime, records)``.
    """
    spec = env.rebuild_spec()
    machine = env.machine
    backend = env.backend
    services = PhaseServices(
        machine=machine, log=log, store=store,
        policy=env.policy, ckpt_strategy=env.ckpt_strategy, advisor=None)
    if join_payload is None:
        config = spec.config
        clock = VClock(spec.start_vtime + machine.spawn_cost * rank)
    else:
        config = join_payload["step"].config
        # un-parking is the elastic analogue of a spawn: the joiner's
        # clock starts at the transition epoch plus the spawn cost.
        clock = VClock(join_payload["epoch"] + machine.spawn_cost)
    clock.contention = machine.contention_factor(rank, config.nranks)
    mail_epoch = 0 if join_payload is None \
        else join_payload.get("mail_epoch", 0)
    comm = backend.make_communicator(rank, config.nranks, machine,
                                     wiring, plane, mail_epoch)
    rankctx = RankContext(rank=rank, nranks=config.nranks, clock=clock,
                          comm=comm)
    _bind(rankctx)
    manager: shm.SegmentManager | None = None
    instance = None
    ctx = None
    status, data = ERROR, "rank reported nothing"
    try:
        reshaper = ProcessReshaper(env, wiring, comm)
        ctx = backend.make_context(spec, services, rankctx=rankctx,
                                   reshaper=reshaper)
        instance = spec.woven(*spec.ctor_args, **spec.ctor_kwargs)
        if join_payload is None:
            manager, meta = backend.place_fields(ctx, instance, comm,
                                                 env.launch_id)
        else:
            meta = join_payload["segments"]
            manager = attach_shared_fields(ctx, instance, meta,
                                           env.launch_id)
            ctx.config = config
            ctx.replay = JoinReplay(
                join_payload["count"], reshaper,
                ReshapePlan(join_payload["old_n"], config.nranks),
                join_payload["step"])
        reshaper.segment_meta = meta
        if manager is not None:
            # saves ship shared fields as borrowed regions of these.
            store.lend([manager.get(f) for f in sorted(ctx.shared_fields)])
        ctx.bind(instance)
        result = getattr(instance, spec.entry)(*spec.entry_args)
        if rank == 0:
            ctx.ckpt_flush_barrier()
        status, data = COMPLETED, result
    except RankRetired:
        status, data = RETIRED, None
    except AdaptationExit as ae:
        status, data = ADAPTED, (ae.snapshot, ae.new_config)
    except InjectedFailure as fail:
        status, data = FAILED, (fail.safepoint, fail.rank)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        status, data = backend.classify_unwind_report(exc)
    finally:
        _bind(None)
        if ctx is not None:
            ctx.slab_whole = {}
            ctx.unbind()
        if manager is not None:
            store.lend([])
            # release the views so the mappings can close; the instance
            # is dead after this line on every path.
            for f in manager.fields():
                try:
                    setattr(instance, f, None)
                except Exception:  # noqa: BLE001 - cleanup must not mask
                    pass
            manager.close_all()
    records = list(ctx.reshapes) if ctx is not None else []
    return status, data, clock.now, records


def rank_main(rank: int, env: WorkerEnv, wiring: RankWiring,
              plane: shm.DataPlane | None = None,
              repark: bool = True,
              parked: bool | None = None) -> str:
    """One rank's life: active segments interleaved with parked waits.

    Ranks below the launch configuration's count start active; the
    surplus (pre-forked up to ``max_ranks``) park on their control
    channel.  A segment that ends in retirement re-parks — its events
    ship to the parent immediately so no timeline is lost — and a later
    un-park starts the next segment.  Any terminal segment end posts the
    one final report and exits.  Returns how the rank left the phase
    (``"done"`` reported, ``"retired"`` left the membership with
    ``repark=False``, ``"stopped"`` released from park) — process
    entry points ignore it; the service fleet's worker loop keys its
    idle bookkeeping on it.

    The rank's slab pool (its half of the zero-copy data plane) belongs
    to the *process*, not the membership: it is built once here and
    survives park / un-park cycles, so an elastic reshape neither leaks
    nor re-creates slabs.  The parent unlinks the deterministic slab
    name grid in its launch ``finally`` either way.  A caller that
    passes an existing ``plane`` owns its lifetime (the warm fleet
    keeps one per worker process across jobs); ``repark=False`` makes
    retirement *return* instead of parking in-phase, handing the
    process back to that caller.
    """
    if parked is None:
        # the launch path: ranks beyond the launch shape park.  The
        # service fleet overrides this — a worker parked for a regrown
        # rank may carry a rank index *below* the original shape.
        parked = rank >= env.spec.config.nranks
    join_payload: dict | None = None
    log = EventLog()
    own_plane = plane is None
    if own_plane:
        plane = shm.DataPlane(shm.BufferPool(env.launch_id, rank))
    store = FunnelStore(rank, wiring.funnel, job=env.job, **env.funnel)
    store.plane = plane  # snapshot bytes ride the slab pool too
    # map the parent's plane segments and claim this rank's regions.  A
    # rank parked from birth leaves them empty (no writer, no
    # zero-valued series in scrapes) until its first un-park.
    planes = LaunchPlanes(env.max_ranks, env.backend.name, env.telemetry,
                          env.trace, launch_id=env.launch_id)
    if not parked:
        planes.bind(rank)
    try:
        while True:
            if parked:
                ctrl = wait_for_control(wiring.channels[rank])
                if ctrl["kind"] == "stop":
                    return "stopped"  # phase over; parked ranks exit silent
                join_payload = ctrl
                parked = False
                planes.bind(rank)
            status, data, end_vtime, records = run_rank_segment(
                rank, env, wiring, store, log, join_payload, plane)
            if status == RETIRED:
                wiring.inbox.put(("events", rank, list(log)))
                log = EventLog()
                planes.park()
                if not repark:
                    return "retired"
                parked, join_payload = True, None
                continue
            # NB: the communicator is deliberately NOT closed here.  Exit
            # must wait for the channel flushers: a peer may still be
            # draining collective payloads this rank sent (member 0
            # gathers state during a cooperative unwind), and cancelling
            # the flusher join would drop them.  The parent drains
            # leftover channel traffic before joining, so a flushing
            # exit cannot block.
            wiring.inbox.put(
                ("report", rank, status, data, end_vtime, list(log), records))
            return "done"
    finally:
        planes.close()
        if own_plane:
            plane.close()
