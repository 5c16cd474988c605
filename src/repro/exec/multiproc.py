"""Multiprocessing execution: real process ranks, shared-memory fields.

The first backend whose ranks actually run in parallel: each rank is a
``multiprocessing`` process (no GIL between ranks), partitioned fields
live in ``multiprocessing.shared_memory`` segments every rank maps
(:mod:`repro.dsm.shm`), and the rank collectives are bridged over
process-safe mailboxes (:mod:`repro.dsm.procmail`) so the whole
``Communicator`` algorithm layer runs unchanged.

What stays in the parent, and why:

* **the checkpoint store** — snapshots are funnelled to the master
  :class:`~repro.ckpt.store.CheckpointStore`
  (:mod:`repro.ckpt.funnel`), so delta baselines, adaptive anchors and
  shard sub-stores keep their cross-phase state and the
  :class:`~repro.exec.driver.PhaseDriver` restarts/adapts identically
  to every other backend;
* **segment unlinking** — workers create/attach but never unlink; the
  parent removes every segment of the launch in its ``finally``, by
  deterministic name, so a crashed rank cannot leak ``/dev/shm``
  entries;
* **unwind normalisation** — workers report their phase end as data
  (completed / adapted / failed / error), the parent reconstructs the
  most informative cooperative unwind across ranks (the same preference
  order as :class:`~repro.exec.cluster.SimClusterBackend`) and returns
  the one normal-form :class:`~repro.exec.base.PhaseOutcome`.

Elastic ranks (``Capabilities.elastic_ranks``): the launch pre-sizes the
segment set, the mailbox fabric and the process pool for the *maximum*
rank count the adaptation plan can reach, and parks the surplus
processes on their control channels.  A rank-count adaptation is then a
membership transition run by the workers themselves (the protocol in
:mod:`repro.elastic`): a grow un-parks processes — they replay the entry
to the transition safe point and map the existing segments, no fork, no
allocation, no re-scatter (shared partitions need no data movement at
all) — and a shrink parks them again.  Only the parent's bookkeeping
(which ranks will report) changes, via a notify queue.  Relaunch remains
the path for mode/backend switches and recovery.

This module is the parent side; what a rank process runs — the launch
envelope, the rank loop, field placement, the reshaper — is
:mod:`repro.exec.worker`.

Start method: ``fork`` where available (Linux; supports dynamically
woven classes), else ``spawn`` — under ``spawn`` the woven class is
shipped as ``(base class, plug set)`` and re-woven in the child, so the
base class and its constructor arguments must be picklable/importable.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as _queue
import time
import traceback

from repro.ckpt.failure import InjectedFailure
from repro.ckpt.funnel import CheckpointFunnel
from repro.core.errors import AdaptationExit
from repro.core.modes import Capabilities, ExecConfig, Mode
from repro.dsm import shm
from repro.dsm.procmail import ProcCommunicator
from repro.dsm.simcluster import RankFailure
from repro.exec.base import (
    PHASE_COMPLETED,
    ExecutionBackend,
    PhaseOutcome,
    PhaseServices,
    PhaseSpec,
)
from repro.exec.worker import (
    ADAPTED,
    COMPLETED,
    ERROR,
    FAILED,
    RankWiring,
    WorkerEnv,
    place_shared_fields,
    rank_main,
)
from repro.util.events import EventLog
from repro.vtime.machine import (
    PROCESS_RANKS_CALIBRATION,
    PROCESS_RANKS_SHM_CALIBRATION,
)

#: once one rank reports a failure, how long its peers get to finish
#: reporting before the parent terminates them (a rank-scoped failure
#: leaves peers blocked in a collective that will never complete).
_PEER_GRACE_SECONDS = 3.0

#: marker for ranks the parent terminated as collateral of another
#: rank's failure — never the root cause to raise.
_TERMINATED_FALLOUT = "terminated: a peer rank failed first"


def preferred_start_method() -> str:
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def drain_queues(qs, close: bool = False) -> None:
    """Empty leftover queue traffic so exiting feeders can flush.

    ``close`` additionally releases the parent's queue handles — only
    safe once every worker has been joined.
    """
    for q in qs:
        try:
            while True:
                q.get_nowait()
        except (_queue.Empty, OSError, ValueError):
            pass
        if close:
            try:
                q.close()
            except (OSError, ValueError):
                pass


class MultiprocessBackend(ExecutionBackend):
    """SPMD ranks as processes, partitioned fields in shared memory.

    Honest capabilities: rank collectives yes (bridged over process
    mailboxes), team regions no (a rank is one process, one line of
    execution — pin ``HYBRID`` shapes to the simulated backends
    instead), shared fields yes, elastic ranks yes (parked-process
    membership transitions).

    ``max_ranks`` optionally widens the pre-sized elastic fabric beyond
    what the adaptation plan implies (for externally requested grows);
    a reshape past the fabric falls back to relaunch.

    ``data_plane`` (default on) routes large array payloads — collective
    traffic and funnelled checkpoint snapshots — through pooled
    shared-memory slabs instead of pickling them through the queue
    pipes; ``plane_threshold`` overrides the inline/slab crossover
    (bytes).  Results, checkpoint bytes and virtual time are identical
    either way: only the wall-clock transport changes.
    """

    name = "multiproc"
    #: modes this backend can launch when pinned by name (consulted by
    #: ``BackendRegistry.supports`` / the advisor ladder).
    modes = (Mode.DISTRIBUTED,)
    #: worker process name prefix (leak checks key on it).
    proc_prefix = "mp-rank-"

    def __init__(self, start_method: str | None = None,
                 join_timeout: float = 120.0,
                 max_ranks: int | None = None,
                 data_plane: bool = True,
                 plane_threshold: int | None = None) -> None:
        self.start_method = start_method or preferred_start_method()
        self.join_timeout = join_timeout
        self.max_ranks = max_ranks
        self.data_plane = data_plane
        self.plane_threshold = plane_threshold

    def capabilities(self, config: ExecConfig) -> Capabilities:
        return Capabilities(rank_collectives=True, shared_fields=True,
                            elastic_ranks=True)

    def calibrate(self, machine):
        """Fork + transport costs instead of the modelled network.

        This backend's wall-clock behaviour is process creation plus
        message transport on one host: pickling through OS pipes on the
        queue path, slab memcpys with descriptor envelopes on the
        shared-memory data plane.  The advisor ranks reshape against
        relaunch with whichever constants match the configured transport
        (see :data:`repro.vtime.machine.PROCESS_RANKS_CALIBRATION` /
        :data:`repro.vtime.machine.PROCESS_RANKS_SHM_CALIBRATION`);
        calibration never feeds a running phase's virtual clocks.
        """
        constants = (PROCESS_RANKS_SHM_CALIBRATION if self.data_plane
                     else PROCESS_RANKS_CALIBRATION)
        return machine.with_(**constants)

    def make_communicator(self, rank: int, nranks: int, machine,
                          wiring: RankWiring, plane, mail_epoch: int
                          ) -> ProcCommunicator:
        """Build one rank's communicator (the transport seam subclasses
        override — the sockets backend returns a topology-routing
        communicator over a hybrid queue/TCP fabric here)."""
        return ProcCommunicator(rank, nranks, machine, wiring.channels,
                                plane=plane, mail_epoch=mail_epoch)

    def classify_unwind_report(self, exc: BaseException) -> tuple[str, object]:
        """Turn a worker-side unwind that is not one of the built-in
        cooperative signals into a ``(status, data)`` report pair.  The
        base backend knows only wreckage; the service fleet adds its
        cooperative job-cancellation signal here."""
        return ERROR, traceback.format_exc()

    def place_fields(self, ctx, instance, comm, launch_id: str
                     ) -> tuple[shm.SegmentManager | None, dict]:
        """Field-placement seam: this backend aliases partitioned fields
        in shared segments; a multi-node backend keeps them private
        (pages cannot alias across physical nodes) and overrides this
        to a no-op."""
        return place_shared_fields(ctx, instance, comm, launch_id)

    def _make_funnel(self, store, mpctx, max_ranks: int) -> CheckpointFunnel:
        """Checkpoint-funnel seam: queue-based here; the sockets backend
        substitutes the framed-TCP variant riding its transport."""
        return CheckpointFunnel(store, mpctx, max_ranks)

    def _rendezvous_queue(self, mpctx):
        """Launch-scoped address-rendezvous queue wired to every rank
        (``RankWiring.rendezvous``); only the sockets backend has one."""
        return None

    def _after_start(self, spec: PhaseSpec, procs, channels,
                     rendezvous) -> None:
        """Parent-side hook between process start and report collection
        (the sockets backend runs its address rendezvous here)."""

    # ------------------------------------------------------------------
    def _fabric_size(self, spec: PhaseSpec) -> int:
        """Ranks to pre-fork: the launch shape plus every in-place
        rank count the plan can reshape to on this backend."""
        best = spec.config.nranks
        for s in spec.plan.steps:
            c = s.config
            if (c.mode is spec.config.mode and c.backend == spec.config.backend
                    and not s.via_restart and s.in_place is not False):
                best = max(best, c.nranks)
        if self.max_ranks is not None:
            best = max(best, self.max_ranks)
        return best

    def launch(self, spec: PhaseSpec, services: PhaseServices
               ) -> PhaseOutcome:
        n = spec.config.nranks
        max_ranks = self._fabric_size(spec)
        mpctx = mp.get_context(self.start_method)
        launch_id = shm.new_launch_id()
        channels = [mpctx.Queue() for _ in range(max_ranks)]
        result_queue = mpctx.Queue()
        notify_queue = mpctx.Queue()
        funnel = self._make_funnel(services.store, mpctx, max_ranks)
        rendezvous = self._rendezvous_queue(mpctx)
        # the launch's observability segments: created before any fork
        # so every child can attach them by deterministic name.  Regions
        # belong to the segment, not the worker: a dead rank's records
        # survive for the drain-time scrape — the flight recorder's
        # black box.
        planes = self.open_planes(services, max_ranks, launch_id=launch_id)
        env = WorkerEnv.build(spec, services, self, launch_id, max_ranks)
        procs: list = []
        try:
            for r in range(max_ranks):
                wiring = RankWiring(channels, result_queue, notify_queue,
                                    funnel.client(r), rendezvous)
                p = mpctx.Process(target=rank_main,
                                  args=(r, env.for_rank(r), wiring),
                                  daemon=True, name=f"{self.proc_prefix}{r}")
                procs.append(p)
                p.start()
            # serve checkpoints only after all forks: no duplicated thread.
            funnel.start()
            self._after_start(spec, procs, channels, rendezvous)
            reports, stray_events, active = self._collect(
                procs, result_queue, notify_queue, n)
        finally:
            # drain before joining: exiting workers block until their
            # queue feeders flush, and nothing reads the rank channels
            # any more once the phase outcome is decided.
            drain_queues(channels + [notify_queue])
            self._stop_parked(procs, channels)
            self._reap(procs)
            funnel.stop()
            drain_queues(channels + [result_queue, notify_queue], close=True)
            # every worker is joined: the drain-time scrape (parked
            # regions included) is race-free, and the segments can go.
            planes.drain(services)
            self._unlink_segments(spec, launch_id, max_ranks)
        self._merge_events(services.log, reports, stray_events)
        end = max([spec.start_vtime]
                  + [rep[3] for rep in reports.values() if rep[3] is not None])
        if any(rep[1] == FAILED for rep in reports.values()):
            # workers fired their own *copies* of the injector; reflect
            # it on the parent's so recovery does not re-inject forever.
            # Keyed off the reports, not the outcome: a concurrent
            # adaptation may outrank the failure, but the injection
            # still happened (thread backends share the injector object
            # and remember it the same way).
            spec.injector.mark_fired()
        return self._outcome(reports, end)

    # ------------------------------------------------------------------
    def _collect(self, procs, result_queue, notify_queue, n0: int
                 ) -> tuple[dict, list, set]:
        """Gather one report per *active* rank; cut stragglers loose on
        failure.

        The active set starts as the launch configuration's ranks and
        follows the reshape notifications rank 0 posts before each
        membership switch (the switch fence orders the notification
        before anything the new membership sends).  Parked ranks never
        report; retired ranks ship their event timeline through the
        notify queue when they re-park.
        """
        reports: dict[int, tuple] = {}
        stray_events: list = []
        active = set(range(n0))
        deadline = time.monotonic() + self.join_timeout
        failure_seen_at: float | None = None

        def _drain_notify() -> None:
            nonlocal active
            try:
                while True:
                    note = notify_queue.get_nowait()
                    if note[0] == "reshape":
                        active = set(range(note[3]))
                        self._on_reshape(note)
                    elif note[0] == "events":
                        stray_events.extend(note[2])
            except _queue.Empty:
                pass

        while True:
            _drain_notify()
            missing = [r for r in sorted(active) if r not in reports]
            if not missing:
                # cross-check against rank 0's authoritative reshape
                # records: a notify could in principle still be in a
                # queue feeder while the final reports are already in.
                final_n = self._final_membership(reports, n0)
                if len(active) != final_n:
                    active = set(range(final_n))
                    continue
                break
            try:
                rep = result_queue.get(timeout=0.05)
                reports[rep[0]] = rep
                if rep[1] in (FAILED, ERROR) and failure_seen_at is None:
                    failure_seen_at = time.monotonic()
                continue
            except _queue.Empty:
                pass
            now = time.monotonic()
            dead = [r for r in sorted(active)
                    if r not in reports and not procs[r].is_alive()
                    and procs[r].exitcode is not None]
            if dead:
                # a rank can flush its report and exit between the poll
                # above and the liveness scan: drain once more before
                # declaring anyone dead-without-reporting.
                try:
                    while True:
                        rep = result_queue.get_nowait()
                        reports[rep[0]] = rep
                        if rep[1] in (FAILED, ERROR) \
                                and failure_seen_at is None:
                            failure_seen_at = now
                except _queue.Empty:
                    pass
            for r in dead:
                if r not in reports:
                    p = procs[r]
                    reports[r] = (r, ERROR,
                                  f"rank {r} died with exit code "
                                  f"{p.exitcode} before reporting",
                                  None, [], [])
                    if failure_seen_at is None:
                        failure_seen_at = now
            if failure_seen_at is not None \
                    and now - failure_seen_at > _PEER_GRACE_SECONDS:
                for r in sorted(active):
                    if r not in reports:
                        procs[r].terminate()
                        reports[r] = (r, ERROR, _TERMINATED_FALLOUT,
                                      None, [], [])
                break
            if now > deadline:
                for r in sorted(active):
                    if r not in reports:
                        procs[r].terminate()
                        reports[r] = (r, ERROR, f"rank {r} hung",
                                      None, [], [])
                break
        return reports, stray_events, active

    def _on_reshape(self, note: tuple) -> None:
        """Membership-change hook: called from report collection on each
        ``("reshape", count, old_n, new_n)`` notification rank 0 posts
        before a membership switch.  The base backend pre-parks its
        whole fabric at launch so nothing is needed; the service fleet
        overrides this to park idle workers on the lanes a grow is
        about to un-park."""

    @staticmethod
    def _final_membership(reports: dict, n0: int) -> int:
        """The rank count after rank 0's last recorded rank reshape."""
        rep = reports.get(0)
        if rep is None or len(rep) < 6:
            return n0
        resh = [r for r in rep[5]
                if r.extra.get("kind") == "rank_reshape"]
        return resh[-1].to_config.nranks if resh else n0

    @staticmethod
    def _stop_parked(procs, channels) -> None:
        """Release every still-parked process from its control wait."""
        for r, p in enumerate(procs):
            if p.is_alive():
                try:
                    channels[r].put({"kind": "stop"})
                except (OSError, ValueError):
                    pass

    @staticmethod
    def _reap(procs) -> None:
        started = [p for p in procs if p.pid is not None]
        for p in started:
            p.join(timeout=10.0)
        for p in started:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for p in started:
            try:
                p.close()
            except ValueError:  # refused to die; leave it to daemon fate
                pass

    @staticmethod
    def _unlink_segments(spec: PhaseSpec, launch_id: str,
                         max_ranks: int) -> None:
        """Remove every data segment this launch can have created.

        Deterministic names make this independent of worker reports, so
        it covers crashed ranks too: field segments by field name, data
        plane slabs and symmetric heaps over the whole rank x slot name
        grid.  (The observability segments go with their handle's
        ``drain``.)
        """
        plugset = getattr(spec.woven, "__pp_plugs__", None)
        fields = plugset.partitioned_fields() if plugset is not None else {}
        for f in fields:
            shm.unlink_by_name(shm.segment_name(launch_id, f))
        shm.unlink_pool(launch_id, max_ranks)
        shm.unlink_heaps(launch_id, max_ranks)

    @staticmethod
    def _merge_events(log: EventLog, reports: dict, stray: list) -> None:
        """Interleave every rank's event stream into the runtime log by
        virtual time (stable, so intra-rank order is preserved).
        ``stray`` carries the timelines retired ranks shipped when they
        re-parked.  Absorbed, not re-emitted: the children's wall/seq
        stamps are the recoverable cross-rank ordering — restamping
        parent-side would destroy it."""
        streams = [ev for rep in reports.values() for ev in rep[4]]
        merged = sorted(streams + list(stray), key=lambda ev: ev.vtime)
        for ev in merged:
            log.absorb(ev)

    # ------------------------------------------------------------------
    def _outcome(self, reports: dict, end: float) -> PhaseOutcome:
        """The most informative phase end across ranks, normalised.

        Preference order matches the simulated cluster: an adaptation
        carrying the snapshot beats one without, which beats an injected
        failure; anything else is genuine wreckage and raises.
        """
        reshapes = []
        if 0 in reports and len(reports[0]) >= 6:
            reshapes = list(reports[0][5])
        by_status: dict[str, list] = {}
        for r in sorted(reports):
            rep = reports[r]
            by_status.setdefault(rep[1], []).append(rep)
        if len(by_status) == 1 and COMPLETED in by_status:
            value = reports[0][2] if 0 in reports else None
            return PhaseOutcome(PHASE_COMPLETED, end, value=value,
                                reshapes=reshapes)
        adapted = by_status.get(ADAPTED, [])
        with_snap = [rep for rep in adapted if rep[2][0] is not None]
        pick = with_snap[0] if with_snap else (adapted[0] if adapted else None)
        if pick is not None:
            snapshot, step = pick[2]
            exc: BaseException = AdaptationExit(snapshot, step)
        elif FAILED in by_status:
            safepoint, rank = by_status[FAILED][0][2]
            exc = InjectedFailure(safepoint, rank)
        else:
            errors = by_status[ERROR]
            # prefer the root cause over the shutdown fallout of peers
            # the parent terminated because of it.
            root = [rep for rep in errors if rep[2] != _TERMINATED_FALLOUT]
            first = root[0] if root else errors[0]
            raise RankFailure(first[0], RuntimeError(first[2]))
        out = self.normalise_unwind(exc, end)
        assert out is not None
        out.reshapes = reshapes
        return out
