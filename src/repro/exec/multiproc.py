"""Multiprocessing execution: real process ranks, shared-memory fields.

The first backend whose ranks actually run in parallel: each rank is a
``multiprocessing`` process (no GIL between ranks), partitioned fields
live in ``multiprocessing.shared_memory`` segments every rank maps
(:mod:`repro.dsm.shm`), and the rank collectives are bridged over
per-rank pipe channels (:mod:`repro.dsm.procmail`) so the whole
``Communicator`` algorithm layer runs unchanged.

What stays in the parent, and why:

* **the checkpoint store** — snapshots are funnelled to the master
  :class:`~repro.ckpt.store.CheckpointStore`
  (:mod:`repro.ckpt.funnel`), so the CAS chunk index and shard
  sub-stores keep their cross-phase state and the
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
(which ranks will report) changes, via rank 0's reshape note.  Relaunch
remains the path for mode/backend switches and recovery.

Collection: every message a rank sends its parent — its final report,
rank 0's reshape notes, a retired rank's event timeline, a sockets
rank's listener address — is a tagged tuple on the launch's one inbox
:class:`~repro.dsm.procmail.Channel`.  The parent blocks in one
``multiprocessing.connection.wait`` over that inbox and the sentinels
of the ranks it still owes a report; its only timeouts are the join
deadline and the peer grace.

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
from multiprocessing.connection import Connection, wait

from repro.ckpt.failure import InjectedFailure
from repro.ckpt.funnel import CheckpointFunnel
from repro.core.errors import AdaptationExit
from repro.core.modes import Capabilities, ExecConfig
from repro.dsm import shm
from repro.dsm.procmail import Channel, Fence, ProcCommunicator
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

#: once one rank reports a failure, how long its peers get to finish
#: reporting before the parent terminates them (a rank-scoped failure
#: leaves peers blocked in a collective that will never complete).
_PEER_GRACE_SECONDS = 3.0

#: marker for ranks the parent terminated as collateral of another
#: rank's failure — never the root cause to raise.
_TERMINATED_FALLOUT = "terminated: a peer rank failed first"


def preferred_start_method() -> str:
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def drain_queues(qs, close: bool = False) -> list:
    """Empty leftover queue/channel traffic so exiting senders can flush
    (an ``mp.Queue`` feeder or a channel flusher is joined at exit);
    returns what was drained.

    ``close`` additionally releases the parent's handles — only safe
    once every worker has been joined — and lets this process exit
    without delivering what no process can read any more.
    """
    left = []
    for q in qs:
        try:
            while True:
                left.append(q.get_nowait())
        except (_queue.Empty, OSError, ValueError):
            pass
        if close:
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
    return left


class MultiprocessBackend(ExecutionBackend):
    """SPMD ranks as processes, partitioned fields in shared memory.

    Honest capabilities: rank collectives yes (bridged over process
    mailboxes), team regions no (a rank is one process, one line of
    execution — pin ``HYBRID`` shapes to the simulated backends
    instead), shared fields yes, elastic ranks yes (parked-process
    membership transitions).

    The fabric is pre-sized from the adaptation plan (a reshape past it
    falls back to relaunch).  Large array payloads — collective traffic
    and funnelled checkpoint snapshots — ride pooled shared-memory slabs
    instead of pickles through the channel pipes (``shm.DataPlane``, at
    ``shm.SHM_THRESHOLD`` bytes and up).  Results, checkpoint bytes and
    virtual time do not depend on the transport: only wall time does.
    """

    name = "multiproc"
    #: worker process name prefix (leak checks key on it).
    proc_prefix = "mp-rank-"

    def __init__(self, start_method: str | None = None,
                 join_timeout: float = 120.0) -> None:
        self.start_method = start_method or preferred_start_method()
        self.join_timeout = join_timeout

    def capabilities(self, config: ExecConfig) -> Capabilities:
        return Capabilities(rank_collectives=True, shared_fields=True,
                            elastic_ranks=True)

    def make_communicator(self, rank: int, nranks: int, machine,
                          wiring: RankWiring, plane, mail_epoch: int
                          ) -> ProcCommunicator:
        """Build one rank's communicator (the transport seam subclasses
        override — the sockets backend returns a topology-routing
        communicator over a hybrid queue/TCP fabric here)."""
        return ProcCommunicator(rank, nranks, machine, wiring.channels,
                                plane=plane, mail_epoch=mail_epoch,
                                fence=wiring.fence)

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

    def _funnel_link(self, funnel: CheckpointFunnel):
        """One rank's checkpoint-funnel link: a pipe here; the sockets
        backend's ranks dial the funnel's TCP listener instead."""
        return funnel.pipe()

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
        return best

    def launch(self, spec: PhaseSpec, services: PhaseServices
               ) -> PhaseOutcome:
        n = spec.config.nranks
        max_ranks = self._fabric_size(spec)
        mpctx = mp.get_context(self.start_method)
        launch_id = shm.new_launch_id()
        channels = [Channel(mpctx) for _ in range(max_ranks)]
        inbox = Channel(mpctx)
        fence = Fence(max_ranks, mpctx)
        funnel = CheckpointFunnel()
        funnel.register("", services.store)
        # the launch's observability segments: created before any fork
        # so every child can attach them by deterministic name.  Regions
        # belong to the segment, not the worker: a dead rank's records
        # survive for the drain-time scrape — the flight recorder's
        # black box.
        planes = self.open_planes(services, max_ranks, launch_id=launch_id)
        env = WorkerEnv.build(spec, services, self, launch_id, max_ranks)
        procs: list = []
        reports: dict = {}
        try:
            for r in range(max_ranks):
                link = self._funnel_link(funnel)
                p = mpctx.Process(target=rank_main,
                                  args=(r, env.for_rank(r),
                                        RankWiring(channels, inbox, link,
                                                   fence)),
                                  daemon=True, name=f"{self.proc_prefix}{r}")
                procs.append(p)
                p.start()
                if isinstance(link, Connection):
                    link.close()  # the rank holds the worker end now
            # serve checkpoints only after all forks: no duplicated thread.
            funnel.start()
            reports, stray_events, active = self._collect(
                procs, inbox, n, channels)
        finally:
            # drain before joining: exiting workers block until their
            # channel flushers flush.  Rank channel leftovers are dead
            # letters once the outcome is decided; the inbox may still
            # carry a retired rank's timeline, sent after the reports.
            late = drain_queues([inbox])
            drain_queues(channels)
            self._stop_parked(procs, channels, reports)
            self._reap(procs)
            funnel.stop()
            drain_queues(channels, close=True)
            late += drain_queues([inbox], close=True)
            # every worker is joined: the drain-time scrape (parked
            # regions included) is race-free, and the segments can go.
            planes.drain(services)
            self._unlink_segments(spec, launch_id, max_ranks)
        stray_events += [ev for m in late if m[0] == "events" for ev in m[2]]
        return self._finish(spec, services, reports, stray_events)

    def _finish(self, spec: PhaseSpec, services: PhaseServices,
                reports: dict, stray_events: list) -> PhaseOutcome:
        """The collected launch's tail: merge the rank timelines, reflect
        an injected failure on the parent, normalise the outcome."""
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
    def _collect(self, procs, inbox: Channel, n0: int, channels
                 ) -> tuple[dict, list, set]:
        """Gather one report per *active* rank; cut stragglers loose on
        failure.

        Inbox kinds: ``("report", rank, status, data, end, events,
        records)``, ``("reshape", count, old_n, new_n)``, ``("events",
        rank, events)`` from a retired rank and ``("address", rank,
        address, n)`` from a sockets rank.  One wait covers the inbox
        and the sentinel of every rank still owed a report.  On each wake the collector notes which of those
        ranks have exited, then drains the inbox: a rank's exit joins
        its channel flusher, so anything it sent is in the pipe before
        its sentinel fires, and an exited rank still without a report
        after that drain died before reporting.

        The active set starts as the launch configuration's ranks and
        follows the reshape notes rank 0 posts before each membership
        switch (the switch fence orders the note before anything the
        new membership sends).  Parked ranks never report; retired
        ranks ship their event timeline when they re-park.  Sockets
        ranks post their listener addresses; once all of a launch's are
        in, the map goes out on every rank channel (no multiprocess rank
        posts one).  Every message also goes to :meth:`_on_message`.
        """
        reports: dict[int, tuple] = {}
        stray_events: list = []
        addresses: dict[int, tuple] = {}
        active = set(range(n0))
        deadline = time.monotonic() + self.join_timeout
        failure_seen_at: float | None = None
        while True:
            missing = [r for r in sorted(active) if r not in reports]
            exited = [r for r in missing if procs[r].exitcode is not None]
            try:
                while True:
                    msg = inbox.get_nowait()
                    if msg[0] == "report":
                        reports[msg[1]] = msg[1:]
                        if msg[2] in (FAILED, ERROR) \
                                and failure_seen_at is None:
                            failure_seen_at = time.monotonic()
                    elif msg[0] == "reshape":
                        active = set(range(msg[3]))
                    elif msg[0] == "events":
                        stray_events.extend(msg[2])
                    elif msg[0] == "address":
                        addresses[msg[1]] = msg[2]
                        if len(addresses) == msg[3]:
                            for r in range(msg[3]):
                                channels[r].put({"kind": "addresses",
                                                 "map": addresses})
                    self._on_message(msg)
            except _queue.Empty:
                pass
            now = time.monotonic()
            for r in exited:
                if r not in reports:
                    reports[r] = (r, ERROR,
                                  f"rank {r} died with exit code "
                                  f"{procs[r].exitcode} before reporting",
                                  None, [], [])
                    if failure_seen_at is None:
                        failure_seen_at = now
            missing = [r for r in sorted(active) if r not in reports]
            if not missing:
                # cross-check against rank 0's authoritative reshape
                # records: a note can still sit in rank 0's channel
                # flusher while the final reports are already in.
                final_n = self._final_membership(reports, n0)
                if len(active) != final_n:
                    active = set(range(final_n))
                    continue
                break
            if failure_seen_at is not None \
                    and now - failure_seen_at > _PEER_GRACE_SECONDS:
                for r in missing:
                    procs[r].terminate()
                    reports[r] = (r, ERROR, _TERMINATED_FALLOUT,
                                  None, [], [])
                break
            if now > deadline:
                for r in missing:
                    procs[r].terminate()
                    reports[r] = (r, ERROR, f"rank {r} hung",
                                  None, [], [])
                break
            until = deadline if failure_seen_at is None else min(
                deadline, failure_seen_at + _PEER_GRACE_SECONDS)
            sentinels = [procs[r].sentinel for r in missing]
            wait([inbox] + [s for s in sentinels if s is not None],
                 timeout=max(0.0, until - now))
        return reports, stray_events, active

    def _on_message(self, msg: tuple) -> None:
        """Hook: every inbox message, after the collector's own handling.
        The base backend pre-parks its whole fabric, so it needs nothing
        here; the service fleet leases workers on a grow note and
        returns them to its pool on their ``"idle"``."""

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
    def _stop_parked(procs, channels, reports: dict) -> None:
        """Release every still-parked process from its control wait.

        A rank that reported is exiting on its own: a put into its
        channel could meet the channel's write lock held by a thread the
        exit killed, and the flusher it would start would never finish.
        """
        for r, p in enumerate(procs):
            if r not in reports and p.is_alive():
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
        plane slabs over the whole rank x slot name grid.  (The observability segments go with their handle's
        ``drain``.)
        """
        plugset = getattr(spec.woven, "__pp_plugs__", None)
        fields = plugset.partitioned_fields() if plugset is not None else {}
        for f in fields:
            shm.unlink_by_name(shm.segment_name(launch_id, f))
        shm.unlink_pool(launch_id, max_ranks)

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
