"""Malleable thread team: parallel regions, work sharing, safe points.

Execution model (paper Section III.B + IV.B):

* ``run_region(fn, ...)`` — the *parallel method*: the calling (master)
  thread becomes team member 0 and ``active-1`` extra threads are spawned;
  every member executes ``fn``; an implicit barrier joins the region.
* ``worksharing(lo, hi)`` — the ``for`` construct: yields this member's
  chunks of the iteration space (static / dynamic / guided schedules).
* ``safepoint(action)`` — region safe points.  Every present member
  rendezvous at an adaptive barrier; the last arriver applies pending team
  operations (resize requests, checkpoints, failure injections) while the
  team is parked.  Virtual time charged is only the safe-point counting
  cost unless an operation actually runs — matching the paper's claim that
  checkpoint-enabled runs pay ≈ the cost of counting safe points.

Malleability:

* **growth** — new members are spawned in *replay* mode: they re-execute
  the region body skipping work shares, barriers and single blocks,
  counting region safe points, and go live when they reach the count at
  which the team is parked (the paper's replay of the parallel region to
  rebuild each new thread's call stack).  The team waits for them, so the
  replay time is honestly charged to the adaptation.
* **shrink** — surplus members are *retired*: they keep executing the
  region but receive empty work shares until they fall off the region's
  end ("executing methods with empty operations until the thread gets to
  the end of the parallel region").

Lockstep requirement (documented, same spirit as OpenMP's rules for
work-sharing constructs): all live members must encounter the same region
safe points, work-sharing constructs and barriers in the same order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.smp.barrier import AdaptiveBarrier, BrokenTeamBarrier
from repro.smp.sched import Schedule, SharedLoop, iter_chunks, static_slice
from repro.smp.sync import SingleArbiter
from repro.util.events import EventLog
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel

#: virtual cost of counting one safe point (a counter increment + compare).
SAFEPOINT_COUNT_COST = 5e-8


class TeamError(RuntimeError):
    pass


_tl = threading.local()


def current_worker() -> "Worker | None":
    """The team member bound to the calling thread, or None."""
    return getattr(_tl, "worker", None)


@dataclass
class Worker:
    """One team member."""

    tid: int
    clock: VClock
    live: bool = True        # receives work shares
    replaying: bool = False  # rebuilding its call stack
    replay_target: int = -1  # region safe-point count at which to go live
    region_sp: int = 0       # region safe points this member has passed
    ws_seq: int = 0          # work-sharing occurrences encountered
    thread: threading.Thread | None = None


@dataclass
class RegionState:
    """Shared state of one parallel-region execution."""

    fn: Callable
    args: tuple
    kwargs: dict
    loops: dict[int, SharedLoop] = field(default_factory=dict)
    loops_lock: threading.Lock = field(default_factory=threading.Lock)
    single: SingleArbiter = field(default_factory=SingleArbiter)


# ---------------------------------------------------------------------------
# team operations queued for application at safe points
# ---------------------------------------------------------------------------
@dataclass
class ResizeOp:
    """Change the number of live members to ``target``."""

    target: int


@dataclass
class CallbackOp:
    """Run ``fn(team)`` while the team is parked (checkpoint, injection)."""

    fn: Callable[["ThreadTeam"], None]
    label: str = "callback"


class ThreadTeam:
    """A malleable team of threads bound to one :class:`MachineModel`."""

    def __init__(self, machine: MachineModel | None = None, size: int = 1,
                 log: EventLog | None = None) -> None:
        if size < 1:
            raise ValueError("team size must be >= 1")
        self.machine = machine if machine is not None else MachineModel()
        self.log = log if log is not None else EventLog()
        #: clock carrying virtual time across regions (master's timeline).
        self.clock = VClock()
        self._active_target = size  # live size for the next region
        self._workers: list[Worker] = []
        self._region: RegionState | None = None
        self._barrier: AdaptiveBarrier | None = None
        self._requests: list[ResizeOp | CallbackOp] = []
        self._req_lock = threading.Lock()
        self._pending_flag = False  # fast-path check, CPython-atomic read
        self._errors: list[BaseException] = []
        self._next_tid = 0
        self._epoch = 0.0
        self._region_return: Any = None
        #: increments at every region entry; lets per-region bookkeeping
        #: (e.g. the context's safe-point dedup) detect region boundaries.
        self.region_gen = 0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def active_size(self) -> int:
        if self._region is None:
            return self._active_target
        return sum(1 for w in self._workers if w.live)

    @property
    def present_size(self) -> int:
        return len(self._workers) if self._region is not None else 0

    def in_region(self) -> bool:
        return self._region is not None

    def live_workers(self) -> list[Worker]:
        return sorted((w for w in self._workers if w.live), key=lambda w: w.tid)

    def live_rank(self, w: Worker) -> int:
        """Position of ``w`` among live members (work-sharing index)."""
        return self.live_workers().index(w)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Join every spawned worker thread; best-effort and idempotent.

        Execution backends own the team's lifecycle: they create it at
        phase launch and call this in their ``finally``, so an unwind
        (adaptation exit, failure, relaunch) can never leak parked or
        replaying workers across phases.  ``run_region`` already joins
        its workers on normal and error paths; this is the backstop that
        makes the guarantee hold for *every* exit route — aborting an
        in-flight barrier first so blocked members can unwind.

        Never raises: it runs inside backend ``finally`` blocks, where an
        exception would mask the phase's real outcome.  A worker that
        outlives the join budget (e.g. parked on slow external I/O) is
        reported via a ``team_shutdown_timeout`` event and left to its
        daemon fate instead.
        """
        b = self._barrier
        if b is not None:
            b.abort()
        for _ in range(3):
            pending = [w.thread for w in self._workers
                       if w.thread is not None and w.thread.is_alive()]
            if not pending:
                return
            for th in pending:
                th.join(timeout=5.0)
        leftover = [w.thread.name for w in self._workers
                    if w.thread is not None and w.thread.is_alive()]
        if leftover:
            self.log.emit("team_shutdown_timeout", vtime=self.clock.now,
                          workers=leftover)

    # ------------------------------------------------------------------
    # requests (thread-safe, may be called from any thread at any time)
    # ------------------------------------------------------------------
    def request(self, op: ResizeOp | CallbackOp) -> None:
        with self._req_lock:
            self._requests.append(op)
            self._pending_flag = True

    def request_resize(self, target: int) -> None:
        if target < 1:
            raise ValueError("team target size must be >= 1")
        self.request(ResizeOp(target))

    def _drain_requests(self) -> list[ResizeOp | CallbackOp]:
        with self._req_lock:
            ops, self._requests = self._requests, []
            self._pending_flag = False
            return ops

    # ------------------------------------------------------------------
    # parallel region execution
    # ------------------------------------------------------------------
    def run_region(self, fn: Callable, /, *args: Any, **kwargs: Any) -> Any:
        """Execute ``fn`` as a parallel region; returns master's result."""
        if self._region is not None:
            raise TeamError("nested parallel regions are not supported")
        if current_worker() is not None:
            raise TeamError("run_region must be called by the master thread")

        # apply resizes requested between regions
        for op in self._drain_requests():
            if isinstance(op, ResizeOp):
                self._active_target = op.target
            else:
                op.fn(self)

        size = self._active_target
        region = RegionState(fn, tuple(args), dict(kwargs))
        self._errors = []
        self._next_tid = size
        t0 = self.clock.now
        workers = [Worker(tid=i, clock=VClock(t0 + self.machine.spawn_cost * i))
                   for i in range(size)]
        for i, w in enumerate(workers):
            w.clock.contention = self.machine.thread_contention_factor(i, size)
        self._workers = workers
        self._barrier = AdaptiveBarrier(size)
        self._region = region
        self._epoch = t0
        self.region_gen += 1
        self.log.emit("region_start", vtime=t0, size=size)

        master = workers[0]
        threads = []
        for w in workers[1:]:
            th = threading.Thread(target=self._worker_main, args=(w, region),
                                  daemon=True, name=f"team-w{w.tid}")
            w.thread = th
            threads.append(th)
            th.start()

        _tl.worker = master
        master_exc: BaseException | None = None
        try:
            self._region_return = region.fn(*region.args, **region.kwargs)
        except BaseException as exc:  # noqa: BLE001 - must not deadlock team
            master_exc = exc
            self._barrier.abort()
        finally:
            _tl.worker = None
            # wait for every spawned thread, including replayers added later
            while True:
                pending = [w.thread for w in self._workers
                           if w.thread is not None and w.thread.is_alive()]
                if not pending:
                    break
                for th in pending:
                    th.join(timeout=60.0)
                    if th.is_alive():
                        self._barrier.abort()
                        raise TeamError(f"worker {th.name} did not finish")
            end = VClock.sync_max(
                [w.clock for w in self._workers],
                extra=self.machine.barrier_cost(len(self._workers)))
            self.clock.advance_to(end)
            self._active_target = max(1, sum(1 for w in self._workers if w.live))
            self._workers = []
            self._region = None
            self._barrier = None
            self.log.emit("region_end", vtime=end, size=self._active_target)

        # Prefer a real error over the broken-barrier fallout it caused.
        # The chosen error's traceback holds this frame: no local may
        # still point at an error once it is raised (a reference cycle).
        errors, self._errors = self._errors, []
        if master_exc is not None:
            errors.insert(0, master_exc)
            master_exc = None
        real = [e for e in errors if not isinstance(e, BrokenTeamBarrier)]
        try:
            if real or errors:
                raise (real or errors)[0]
        finally:
            errors = real = None
        return self._region_return

    def _worker_main(self, w: Worker, region: RegionState) -> None:
        _tl.worker = w
        try:
            region.fn(*region.args, **region.kwargs)
        except BaseException as exc:  # noqa: BLE001
            self._errors.append(exc)
            if self._barrier is not None:
                self._barrier.abort()
        finally:
            _tl.worker = None

    # ------------------------------------------------------------------
    # in-region constructs (called from woven code)
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Explicit team barrier (the Barrier template)."""
        w = current_worker()
        if w is None or self._region is None:
            return  # sequential context: barrier is a no-op
        if w.replaying:
            return
        b = self._barrier
        assert b is not None

        def _sync() -> None:
            self._epoch = VClock.sync_max(
                [x.clock for x in self._workers],
                extra=self.machine.barrier_cost(len(self._workers)))

        b.wait(action_override=_sync)
        w.clock.advance_to(self._epoch)

    def worksharing(self, lo: int, hi: int,
                    schedule: Schedule = Schedule.STATIC,
                    chunk: int = 1) -> Iterable[tuple[int, int]]:
        """This member's ``(start, stop)`` chunks of ``[lo, hi)``.

        Eager: the work-sharing occurrence is registered at *call* time
        (not first iteration), so replay code can keep its occurrence
        counter aligned simply by calling and discarding the result.
        """
        w = current_worker()
        if w is None or self._region is None:
            return [(lo, hi)]  # sequential: the whole range
        seq = w.ws_seq
        w.ws_seq += 1
        if w.replaying or not w.live:
            return []  # replayers and retirees get empty shares
        live = self.live_workers()
        nlive = len(live)
        rank = live.index(w)
        if schedule is Schedule.STATIC:
            s, e = static_slice(lo, hi, rank, nlive)
            return [(s, e)] if s < e else []
        with self._region.loops_lock:
            loop = self._region.loops.get(seq)
            if loop is None or loop.lo != lo or loop.hi != hi:
                loop = SharedLoop(lo, hi, schedule, chunk, nlive)
                self._region.loops[seq] = loop
        # register eagerly (at call time): grabs gate on every live
        # member's virtual clock, so chunk handout follows modelled
        # time, not host-thread racing.
        loop.register(w.clock)
        return iter_chunks(loop, w.clock)

    def single_claim(self, key: str) -> bool:
        """True iff the caller executes this occurrence of a single block."""
        w = current_worker()
        if w is None or self._region is None:
            return True
        seq = w.ws_seq
        w.ws_seq += 1
        if w.replaying or not w.live:
            return False
        return self._region.single.claim(key, seq, w.tid)

    def is_master(self) -> bool:
        w = current_worker()
        if w is None or self._region is None:
            return True
        return w.live and not w.replaying and self.live_rank(w) == 0

    # ------------------------------------------------------------------
    # safe points
    # ------------------------------------------------------------------
    def safepoint(self, action: Callable[[int, "ThreadTeam"], None] | None = None
                  ) -> None:
        """Pass a safe point.

        ``action(sp_index, team)`` is run exactly once per team passage
        while every present member is parked (used by the checkpoint
        manager); it must be idempotent in ``sp_index`` because barrier
        growth can re-run the parked-team action.
        """
        w = current_worker()
        if w is None or self._region is None:
            # Sequential safe point: no rendezvous needed.
            self.clock.charge_compute(SAFEPOINT_COUNT_COST)
            for op in self._drain_requests():
                if isinstance(op, ResizeOp):
                    self._active_target = op.target
                else:
                    op.fn(self)
            if action is not None:
                action(-1, self)
            return

        w.region_sp += 1
        if w.replaying:
            if w.region_sp < w.replay_target:
                return
            w.replaying = False  # go live and join the parked generation
        b = self._barrier
        assert b is not None

        def _sp_action() -> None:
            self._sp_barrier_action(w.region_sp, action)

        b.wait(action_override=_sp_action)
        w.clock.advance_to(self._epoch)

    def _sp_barrier_action(self, sp_index: int,
                           action: Callable[[int, "ThreadTeam"], None] | None
                           ) -> None:
        """Runs with all present members parked (last arriver context)."""
        clocks = [x.clock for x in self._workers]
        self._epoch = VClock.sync_max(clocks, extra=SAFEPOINT_COUNT_COST)
        # action first: it may itself enqueue a resize (adaptation plans),
        # which must then apply at *this* safe point, and checkpoints must
        # capture the pre-reshape state.
        acted = bool(action(sp_index, self)) if action is not None else False
        ops = self._drain_requests()
        grew = False
        for op in ops:
            if isinstance(op, ResizeOp):
                grew |= self._apply_resize_locked(op.target, sp_index)
            else:
                op.fn(self)
        if ops or acted:
            # data was saved / team reshaped: charge the barrier pair the
            # paper inserts around an actual checkpoint or adaptation.
            extra = 2 * self.machine.barrier_cost(len(self._workers))
            self._epoch = VClock.sync_max(clocks, extra=extra)
        # Align work-sharing occurrence counters across live members.
        # Replay skips ignorable methods, so a freshly joined member's
        # counter lags the team's by however many constructs the skipped
        # bodies contained; parked at a common safe point, the live team's
        # maximum is the true occurrence number.
        live = [w for w in self._workers if w.live and not w.replaying]
        if live:
            mx = max(w.ws_seq for w in live)
            for w in live:
                w.ws_seq = mx
        if grew:
            # replayers were spawned; the generation stays open until they
            # arrive -- the final (newcomer) action recomputes the epoch.
            pass

    def _apply_resize_locked(self, target: int, sp_index: int) -> bool:
        """Apply a resize while the team is parked.  Returns True if grown."""
        live = self.live_workers()
        nlive = len(live)
        if target == nlive:
            return False
        if target < nlive:
            for w in live[target:]:
                w.live = False
            for i, w in enumerate(self.live_workers()):
                w.clock.contention = self.machine.thread_contention_factor(i, target)
            self.log.emit("team_shrink", vtime=self._epoch,
                          size=target, was=nlive)
            return False
        # growth: prefer re-activating retirees, then spawn replayers
        want = target - nlive
        retirees = sorted((w for w in self._workers if not w.live),
                          key=lambda w: w.tid)
        # Retirees cannot simply be re-activated mid-region (their work-
        # sharing counters moved on), so we only spawn fresh replayers.
        del retirees
        region = self._region
        assert region is not None and self._barrier is not None
        for _ in range(want):
            tid = self._next_tid
            self._next_tid += 1
            nw = Worker(tid=tid,
                        clock=VClock(self._epoch + self.machine.spawn_cost),
                        replaying=True, replay_target=sp_index)
            self._workers.append(nw)
            self._barrier.add_party()
            th = threading.Thread(target=self._worker_main, args=(nw, region),
                                  daemon=True, name=f"team-w{tid}")
            nw.thread = th
            th.start()
        for i, w in enumerate(self.live_workers()):
            w.clock.contention = self.machine.thread_contention_factor(i, target)
        self.log.emit("team_grow", vtime=self._epoch, size=target, was=nlive)
        return True
