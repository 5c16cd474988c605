"""SimCluster: SPMD launcher over rank threads with virtual clocks.

``SimCluster(nranks, machine).run(entry, *args)`` starts ``nranks`` threads
each executing ``entry(*args)`` with a bound :class:`RankContext`
(reachable via :func:`repro.dsm.comm.current_rank`), and returns the list
of per-rank results.

Virtual-time placement: rank ``r`` sits on core ``machine.core_of(r)``;
when more ranks than cores are launched (over-decomposition), each rank's
clock gets a compute *contention* multiplier — co-located ranks time-slice
their core — and every barrier charges the context-switch epoch cost.
This is the substrate for the paper's Figure 8.

Failures: any exception in a rank tears the cluster down (mailboxes close,
waiting ranks unblock) and is re-raised as :class:`RankFailure` carrying
the original exception, unless it already is one.

Elasticity: the cluster can add/retire simulated nodes mid-run through
:meth:`SimCluster.switch` — the membership half of the elastic reshape
protocol (:mod:`repro.elastic`).  All current ranks park in a barrier;
the last arriver folds every clock into the transition epoch and then
grows the cluster (fresh rank threads spawned replaying to the safe
point, mailboxes and a wider barrier admitted) or shrinks it (retiree
mailboxes closed, clocks dropped after being folded into the epoch).
:meth:`run` joins rank threads dynamically, so joiners spawned after
launch are reaped exactly like the original ranks.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.dsm.comm import Communicator, RankContext, _bind
from repro.dsm.mailbox import MailboxClosed
from repro.smp.barrier import BrokenTeamBarrier
from repro.util.events import EventLog
from repro.vtime.clock import VClock
from repro.vtime.machine import MachineModel


class RankFailure(RuntimeError):
    """A rank raised; carries the rank id and the original exception."""

    def __init__(self, rank: int, cause: BaseException) -> None:
        super().__init__(f"rank {rank} failed: {cause!r}")
        self.rank = rank
        self.cause = cause


class SimCluster:
    """An SPMD run over ``nranks`` simulated processes."""

    def __init__(self, nranks: int, machine: MachineModel | None = None,
                 log: EventLog | None = None,
                 start_time: float = 0.0) -> None:
        if nranks < 1:
            raise ValueError("need at least one rank")
        self.nranks = nranks
        self.machine = machine if machine is not None else MachineModel()
        self.log = log if log is not None else EventLog()
        self.clocks = [VClock(start_time + self.machine.spawn_cost * r)
                       for r in range(nranks)]
        for r, c in enumerate(self.clocks):
            c.contention = self.machine.contention_factor(r, nranks)
        self.comm = Communicator(nranks, self.machine, self.clocks)
        self._results: list[Any] = [None] * nranks
        self._errors: list[RankFailure] = []
        self._err_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._switch_epoch = start_time

    # ------------------------------------------------------------------
    def run(self, entry: Callable[..., Any], *args: Any,
            per_rank_args: Sequence[tuple] | None = None,
            timeout: float = 300.0) -> list[Any]:
        """Run ``entry`` on every rank; returns per-rank results.

        ``per_rank_args`` (if given) supplies each rank's positional
        arguments instead of the shared ``args``.
        """
        if per_rank_args is not None and len(per_rank_args) != self.nranks:
            raise ValueError("per_rank_args must have one tuple per rank")
        for r in range(self.nranks):
            a = per_rank_args[r] if per_rank_args is not None else args
            th = threading.Thread(target=self._rank_main, args=(r, entry, a),
                                  daemon=True, name=f"rank-{r}")
            self._threads.append(th)
            th.start()
        # join dynamically: an elastic grow may add rank threads while
        # the original ones are still running.
        while True:
            alive = [th for th in self._threads if th.is_alive()]
            if not alive:
                break
            for th in alive:
                th.join(timeout)
                if th.is_alive():
                    self.comm.close()
                    raise RankFailure(-1, TimeoutError(f"{th.name} hung"))
        if self._errors:
            raise self._pick_error()
        return list(self._results)

    def _rank_main(self, rank: int, entry: Callable[..., Any],
                   args: tuple) -> None:
        ctx = RankContext(rank=rank, nranks=self.nranks,
                          clock=self.clocks[rank], comm=self.comm)
        _bind(ctx)
        try:
            self._results[rank] = entry(*args)
        except BaseException as exc:  # noqa: BLE001 - must unblock peers
            with self._err_lock:
                self._errors.append(
                    exc if isinstance(exc, RankFailure)
                    else RankFailure(rank, exc))
            # Cooperative unwinds (adaptation) are raised by *every* rank
            # at the same safe point: leave the communicator up so late
            # ranks can finish draining the collectives that preceded the
            # raise.  Real failures must tear it down to unblock peers.
            if not getattr(exc, "cooperative_unwind", False):
                self.comm.close()
        finally:
            _bind(None)

    # ------------------------------------------------------------------
    # elastic membership (the cluster half of repro.elastic's protocol)
    # ------------------------------------------------------------------
    def switch(self, plan, joiner_entry: Callable[[], Any] | None) -> float:
        """Membership-switch collective; every *old* rank must call it.

        All current ranks park in the old barrier; the last arriver
        folds every clock into the transition epoch, then adds simulated
        nodes (``joiner_entry`` threads replaying to the safe point) or
        retires them (mailboxes closed, clocks dropped post-fold).
        Returns the transition epoch; callers advance their clocks to it
        like any barrier release.
        """
        barrier = self.comm._barrier  # old membership (None when alone)

        def _switch_action() -> None:
            epoch = VClock.sync_max(
                self.clocks, extra=self.machine.barrier_cost(self.nranks))
            self._switch_epoch = epoch
            if plan.growing:
                self._grow(plan, joiner_entry, epoch)
            else:
                self._shrink(plan)

        if barrier is None:
            _switch_action()
        else:
            barrier.wait(action_override=_switch_action)
        return self._switch_epoch

    def _grow(self, plan, joiner_entry: Callable[[], Any],
              epoch: float) -> None:
        """Add simulated nodes: clocks, mailboxes, replaying rank threads."""
        new_n = plan.new_n
        for r in plan.joining:
            clk = VClock(epoch + self.machine.spawn_cost)
            self.clocks.append(clk)
            self._results.append(None)
        self.comm.reshape(new_n, self.clocks)
        self.nranks = new_n
        for r, c in enumerate(self.clocks):
            c.contention = self.machine.contention_factor(r, new_n)
        for r in plan.joining:
            th = threading.Thread(target=self._rank_main,
                                  args=(r, joiner_entry, ()),
                                  daemon=True, name=f"rank-{r}")
            self._threads.append(th)
            th.start()
        self.log.emit("cluster_grow", vtime=epoch, ranks=new_n,
                      was=plan.old_n)

    def _shrink(self, plan) -> None:
        """Retire simulated nodes: their clocks are already folded into
        the epoch; endpoints close so stray sends fail loudly."""
        new_n = plan.new_n
        del self.clocks[new_n:]
        self.comm.reshape(new_n, self.clocks)
        self.nranks = new_n
        for r, c in enumerate(self.clocks):
            c.contention = self.machine.contention_factor(r, new_n)
        self.log.emit("cluster_shrink", vtime=self._switch_epoch,
                      ranks=new_n, was=plan.old_n)

    def shutdown(self) -> None:
        """Release cluster resources once the ranks are joined; idempotent.

        Closes the mailboxes and aborts the cluster barrier so nothing
        can block on this cluster's communicator again.  Execution
        backends call it in their ``finally`` after :meth:`run` returns
        or raises — by then every rank thread has been joined, so for
        cooperative unwinds (which must keep the communicator up while
        late ranks drain) this runs strictly after the draining is done.
        The gathered failures go too: the one :meth:`run` raised holds
        its frame, and so this cluster, in its traceback.
        """
        self.comm.close()
        self._errors = []

    def _pick_error(self) -> RankFailure:
        """Prefer the root-cause failure over shutdown fallout in peers."""
        for e in self._errors:
            if not isinstance(e.cause, (MailboxClosed, BrokenTeamBarrier)):
                return e
        return self._errors[0]

    # ------------------------------------------------------------------
    @property
    def errors(self) -> list[RankFailure]:
        """All rank failures gathered during :meth:`run` (root causes
        first is not guaranteed — callers filter by cause type)."""
        return list(self._errors)

    @property
    def max_time(self) -> float:
        return max(c.now for c in self.clocks)

    def time_breakdown(self) -> dict[str, float]:
        """Max-over-ranks totals per category (for bench reporting)."""
        return {
            "total": self.max_time,
            "compute": max(c.compute_total for c in self.clocks),
            "comm": max(c.comm_total for c in self.clocks),
            "io": max(c.io_total for c in self.clocks),
        }
