"""Distributed execution: SPMD ranks on a simulated cluster."""

from __future__ import annotations

from repro.ckpt.failure import InjectedFailure
from repro.core.adaptation import AdaptStep
from repro.core.errors import AdaptationExit
from repro.core.modes import Capabilities, ExecConfig
from repro.dsm.comm import current_rank
from repro.dsm.simcluster import RankFailure, SimCluster
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
    PHASE_COMPLETED,
    ExecutionBackend,
    PhaseOutcome,
    PhaseServices,
    PhaseSpec,
)
from repro.smp.team import ThreadTeam


class ClusterReshaper(RankReshaper):
    """Elastic membership transitions on a :class:`SimCluster`.

    The simulated-cluster instantiation of the protocol in
    :mod:`repro.elastic.protocol`: the membership switch spawns/retires
    rank threads via :meth:`SimCluster.switch`, joiners rebuild their
    call stack by replaying ``make_rank_entry``'s entry with a
    :class:`JoinReplay`, and field regions move over the (reshaped)
    in-process communicator.
    """

    def __init__(self, cluster: SimCluster, machine,
                 make_rank_entry) -> None:
        self.cluster = cluster
        self.machine = machine
        #: callable(join: JoinReplay | None) -> rank entry result; set by
        #: the backend once the launch closure exists.
        self.make_rank_entry = make_rank_entry

    # ------------------------------------------------------------------
    def reshape(self, ctx, step: AdaptStep, count: int) -> bool:
        plan = ReshapePlan(ctx.nranks, step.config.nranks)
        comm = ctx.rankctx.comm
        rank = ctx.rank
        if ctx.nranks > 1:
            comm.barrier()  # quiesce: every prior collective drained
        if plan.shrinking:
            # retiring owners push their regions while they still have
            # endpoints on the old communicator.
            execute_moves(ctx, plan, comm)

        def joiner_entry():
            return self.make_rank_entry(
                JoinReplay(count, self, plan, step))

        epoch = self.cluster.switch(
            plan, joiner_entry if plan.growing else None)
        ctx.rankctx.clock.advance_to(epoch)
        if rank in plan.retiring:
            raise RankRetired(count, rank)
        # --- new membership from here on -------------------------------
        if plan.growing:
            join_rendezvous(ctx, plan, step, count, comm, self.machine)
        else:
            comm.barrier()  # survivors resync on the shrunken membership
            apply_new_identity(ctx, step, plan, count, self.machine)
        return True

    def complete_join(self, ctx, replay: JoinReplay, count: int) -> None:
        join_rendezvous(ctx, replay.plan, replay.step, count,
                        ctx.rankctx.comm, self.machine)


class SimClusterBackend(ExecutionBackend):
    """MPI-like execution over a fresh :class:`SimCluster` per phase.

    The backend owns the cluster's lifecycle (rank threads are joined by
    ``SimCluster.run``; the communicator is torn down in the ``finally``)
    and normalises rank failures: a :class:`RankFailure` is unwrapped to
    the most informative cooperative unwind gathered across ranks — an
    :class:`AdaptationExit` carrying the snapshot beats one without,
    which beats an :class:`InjectedFailure` — so the driver never sees
    rank-level wreckage when a normal unwind caused it.

    Elastic: rank-count adaptations within DISTRIBUTED mode run as
    membership transitions (simulated nodes added/retired in place, see
    :class:`ClusterReshaper`) instead of phase relaunches.
    """

    name = "simcluster"

    def capabilities(self, config: ExecConfig) -> Capabilities:
        return Capabilities(rank_collectives=True, elastic_ranks=True)

    # hook: HybridBackend equips each rank with a thread team.
    def rank_team(self, spec: PhaseSpec,
                  services: PhaseServices) -> ThreadTeam | None:
        return None

    def launch(self, spec: PhaseSpec, services: PhaseServices
               ) -> PhaseOutcome:
        cluster = SimCluster(spec.config.nranks, services.machine,
                             services.log, start_time=spec.start_vtime)
        elastic = self.capabilities(spec.config).elastic_ranks
        reshaper = ClusterReshaper(cluster, services.machine, None) \
            if elastic else None
        reshapes: list = []
        # sized past the starting membership so joiners admitted by
        # elastic growth land on pre-laid-out regions of the same planes.
        planes = self.open_planes(services, max(4 * spec.config.nranks, 64))

        def rank_entry(join: JoinReplay | None = None):
            rankctx = current_rank()
            planes.bind(rankctx.rank)
            team = self.rank_team(spec, services)
            ctx = None
            try:
                if team is not None:
                    team.clock.advance_to(rankctx.clock.now)
                ctx = self.make_context(spec, services, rankctx=rankctx,
                                        team=team, reshaper=reshaper)
                if join is not None:
                    # a joining rank replays to the transition safe
                    # point, then enters the rendezvous — the phase-level
                    # replay state does not apply to it.
                    ctx.replay = join
                    ctx.config = join.step.config
                try:
                    result = self.run_entry(ctx, spec)
                except RankRetired:
                    return None  # shrunk out of the membership: clean end
                if team is not None:
                    rankctx.clock.advance_to(team.clock.now)
                if rankctx.rank == 0:
                    ctx.ckpt_flush_barrier()
                return result
            finally:
                if rankctx.rank == 0 and ctx is not None:
                    reshapes.extend(ctx.reshapes)
                if team is not None:
                    team.shutdown()
                planes.unbind()

        if reshaper is not None:
            reshaper.make_rank_entry = rank_entry

        try:
            results = cluster.run(rank_entry)
            return PhaseOutcome(PHASE_COMPLETED, self._end(cluster, spec),
                                value=results[0], reshapes=reshapes)
        except RankFailure as rf:
            cause = self._root_unwind(cluster, rf)
            out = self.normalise_unwind(cause, self._end(cluster, spec))
            if out is None:
                raise
            out.reshapes = reshapes
            return out
        finally:
            cluster.shutdown()
            planes.drain(services)

    # ------------------------------------------------------------------
    @staticmethod
    def _end(cluster: SimCluster, spec: PhaseSpec) -> float:
        return max(spec.start_vtime, cluster.max_time)

    @staticmethod
    def _root_unwind(cluster: SimCluster, rf: RankFailure) -> BaseException:
        """The most informative cause gathered across failed ranks."""
        causes = [e.cause for e in cluster.errors]
        exits = [c for c in causes if isinstance(c, AdaptationExit)]
        with_snap = [c for c in exits if c.snapshot is not None]
        if with_snap:
            return with_snap[0]
        if exits:
            return exits[0]
        fails = [c for c in causes if isinstance(c, InjectedFailure)]
        if fails:
            return fails[0]
        return rf
