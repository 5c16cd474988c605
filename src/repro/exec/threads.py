"""Shared-memory execution: a malleable thread team on one node."""

from __future__ import annotations

from repro.core.modes import Capabilities, ExecConfig
from repro.exec.base import (
    PHASE_COMPLETED,
    ExecutionBackend,
    PhaseOutcome,
    PhaseServices,
    PhaseSpec,
)
from repro.smp.team import ThreadTeam


class ThreadTeamBackend(ExecutionBackend):
    """OpenMP-like execution on a :class:`ThreadTeam`.

    The backend — not the context — owns the team: it is created at
    ``launch``, its clock seeded to the phase start, and every worker
    thread joined in the ``finally`` on all paths, so adaptation chains
    and restarts cannot accumulate leaked workers.

    ``elastic_ranks``: a team's workers *are* its processing elements —
    the existing :class:`~repro.smp.team.ResizeOp` malleability already
    reshapes that dimension at safe points without a relaunch, so the
    backend advertises the elastic capability and the safe-point
    protocol records those resizes as in-place reshapes.
    """

    name = "threads"

    def capabilities(self, config: ExecConfig) -> Capabilities:
        return Capabilities(team_regions=True, elastic_ranks=True)

    def launch(self, spec: PhaseSpec, services: PhaseServices
               ) -> PhaseOutcome:
        team = ThreadTeam(services.machine, size=spec.config.workers,
                          log=services.log)
        # the safe-point protocol and the checkpoint path both run on the
        # calling thread (team workers only execute region bodies), so one
        # page per launch captures the whole team's coordination metrics.
        planes = self.open_planes(services, 1)
        planes.bind(0)
        try:
            ctx = self.make_context(spec, services, team=team)
            ctx.seed_clock(spec.start_vtime)
            try:
                value = self.run_entry(ctx, spec)
                ctx.ckpt_flush_barrier()
                return PhaseOutcome(PHASE_COMPLETED, self._end(team, spec),
                                    value=value, reshapes=ctx.reshapes)
            except BaseException as exc:  # noqa: BLE001 - normalised below
                out = self.normalise_unwind(exc, self._end(team, spec))
                if out is None:
                    raise
                out.reshapes = ctx.reshapes
                return out
        finally:
            team.shutdown()
            planes.drain(services)

    @staticmethod
    def _end(team: ThreadTeam, spec: PhaseSpec) -> float:
        return max(spec.start_vtime, team.clock.now)
