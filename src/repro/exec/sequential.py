"""Strict sequential execution: one line of execution, no coordination."""

from __future__ import annotations

from repro.core.modes import Capabilities, ExecConfig
from repro.exec.base import (
    PHASE_COMPLETED,
    ExecutionBackend,
    PhaseOutcome,
    PhaseServices,
    PhaseSpec,
)


class SequentialBackend(ExecutionBackend):
    """The paper's baseline: the woven class on the calling thread.

    No team, no ranks — safe points run the protocol inline, barriers
    and work sharing degenerate to no-ops / whole ranges.
    """

    name = "sequential"

    def capabilities(self, config: ExecConfig) -> Capabilities:
        return Capabilities()

    def launch(self, spec: PhaseSpec, services: PhaseServices
               ) -> PhaseOutcome:
        ctx = self.make_context(spec, services)
        ctx.seed_clock(spec.start_vtime)
        planes = self.open_planes(services, 1)
        planes.bind(0)
        try:
            value = self.run_entry(ctx, spec)
            ctx.ckpt_flush_barrier()  # pay the in-flight write remainder
            return PhaseOutcome(PHASE_COMPLETED, self._end(ctx, spec),
                                value=value)
        except BaseException as exc:  # noqa: BLE001 - normalised below
            out = self.normalise_unwind(exc, self._end(ctx, spec))
            if out is None:
                raise
            return out
        finally:
            planes.drain(services)

    @staticmethod
    def _end(ctx, spec: PhaseSpec) -> float:
        return max(spec.start_vtime, ctx.max_time())
