"""Self-adaptation advisor — the paper's stated future work.

Conclusion of the paper: "Current implementation of this approach rel[ies]
on external tools [to] determine the optimal set of resources ...  A
natural evolution is to incorporate mechanisms to find opportunities for
self-adaptation to improve execution time, by monitoring the application
and the system state."

:class:`SelfAdaptationAdvisor` is that mechanism: it watches the
application's own safe-point timestamps (no external monitor needed),
measures the per-iteration time of the current configuration over a
window, and greedily climbs a ladder of candidate configurations —
sequential → growing thread teams → distributed — keeping each step only
if it actually improved throughput by more than ``tolerance``.  When a
step stops paying, it settles on the best configuration seen and goes
dormant.

Scope: decisions are taken at safe points of sequential / shared-memory
phases (where a single decision point exists — the parked team).  The
advisor may well *move* the application into distributed execution; once
there it stays until the run ends or an explicit plan reshapes it again
(asynchronous self-decisions across independent ranks would need a
consensus round the paper does not describe).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.modes import ExecConfig, Mode
from repro.vtime.machine import MachineModel


@dataclass
class _Trial:
    config: ExecConfig
    start_count: int
    start_vtime: float


class SelfAdaptationAdvisor:
    """Measure-and-climb configuration search over the run's own timeline.

    Candidate rungs are filtered through the execution-backend
    ``registry`` (default: the process-wide one), so the advisor only
    ever proposes configurations whose mode actually has a registered
    backend — an adaptation decision is a backend choice, not just a
    shape.
    """

    def __init__(self, machine: MachineModel, max_pe: int | None = None,
                 window: int = 5, tolerance: float = 0.05,
                 registry=None, transition_aware: bool = False) -> None:
        from repro.exec.registry import default_registry

        if window < 2:
            raise ValueError("need at least 2 safe points per measurement")
        if not (0.0 <= tolerance < 1.0):
            raise ValueError("tolerance must be in [0, 1)")
        self.machine = machine
        self.window = window
        self.tolerance = tolerance
        #: gate ladder climbs on the modelled cost of *getting there*:
        #: a rung whose transition costs more than a whole measurement
        #: window of the current configuration cannot pay for its own
        #: trial and is skipped (the advisor settles instead).  Priced
        #: on ``machine``, the model the run's clocks already use.
        self.transition_aware = transition_aware
        self.max_pe = max_pe if max_pe is not None else machine.total_cores
        self.registry = registry if registry is not None else default_registry()
        self.ladder = self._build_ladder()
        #: measured seconds-per-iteration per tried configuration.
        self.measured: dict[ExecConfig, float] = {}
        self._trial: _Trial | None = None
        self._settled = False
        self.decisions: list[tuple[int, ExecConfig]] = []

    def use_registry(self, registry) -> None:
        """Re-anchor the candidate ladder on ``registry``.

        The runtime calls this when it launches with its own backend
        registry, so the advisor never proposes a configuration the
        driver cannot resolve.  Keeps measurements; rebuilds the ladder.
        """
        if registry is None or registry is self.registry:
            return
        self.registry = registry
        self.ladder = self._build_ladder()

    # ------------------------------------------------------------------
    def _build_ladder(self) -> list[ExecConfig]:
        """Candidate configurations in increasing parallelism, restricted
        to modes the backend registry can actually launch."""
        ladder = [ExecConfig.sequential()]
        if self.registry.supports(Mode.SHARED):
            w = 2
            while w <= min(self.max_pe, self.machine.cores_per_node):
                ladder.append(ExecConfig.shared(w))
                w *= 2
        if self.registry.supports(Mode.DISTRIBUTED):
            p = self.machine.cores_per_node * 2
            while p <= self.max_pe:
                ladder.append(ExecConfig.distributed(p))
                p *= 2
        return ladder

    # ------------------------------------------------------------------
    # transition pricing (on the run's machine model)
    # ------------------------------------------------------------------
    def transition_cost(self, cur: ExecConfig, target: ExecConfig) -> float:
        """Modelled one-off cost of moving ``cur`` -> ``target``.

        The target backend's capabilities decide the transition kind:
        same mode and backend with ``elastic_ranks`` (or a pure team
        resize) is an *in-place reshape* — a barrier pair plus spawns
        for the grown members only — while everything else is a
        *relaunch* that re-spawns every processing element and
        re-scatters state.  Both are priced on :attr:`machine`; a target
        no registered backend resolves costs ``inf``.
        """
        from repro.core.errors import WeaveError

        try:
            backend = self.registry.resolve(target)
        except WeaveError:
            return float("inf")
        caps = backend.capabilities(target)
        m = self.machine
        pe_cur, pe_new = cur.processing_elements, target.processing_elements
        if (target.mode is cur.mode and target.backend == cur.backend
                and (caps.elastic_ranks or (caps.team_regions
                                            and target.nranks == cur.nranks))):
            return (2 * m.barrier_cost(max(pe_cur, pe_new))
                    + m.spawn_cost * max(0, pe_new - pe_cur))
        return (m.spawn_cost * pe_new + 2 * m.barrier_cost(pe_new)
                + (pe_new - 1) * m.network.p2p_cost(0, same_node=False))

    def _transition_affordable(self, cur: ExecConfig, target: ExecConfig,
                               per_iter: float) -> bool:
        if not self.transition_aware:
            return True
        return self.transition_cost(cur, target) <= self.window * per_iter

    def _next_candidate(self, current: ExecConfig) -> ExecConfig | None:
        try:
            i = self.ladder.index(current)
        except ValueError:
            # current config isn't on the ladder: insert conceptually by PE
            bigger = [c for c in self.ladder
                      if c.processing_elements > current.processing_elements]
            return bigger[0] if bigger else None
        return self.ladder[i + 1] if i + 1 < len(self.ladder) else None

    # ------------------------------------------------------------------
    @property
    def settled(self) -> bool:
        return self._settled

    def best(self) -> ExecConfig | None:
        if not self.measured:
            return None
        return min(self.measured, key=lambda c: self.measured[c])

    def on_safepoint(self, count: int, vtime: float,
                     config: ExecConfig) -> ExecConfig | None:
        """Feed one safe point; returns a new target config or ``None``.

        Must be called from a single decision point per safe point (the
        runtime guarantees this in sequential/shared phases).
        """
        if self._settled or config.mode is Mode.DISTRIBUTED \
                or config.mode is Mode.HYBRID:
            return None
        if self._trial is None or self._trial.config != config:
            self._trial = _Trial(config, count, vtime)
            return None
        done = count - self._trial.start_count
        if done < self.window:
            return None
        per_iter = (vtime - self._trial.start_vtime) / done
        if per_iter <= 0.0:
            # degenerate sample (clock granularity / replay tail): extend
            # the trial instead of deciding on garbage.
            self._trial = _Trial(config, count, vtime)
            return None
        self.measured[config] = per_iter
        candidate = self._next_candidate(config)
        prev_best = min((v for c, v in self.measured.items() if c != config),
                        default=None)
        improved = prev_best is None or per_iter < prev_best * (
            1.0 - self.tolerance)
        if candidate is not None and improved \
                and not self._transition_affordable(config, candidate,
                                                    per_iter):
            candidate = None  # the climb cannot pay for its own trial
        if candidate is not None and improved:
            self.decisions.append((count, candidate))
            self._trial = None
            return candidate
        # climbing stopped paying: settle on the best configuration seen
        self._settled = True
        best = self.best()
        if best is not None and best != config:
            self.decisions.append((count, best))
            return best
        return None
