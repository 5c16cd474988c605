"""The execution-backend contract: one interface behind every launch.

The paper's central claim is that one woven code base runs unchanged
across sequential, shared-memory, distributed and hybrid executions.
This module is the seam that makes the claim structural rather than
incidental: a phase launch is described by a :class:`PhaseSpec`, executed
by an :class:`ExecutionBackend`, and summarised as a :class:`PhaseOutcome`
— the :class:`~repro.exec.driver.PhaseDriver` never branches on *how* a
configuration executes.

A backend owns, for the duration of one :meth:`ExecutionBackend.launch`:

* **context creation** — building the
  :class:`~repro.core.context.ExecutionContext` with the backend's
  :class:`~repro.core.modes.Capabilities` (which coordination services
  the woven code may use) and the per-rank replay cursor;
* **clock seeding** — phase clocks start at the previous phase's end
  time so virtual time is continuous across adaptations and restarts;
* **worker lifecycle** — thread teams / rank threads are created inside
  ``launch`` and joined before it returns, on every path (including
  unwinds), so adaptations and restarts cannot leak workers;
* **unwind / error normalisation** — the two cooperative unwind signals
  (:class:`~repro.core.errors.AdaptationExit`,
  :class:`~repro.ckpt.failure.InjectedFailure`) are caught — unwrapped
  from :class:`~repro.dsm.simcluster.RankFailure` where necessary — and
  returned as a ``PhaseOutcome`` carrying the phase's end time, so the
  driver sees one normal-form result for every backend.  Anything else
  propagates as a genuine error.

Adding a new execution substrate (multiprocess, real MPI, ...) means
writing one backend module and registering it — ``core/`` is untouched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.ckpt.failure import FailureInjector, InjectedFailure
from repro.ckpt.policy import CheckpointPolicy
from repro.ckpt.replay import ReplayState
from repro.ckpt.store import CheckpointStore
from repro.core.adaptation import AdaptationPlan
from repro.core.errors import AdaptationExit
from repro.core.modes import Capabilities, ExecConfig
from repro.core.plugs import PlugSet
from repro.util.events import EventLog
from repro.vtime.machine import MachineModel

#: phase outcome statuses (match :class:`repro.core.runtime.PhaseReport`).
PHASE_COMPLETED = "completed"
PHASE_ADAPTED = "adapted"
PHASE_FAILED = "failed"


@dataclass(frozen=True)
class PhaseSpec:
    """Everything one launch segment needs: the *what* of a phase.

    Immutable by design — a relaunch after an adaptation or restart is a
    fresh spec, never a mutated one.
    """

    woven: type
    ctor_args: tuple = ()
    ctor_kwargs: dict = field(default_factory=dict)
    entry: str = "run"
    entry_args: tuple = ()
    config: ExecConfig = field(default_factory=ExecConfig.sequential)
    plan: AdaptationPlan = field(default_factory=AdaptationPlan)
    injector: FailureInjector = field(default_factory=FailureInjector)
    replay: ReplayState | None = None
    start_vtime: float = 0.0


@dataclass
class PhaseOutcome:
    """Normal form of one phase: how it ended, when, and with what.

    ``status`` is one of :data:`PHASE_COMPLETED` / :data:`PHASE_ADAPTED`
    / :data:`PHASE_FAILED`; exactly one of ``value`` / ``adaptation`` /
    ``failure`` is meaningful for each.  ``end_vtime`` is always valid —
    backends measure it on unwind paths too, which is what keeps virtual
    time continuous across reshapes and recoveries.
    """

    status: str
    end_vtime: float
    value: Any = None
    adaptation: AdaptationExit | None = None
    failure: InjectedFailure | None = None
    #: AdaptationRecords of in-place reshapes (elastic rank membership
    #: transitions, live team resizes) applied *within* the phase — they
    #: never unwind, so this is how they reach the driver's run record.
    reshapes: list = field(default_factory=list)


@dataclass
class PhaseServices:
    """Runtime-owned collaborators a backend launches phases against."""

    machine: MachineModel
    log: EventLog
    store: CheckpointStore | None
    policy: CheckpointPolicy
    ckpt_strategy: str
    advisor: Any = None
    #: the run's :class:`~repro.telemetry.registry.MetricsRegistry`, or
    #: ``None`` with telemetry disabled.
    metrics: Any = None
    #: the run's :class:`~repro.trace.assemble.TraceCollector`, or
    #: ``None`` with tracing disabled (its ``capacity`` sizes the rings —
    #: small in flight-recorder mode).  :class:`LaunchPlanes` is how a
    #: launch feeds both.
    trace: Any = None


class LaunchPlanes:
    """One launch's observability planes behind one handle.

    Whoever runs the launch opens it (``ExecutionBackend.open_planes``
    in the parent; a rank process maps the parent's segments from its
    :class:`~repro.exec.worker.WorkerEnv`) and every rank drives the
    same lifecycle through it: :meth:`bind` on the rank's thread,
    :meth:`park` when it leaves the membership, :meth:`close` when its
    process exits.  The parent ends with exactly one :meth:`drain`.

    ``trace`` is the ring capacity (0 = tracing off).
    """

    def __init__(self, max_ranks: int, backend: str, telemetry: bool,
                 trace: int, launch_id: str | None = None,
                 create: bool = False) -> None:
        from repro import telemetry as _tele, trace as _trace

        #: this handle created the segments, so it alone unlinks them.
        self._owner = create
        where = {"launch_id": launch_id, "create": create}
        self.telemetry = self.trace = None
        #: (plane, thread-local accessor, thread-local bind) per plane.
        self._bound: list[tuple] = []
        if telemetry:
            self.telemetry = _tele.TelemetryPlane(
                max_ranks, backend=backend, **where)
            self._bound.append((self.telemetry, _tele.writer, _tele.bind))
        if trace:
            self.trace = _trace.TracePlane(
                max_ranks, capacity=trace, backend=backend, **where)
            self._bound.append((self.trace, _trace.tracer, _trace.bind))

    def bind(self, rank: int) -> None:
        """Claim ``rank``'s regions on the calling thread (activates or
        thaws them); a rank beyond the laid-out regions runs unobserved."""
        for plane, _, bind in self._bound:
            if rank < plane.max_ranks:
                bind(plane.writer(rank))

    def unbind(self) -> None:
        for _, _, bind in self._bound:
            bind(None)

    def park(self) -> None:
        """Freeze the calling thread's regions and unbind: the words
        stay in the segment for the drain, live scrapes skip them."""
        for _, current, _ in self._bound:
            current().freeze()
        self.unbind()

    def close(self) -> None:
        """Unbind the calling thread and drop the mappings (a rank
        process on exit, and the tail of :meth:`drain`); the regions
        outlive the rank — a crashed rank's included."""
        self.unbind()
        for plane, _, _ in self._bound:
            plane.close()

    def drain(self, services: PhaseServices) -> None:
        """Fold every region — parked and dead ranks included — into
        the run's registry and collector, then drop (and, as their
        creator, unlink) the segments.  Called exactly once per launch,
        from the backend's ``finally``, after every worker is joined so
        the scrape is race-free."""
        try:
            if self.telemetry is not None:
                services.metrics.absorb(
                    self.telemetry.scrape(include_frozen=True))
            if self.trace is not None:
                services.trace.absorb(
                    self.trace.scrape(include_frozen=True),
                    backend=self.trace.backend)
        finally:
            self.close()
            if self._owner:
                for plane, _, _ in self._bound:
                    plane.unlink()


class ExecutionBackend(ABC):
    """One way of executing a phase of a woven application.

    Stateless with respect to any particular run: the same backend
    instance serves every runtime that resolves it, with all per-run
    state carried by the :class:`PhaseSpec` / :class:`PhaseServices`
    pair.  Subclasses implement :meth:`launch` and declare their
    :meth:`capabilities`.
    """

    #: registry name; must be unique within a registry.
    name: str = "abstract"

    #: semantic modes this backend can launch even when it is not the
    #: mode's default — consulted by ``BackendRegistry.supports`` (and
    #: through it the advisor ladder and Grid mapping policies), and by
    #: ``resolve`` as a fallback when a mode has no default registered.
    #: Mode defaults need not repeat themselves here.
    modes: tuple = ()

    @abstractmethod
    def capabilities(self, config: ExecConfig) -> Capabilities:
        """Coordination services the context may rely on under this
        backend for the given configuration."""

    @abstractmethod
    def launch(self, spec: PhaseSpec, services: PhaseServices
               ) -> PhaseOutcome:
        """Execute one phase to completion, adaptation or failure.

        Must return a :class:`PhaseOutcome` for the three normal phase
        ends and re-raise anything else; must join every worker it
        created before returning, on every path.
        """

    def calibrate(self, machine: MachineModel) -> MachineModel:
        """Per-backend cost-model overrides for transition ranking.

        The shared :class:`MachineModel` describes the simulated cluster;
        a backend whose real substrate behaves differently (the
        multiprocessing backend's fork + queue latency is nothing like
        the modelled network) returns a copy with the relevant constants
        replaced.  Consumed by the advisor when ranking reshape against
        relaunch; the returned model never feeds the phase's virtual
        clocks, so calibration cannot perturb cross-backend vtime parity.
        """
        return machine

    # ------------------------------------------------------------------
    # shared helpers for concrete backends
    # ------------------------------------------------------------------
    def make_context(self, spec: PhaseSpec, services: PhaseServices,
                     rankctx=None, team=None, reshaper=None):
        """Build the phase's :class:`ExecutionContext`.

        Each rank/phase gets its own replay cursor over the shared
        snapshot (replay state is consumed as safe points pass); only
        member 0 carries the snapshot payload.
        """
        from repro.core.context import ExecutionContext, clone_policy

        plugset: PlugSet = getattr(spec.woven, "__pp_plugs__", PlugSet())
        rep = None
        if spec.replay is not None:
            rep = ReplayState(
                target=spec.replay.target,
                snapshot=spec.replay.snapshot
                if (rankctx is None or rankctx.rank == 0) else None)
        return ExecutionContext(
            config=spec.config, machine=services.machine, log=services.log,
            store=services.store, policy=clone_policy(services.policy),
            injector=spec.injector, plan=spec.plan, replay=rep,
            safedata=plugset.safedata_fields(),
            partitioned=plugset.partitioned_fields(),
            ckpt_strategy=services.ckpt_strategy, rankctx=rankctx, team=team,
            advisor=services.advisor,
            caps=self.capabilities(spec.config), reshaper=reshaper)

    def open_planes(self, services: PhaseServices, max_ranks: int,
                    launch_id: str | None = None) -> "LaunchPlanes":
        """The launch's observability planes (whichever the run's
        services ask for).  Thread substrates pass no ``launch_id`` and
        get process-local planes; process substrates pass their launch
        id and get shared segments children attach by name."""
        return LaunchPlanes(
            max_ranks, self.name,
            telemetry=services.metrics is not None,
            trace=services.trace.capacity if services.trace is not None
            else 0,
            launch_id=launch_id, create=launch_id is not None)

    def run_entry(self, ctx, spec: PhaseSpec) -> Any:
        """Instantiate the woven class, bind it, and call the entry."""
        instance = spec.woven(*spec.ctor_args, **spec.ctor_kwargs)
        ctx.bind(instance)
        return getattr(instance, spec.entry)(*spec.entry_args)

    @staticmethod
    def normalise_unwind(exc: BaseException, end_vtime: float
                         ) -> PhaseOutcome | None:
        """Map a cooperative unwind to its outcome; ``None`` otherwise."""
        if isinstance(exc, AdaptationExit):
            return PhaseOutcome(PHASE_ADAPTED, end_vtime, adaptation=exc)
        if isinstance(exc, InjectedFailure):
            return PhaseOutcome(PHASE_FAILED, end_vtime, failure=exc)
        return None
