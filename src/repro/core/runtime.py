"""The Runtime: launching, restarting and reshaping woven applications.

``Runtime.run(...)`` is the rewritten "main" of the paper's Figure 2: it
performs the pcr start-up check (did the previous execution fail? is
there a checkpoint to replay to?) and hands the run to a
:class:`~repro.exec.driver.PhaseDriver`, which loops phases through the
execution-backend registry.  The runtime itself contains no launch code
and no mode conditionals: *how* a configuration executes is entirely the
resolved :class:`~repro.exec.base.ExecutionBackend`'s concern, which is
what makes a new execution substrate a drop-in backend module instead of
a launcher rewrite.

The driver reacts to the two unwind outcomes a backend can report:

* adaptation — a safe point decided to reshape across ranks, modes or
  backends.  The run relaunches in the new configuration with a replay
  state targeting the exit safe point.  Live adaptations hand the
  captured snapshot over in memory; restart-based ones read it back from
  the checkpoint store and additionally pay the restart penalty.
* failure — with ``auto_recover`` the run restarts from the newest
  checkpoint, optionally in a different configuration
  (``recover_config``), which is exactly the paper's Figure 6 experiment.

Virtual time is continuous across phases: each relaunch's clocks start at
the previous phase's end time plus the modelled transition overhead.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.ckpt.delta import IncrementalCheckpointStore
from repro.ckpt.failure import FailureInjector
from repro.ckpt.policy import AdaptiveAnchor, AnchorPolicy, CheckpointPolicy, Never
from repro.ckpt.replay import ReplayState
from repro.ckpt.store import CheckpointStore, RunLedger
from repro.ckpt.writer import AsyncCheckpointWriter
from repro.core.adaptation import AdaptationPlan, AdaptationRecord
from repro.core.context import STRATEGY_MASTER
from repro.core.errors import WeaveError
from repro.core.modes import ExecConfig
from repro.core.rewriter import is_woven
from repro.util.events import EventLog
from repro.vtime.machine import MachineModel


@dataclass
class PhaseReport:
    """One launch segment between adaptations/restarts."""

    config: ExecConfig
    start_vtime: float
    end_vtime: float
    outcome: str  # "completed" | "adapted" | "failed"


@dataclass
class RunResult:
    """What a :meth:`Runtime.run` invocation produced."""

    value: Any
    vtime: float
    events: EventLog
    final_config: ExecConfig
    phases: list[PhaseReport] = field(default_factory=list)
    restarts: int = 0
    adaptations: list[AdaptationRecord] = field(default_factory=list)
    #: serialized :meth:`~repro.telemetry.registry.MetricsRegistry.
    #: snapshot` of the run's metrics (``None`` with telemetry off) —
    #: the same wire shape the service ``stats`` RPC returns and
    #: ``FigureReport.emit_json`` embeds.
    metrics: dict | None = None
    #: assembled Chrome trace-event document (``None`` with tracing
    #: off): one track per rank plus the driver track, nested safe-point
    #: /checkpoint spans, cross-rank message flow arrows — load it
    #: straight into Perfetto / ``chrome://tracing``.
    trace: dict | None = None

    @property
    def adapted(self) -> bool:
        return bool(self.adaptations)

    @property
    def relaunches(self) -> int:
        """Phase relaunches the run paid (0 = everything ran in place).

        Every phase after the first is one teardown + relaunch —
        adaptation unwinds and failure restarts alike.  Elastic in-place
        reshapes never add a phase, which is the whole point of
        :mod:`repro.elastic`.
        """
        return max(0, len(self.phases) - 1)

    @property
    def in_place_reshapes(self) -> list[AdaptationRecord]:
        """Adaptations applied without a relaunch (membership
        transitions and live team resizes)."""
        return [a for a in self.adaptations if a.extra.get("in_place")]


class Runtime:
    """Launcher bound to a machine model and a checkpoint directory."""

    def __init__(self,
                 machine: MachineModel | None = None,
                 ckpt_dir: str | os.PathLike | None = None,
                 policy: CheckpointPolicy | None = None,
                 ckpt_strategy: str = STRATEGY_MASTER,
                 log: EventLog | None = None,
                 restart_penalty: float = 0.02,
                 adapt_penalty: float = 0.01,
                 ckpt_delta: bool = False,
                 ckpt_anchor_every: int | str | AnchorPolicy = 8,
                 ckpt_compress_min_bytes: int | None = None,
                 ckpt_async: bool = False,
                 ckpt_async_depth: int = 2,
                 ckpt_cas: bool = False,
                 registry=None,
                 store: CheckpointStore | None = None,
                 ledger: RunLedger | None = None,
                 telemetry: bool = True,
                 metrics=None,
                 trace: bool | str = False) -> None:
        self.machine = machine if machine is not None else MachineModel()
        if ckpt_dir is None:
            ckpt_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
        # checkpointing subsystem knobs: incremental (delta) snapshots
        # with periodic full anchors (fixed cadence, an AnchorPolicy, or
        # "adaptive" for the delta/full-ratio-driven policy), per-section
        # zlib compression, and an asynchronous double-buffered writer.
        # Defaults reproduce the paper's full synchronous snapshot at
        # every checkpoint.  An injected ``store``/``ledger`` (the
        # service's per-job namespaced sub-stores) overrides all of the
        # construction knobs above — the caller owns its configuration.
        if ckpt_anchor_every == "adaptive":
            ckpt_anchor_every = AdaptiveAnchor()
        if store is not None:
            self.store: CheckpointStore = store
        elif ckpt_cas:
            # the checkpoint object store: fixed-block chunk recipes
            # over a dedup CAS (takes precedence over ckpt_delta — a
            # recipe already writes only the chunks that changed).
            from repro.ckpt.cas import CasCheckpointStore

            self.store = CasCheckpointStore(
                ckpt_dir, compress_min_bytes=ckpt_compress_min_bytes)
        elif ckpt_delta:
            self.store = IncrementalCheckpointStore(
                ckpt_dir, anchor=ckpt_anchor_every,
                compress_min_bytes=ckpt_compress_min_bytes)
        else:
            self.store = CheckpointStore(
                ckpt_dir, compress_min_bytes=ckpt_compress_min_bytes)
        if ckpt_async and store is None:
            self.store.attach_writer(AsyncCheckpointWriter(
                depth=ckpt_async_depth))
        self.ledger = ledger if ledger is not None else RunLedger(ckpt_dir)
        self.policy = policy if policy is not None else Never()
        self.ckpt_strategy = ckpt_strategy
        self.log = log if log is not None else EventLog()
        #: modelled process-teardown + relaunch cost (JVM/job-submit class).
        self.restart_penalty = restart_penalty
        #: modelled coordination cost of a live cross-mode adaptation.
        self.adapt_penalty = adapt_penalty
        #: execution-backend registry (None = the process-wide default).
        self.registry = registry
        # the run's metrics plane: wall-side only (never consulted by a
        # virtual clock), so results are bit-identical with telemetry on
        # or off.  ``metrics`` injects a shared registry (the service
        # aggregates per-job runtimes into one); ``telemetry=False``
        # disables scraping entirely.
        if metrics is not None:
            self.metrics = metrics
        elif telemetry:
            from repro.telemetry import MetricsRegistry

            self.metrics = MetricsRegistry()
        else:
            self.metrics = None
        # the run's trace plane: ``trace=True`` records full-depth rings
        # (Perfetto-loadable timelines), ``trace="flight"`` keeps them
        # small so only the last-N events per rank survive — the crash
        # flight recorder.  Wall-side only, like telemetry: results are
        # bit-identical with tracing on or off.
        self.trace = trace
        if self.metrics is not None:
            writer = getattr(self.store, "writer", None)
            if writer is not None:
                # async-writer overlap: cumulative attrs surface as
                # callback gauges so repeated runs never double-count.
                self.metrics.gauge_fn(
                    "repro_ckpt_writer_bytes_submitted",
                    lambda: float(writer.bytes_submitted),
                    help="Checkpoint bytes handed to the async writer")
                self.metrics.gauge_fn(
                    "repro_ckpt_writer_writes_completed",
                    lambda: float(writer.writes_completed),
                    help="Checkpoint files the async writer made durable")
                self.metrics.gauge_fn(
                    "repro_ckpt_writer_busy_seconds",
                    lambda: float(writer.busy_seconds),
                    help="Wall seconds the async writer spent in disk "
                         "writes (the overlap it buys)")
            cas = getattr(self.store, "cas", None)
            if cas is not None:
                # the chunk store's cumulative counters, parent-side:
                # restore fan-out and GC happen in the driver, where no
                # rank telemetry page is bound.
                st = self.store
                self.metrics.gauge_fn(
                    "repro_ckpt_cas_chunks_stored",
                    lambda: float(cas.chunks_stored),
                    help="Distinct chunks the CAS stored")
                self.metrics.gauge_fn(
                    "repro_ckpt_cas_bytes_stored",
                    lambda: float(cas.bytes_stored),
                    help="On-disk bytes of stored chunks")
                self.metrics.gauge_fn(
                    "repro_ckpt_cas_dedup_bytes_saved",
                    lambda: float(cas.bytes_deduped),
                    help="Payload bytes satisfied by already-stored chunks")
                self.metrics.gauge_fn(
                    "repro_ckpt_cas_chunks_swept",
                    lambda: float(cas.chunks_swept),
                    help="Unreferenced chunks reclaimed by GC")
                self.metrics.gauge_fn(
                    "repro_ckpt_restore_fetches",
                    lambda: float(st.restore_fetches_total),
                    help="Chunk fetches performed by parallel restores")
                self.metrics.gauge_fn(
                    "repro_ckpt_restore_seconds",
                    lambda: float(st.restore_seconds_total),
                    help="Wall seconds spent fetching + decoding chunks "
                         "on restores")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain and stop the async checkpoint writer (if any).

        Call when done with the runtime in long-lived processes; with
        ``ckpt_async`` each runtime otherwise keeps one idle daemon
        thread alive.  A closed runtime cannot checkpoint again.
        """
        self.store.close()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self,
            woven: type,
            ctor_args: tuple = (),
            ctor_kwargs: dict | None = None,
            entry: str = "run",
            entry_args: tuple = (),
            config: ExecConfig = ExecConfig.sequential(),
            plan: AdaptationPlan | None = None,
            injector: FailureInjector | None = None,
            auto_recover: bool = False,
            max_restarts: int = 8,
            recover_config: Callable[[int], ExecConfig] | None = None,
            advisor=None,
            fresh: bool = False) -> RunResult:
        """Execute ``woven(*ctor_args).entry(*entry_args)`` to completion.

        ``fresh`` wipes ledger + checkpoints first (ignore earlier runs).
        """
        # Imported lazily: repro.exec depends on repro.core modules, so a
        # top-level import here would re-enter this package mid-init.
        from repro.exec.base import PhaseServices
        from repro.exec.driver import PhaseDriver

        if not is_woven(woven):
            raise WeaveError(
                f"{woven.__name__} is not woven; call plug(cls, plugset)")
        if advisor is not None and self.registry is not None:
            # the advisor must only propose configurations THIS runtime's
            # registry can launch, not the process-wide default's.
            sync = getattr(advisor, "use_registry", None)
            if sync is not None:
                sync(self.registry)
        if advisor is not None and self.metrics is not None \
                and getattr(advisor, "measured_rates", None) is None:
            # close the loop: the advisor's transition ranking blends
            # the live measured rates scraped into this run's registry
            # (calibration remains the cold-start fallback).
            wire = getattr(advisor, "use_measured", None)
            if wire is not None:
                from repro.telemetry import MeasuredRates

                wire(MeasuredRates(self.metrics))
        ctor_kwargs = ctor_kwargs or {}
        plan = plan if plan is not None else AdaptationPlan()
        injector = injector if injector is not None else FailureInjector()
        if fresh:
            self.ledger.reset()
            self.store.clear()

        # --- pcr start-up check (Figure 2 step 1) ----------------------
        replay: ReplayState | None = None
        if self.ledger.previous_run_failed():
            self.store.flush()  # surviving async writes become readable
            snap = self.store.read_latest()
            if snap is None:
                # STRATEGY_LOCAL runs may only have per-rank shards on
                # disk; reassemble the newest complete set (the layouts
                # travel with the woven class's plug declarations).
                plugset = getattr(woven, "__pp_plugs__", None)
                snap = self.store.assemble_latest_from_shards(
                    plugset.partitioned_fields() if plugset else {})
            if snap is not None:
                snap.meta["from_disk"] = True
                replay = ReplayState.from_snapshot(snap)
                self.log.emit("pcr_replay_engaged",
                              count=snap.safepoint_count)

        collector = None
        if self.trace:
            from repro.trace import TraceCollector

            collector = TraceCollector(flight=(self.trace == "flight"))
        services = PhaseServices(
            machine=self.machine, log=self.log, store=self.store,
            policy=self.policy, ckpt_strategy=self.ckpt_strategy,
            advisor=advisor, metrics=self.metrics, trace=collector)
        driver = PhaseDriver(services, self.ledger, registry=self.registry,
                             restart_penalty=self.restart_penalty,
                             adapt_penalty=self.adapt_penalty)
        result = driver.drive(
            woven, ctor_args, ctor_kwargs, entry, entry_args, config,
            plan, injector, replay, auto_recover=auto_recover,
            max_restarts=max_restarts, recover_config=recover_config)
        if self.metrics is not None:
            # run-level counters: the same facts RunResult derives from
            # its phase/adaptation records, re-exported under the unified
            # naming scheme so every consumer reads one vocabulary.
            self.metrics.counter_inc(
                "repro_runtime_runs_total", 1.0,
                help="Completed Runtime.run invocations")
            self.metrics.counter_inc(
                "repro_runtime_relaunches_total", float(result.relaunches),
                help="Phase relaunches paid (teardown + restart chains)")
            self.metrics.counter_inc(
                "repro_runtime_restarts_total", float(result.restarts),
                help="Failure-recovery restarts")
            self.metrics.counter_inc(
                "repro_runtime_in_place_reshapes_total",
                float(len(result.in_place_reshapes)),
                help="Adaptations applied without a relaunch")
            result.metrics = self.metrics.snapshot()
        if collector is not None:
            result.trace = collector.assemble(events=self.log)
        return result
