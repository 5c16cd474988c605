"""PhaseDriver: the mode-agnostic phase loop behind ``Runtime.run``.

The driver owns the part of the paper's Figure 2 that is independent of
*how* a phase executes: launch the current configuration through the
backend the registry resolves for it, then react to the phase outcome —

* **completed** — flush checkpoints, finish the ledger, return;
* **adapted** — pay the live/restart transition cost, build the replay
  state (in-memory snapshot for live adaptations, the checkpoint read
  back from disk for restart-based ones) and relaunch in the new
  configuration — which may name a different *backend*, not just a
  different shape;
* **failed** — with ``auto_recover``, restart from the newest durable
  checkpoint, optionally in a different configuration (the paper's
  Figure 6 experiment); otherwise re-raise with the ledger left as is:
  ``running`` once a checkpoint was saved, so the next run replays.

Reshape beats restart where the backend allows it: a backend that
advertises ``Capabilities.elastic_ranks`` applies rank-count adaptation
steps *inside* the phase (a membership transition, no unwind — see
:mod:`repro.elastic`), so the driver never has to relaunch for them; it
only folds the reported in-place reshapes into the run record and keeps
the relaunch machinery as the fallback and the recovery path.

Recovery reads prefer the master checkpoint format but no longer depend
on it: when only ``STRATEGY_LOCAL`` per-rank shards exist on disk, the
driver reassembles a master-format snapshot from the same-shape shards
(:meth:`CheckpointStore.assemble_from_shards`).

Because each relaunch resolves its backend afresh, the full Mode matrix
(and any backend registered at run time) flows through the one loop —
the driver contains no mode conditionals at all.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from repro.ckpt.replay import ReplayState
from repro.ckpt.snapshot import SnapshotCorrupt
from repro.core.adaptation import AdaptationRecord
from repro.core.errors import WeaveError
from repro.core.modes import ExecConfig
from repro.exec.base import (
    PHASE_ADAPTED,
    PHASE_COMPLETED,
    PhaseServices,
    PhaseSpec,
)
from repro.exec.registry import BackendRegistry, default_registry

#: modelled process-teardown + relaunch cost (JVM/job-submit class).
RESTART_PENALTY = 0.02
#: modelled coordination cost of a live cross-mode adaptation.
ADAPT_PENALTY = 0.01


class PhaseDriver:
    """Drives one application run as a chain of backend launches."""

    def __init__(self, services: PhaseServices, ledger,
                 registry: BackendRegistry | None = None) -> None:
        self.services = services
        self.ledger = ledger
        self.registry = registry if registry is not None else default_registry()

    # ------------------------------------------------------------------
    def drive(self,
              woven: type,
              ctor_args: tuple,
              ctor_kwargs: dict,
              entry: str,
              entry_args: tuple,
              config: ExecConfig,
              plan,
              injector,
              replay: ReplayState | None,
              auto_recover: bool = False,
              max_restarts: int = 8,
              recover_config: Callable[[int], ExecConfig] | None = None):
        from repro.core.runtime import PhaseReport, RunResult

        services = self.services
        store = services.store
        #: partitioned declarations travel with the woven class; shard
        #: reassembly needs the layouts to recombine per-rank regions.
        plugset = getattr(woven, "__pp_plugs__", None)
        partitioned = plugset.partitioned_fields() if plugset else {}
        vtime = 0.0
        phases: list[PhaseReport] = []
        adaptations: list[AdaptationRecord] = []
        restarts = 0

        while True:
            backend = self.registry.resolve(config)
            spec = PhaseSpec(
                woven=woven, ctor_args=ctor_args, ctor_kwargs=ctor_kwargs,
                entry=entry, entry_args=entry_args, config=config,
                plan=plan, injector=injector, replay=replay,
                start_vtime=vtime)
            # one phase span on the driver track per launch attempt —
            # wall-side only, through the collector's own writer (the
            # driver is not a rank, so it never competes with a rank's
            # thread-local tracer binding).
            tracing = services.trace
            t0 = perf_counter() if tracing is not None else 0.0
            try:
                out = backend.launch(spec, services)
            finally:
                if tracing is not None:
                    from repro.trace import schema as _tc

                    tracing.driver.span(_tc.PHASE, t0, a=vtime,
                                        b=float(len(phases)))
            if out.reshapes:
                # in-place reshapes (elastic rank transitions, live team
                # resizes) never unwind; the backend reports them so the
                # run record stays complete — and the phase's *current*
                # shape is the last one they reached.
                adaptations.extend(out.reshapes)
                config = out.reshapes[-1].to_config

            if out.status == PHASE_COMPLETED:
                store.flush()  # all checkpoints durable before "done"
                self.ledger.finish()
                phases.append(PhaseReport(config, vtime, out.end_vtime,
                                          PHASE_COMPLETED))
                return RunResult(value=out.value, vtime=out.end_vtime,
                                 events=services.log, final_config=config,
                                 phases=phases, restarts=restarts,
                                 adaptations=adaptations)

            if out.status == PHASE_ADAPTED:
                ae = out.adaptation
                phases.append(PhaseReport(config, vtime, out.end_vtime,
                                          PHASE_ADAPTED))
                step = ae.new_config
                snap = ae.snapshot
                if step.via_restart:
                    store.flush()
                    if tracing is not None:
                        # restore-side store spans (chunk-fetch fan-out)
                        # record on the driver track.
                        from repro.trace.plane import bind as _tbind

                        _tbind(tracing.driver)
                    try:
                        try:
                            # the checkpoint at the exit point, regardless
                            # of whether newer checkpoints exist on disk.
                            disk = store.read(step.at)
                        except (SnapshotCorrupt, OSError):
                            # no master-format file: a STRATEGY_LOCAL phase
                            # saved per-rank shards instead — reassemble.
                            disk = store.assemble_from_shards(
                                step.at, partitioned)
                    finally:
                        if tracing is not None:
                            _tbind(None)
                    if disk is None:
                        raise WeaveError(
                            "restart-based adaptation found no checkpoint "
                            f"at safe point {step.at}") from ae
                    disk.meta["from_disk"] = True
                    snap = disk
                    vtime = out.end_vtime + RESTART_PENALTY
                else:
                    vtime = out.end_vtime + ADAPT_PENALTY
                adaptations.append(AdaptationRecord(
                    at_count=step.at, from_config=config,
                    to_config=step.config, via_restart=step.via_restart,
                    vtime=vtime))
                replay = ReplayState(target=step.at, snapshot=snap)
                config = step.config
                continue

            # failed
            fail = out.failure
            phases.append(PhaseReport(config, vtime, out.end_vtime,
                                      "failed"))
            services.log.emit("failure", vtime=out.end_vtime,
                              count=fail.safepoint)
            if tracing is not None:
                # the flight-recorder black box: the last-N decoded
                # records of every rank's ring (the dead rank's ring
                # outlived it in the launch segment and was scraped by
                # the backend's drain).  Rides the raised failure and
                # the assembled document's otherData alike.
                box = tracing.flight_snapshot()
                tracing.flights.append({"safepoint": fail.safepoint,
                                        "rank": fail.rank, "ranks": box})
                fail.flight = box
            # recovery (this run's or a later one's) must only ever see
            # fully-written files.
            store.flush()
            if not auto_recover:
                raise fail  # a "running" ledger makes the next run replay
            restarts += 1
            if restarts > max_restarts:
                raise fail
            if tracing is not None:
                from repro.trace.plane import bind as _tbind

                _tbind(tracing.driver)
            try:
                snap = store.read_latest()
                if snap is None:
                    # survivable STRATEGY_LOCAL: reassemble the newest
                    # complete shard set into a master-format snapshot.
                    snap = store.assemble_latest_from_shards(partitioned)
            finally:
                if tracing is not None:
                    _tbind(None)
            if snap is not None:
                snap.meta["from_disk"] = True
                replay = ReplayState.from_snapshot(snap)
            else:
                replay = None  # no checkpoint: recompute from scratch
            if recover_config is not None:
                config = recover_config(restarts)
            vtime = out.end_vtime + RESTART_PENALTY
            continue
