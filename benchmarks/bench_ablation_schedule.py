"""Ablation: work-sharing schedule under load imbalance.

The SOR stencil is regular, so its plugs use a static schedule.  This
ablation uses the Series benchmark (per-term trapezoid integrations whose
cost is uniform) and an artificially imbalanced variant to show when the
dynamic schedule earns its keep — the reason the framework exposes
OpenMP's full schedule menu rather than hard-coding static.
"""

from __future__ import annotations

import numpy as np

from paper_report import FigureReport
from repro.apps.series import Series
from repro.core import (
    ExecConfig,
    ForMethod,
    ParallelMethod,
    PlugSet,
    Runtime,
    SingleMethod,
    plug,
)
from repro.smp.sched import Schedule
from repro.vtime.machine import MachineModel

MACHINE = MachineModel(nodes=1, cores_per_node=8)


class SkewedSeries(Series):
    """Series whose term j costs up to ~8x the base term (imbalanced).

    Its declared units are charged at ``Series.compute_terms``'s rate,
    which the subclass inherits from the machine model's kernel table.
    """

    def compute_terms(self, lo: int, hi: int) -> None:
        x = np.linspace(0.0, 2.0, self.m + 1)
        fx = self._f(x)
        for j in range(lo, hi):
            # artificially repeat the integration j-proportionally
            for _ in range(_reps(j)):
                wx = np.pi * j * x
                self.TestArray[0, j] = self._trapezoid(fx * np.cos(wx), x)
                self.TestArray[1, j] = self._trapezoid(fx * np.sin(wx), x)


N_TERMS = 64


def _reps(j: int) -> int:
    return 1 + (7 * j) // N_TERMS


def _skewed_units(lo: int, hi: int) -> int:
    return sum(_reps(j) for j in range(lo, hi))


def _plugs(schedule: Schedule, chunk: int, skewed: bool) -> PlugSet:
    return PlugSet(
        ParallelMethod("do"),
        SingleMethod("compute_a0"),
        # the skewed plug declares its work metric so the virtual-time
        # model sees the imbalance the schedule is supposed to handle
        ForMethod("compute_terms", schedule=schedule, chunk=chunk,
                  units=_skewed_units if skewed else None),
        SingleMethod("finish"),
    )


def test_ablation_schedules(benchmark, tmp_path):
    report = FigureReport(
        "Ablation schedule",
        "Static vs dynamic work sharing, uniform vs skewed terms "
        "(4 threads, virtual seconds)",
        ["workload", "static", "dynamic", "dynamic/static"])

    def run(cls, schedule):
        skewed = cls is SkewedSeries
        woven = plug(cls, _plugs(schedule, chunk=2, skewed=skewed))
        rt = Runtime(machine=MACHINE,
                     ckpt_dir=tmp_path / f"{cls.__name__}-{schedule.value}")
        res = rt.run(woven,
                     ctor_kwargs={"n": N_TERMS, "integration_points": 800},
                     entry="execute", config=ExecConfig.shared(4),
                     fresh=True)
        return res.vtime

    def experiment():
        for name, cls in (("uniform", Series), ("skewed", SkewedSeries)):
            st = run(cls, Schedule.STATIC)
            dy = run(cls, Schedule.DYNAMIC)
            report.add(name, st, dy, dy / st)
        return report

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    report.emit(benchmark)

    rows = {r[0]: r for r in report.rows}
    # dynamic must beat static on the skewed workload (its raison d'etre);
    # the uniform comparison is reported but not asserted — with measured
    # per-chunk costs it sits at the host's timing noise floor.
    assert rows["skewed"][2] < rows["skewed"][1]
