"""Shared fixtures and experiment drivers for the figure benchmarks.

All benchmarks use the woven JGF SOR (the paper's evaluation app) on the
paper's two testbeds:

* ``PAPER_CLUSTER``     — 2 nodes x 24 cores (Figures 3-8's cluster);
* ``EIGHT_CORE_CLUSTER``— 4 nodes x 8 cores (Figure 9's cluster).

``run_pp_sor`` launches the pluggable-parallelisation version in any
configuration with any checkpoint policy and returns the RunResult, whose
virtual time is what the figures report.  pytest-benchmark wraps each
experiment once (``pedantic`` with one round) — wall time of the harness
is incidental; the reproduced series are the virtual times.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt.policy import CheckpointPolicy
from repro.core import ExecConfig, Runtime, plug
from repro.vtime.machine import MachineModel

PAPER_CLUSTER = MachineModel(nodes=2, cores_per_node=24)
EIGHT_CORE_CLUSTER = MachineModel(nodes=4, cores_per_node=8)

#: the figure benchmarks' SOR problem (sized for a laptop harness; the
#: paper's absolute seconds are not reproducible, its ratios are).
SOR_N = 700
SOR_ITERS = 100

WOVEN_SOR = plug(SOR, SOR_ADAPTIVE)


def run_pp_sor(config: ExecConfig, tmp_dir, policy: CheckpointPolicy | None = None,
               machine: MachineModel = PAPER_CLUSTER, n: int = SOR_N,
               iterations: int = SOR_ITERS, plan=None, injector=None,
               auto_recover: bool = False, recover_config=None,
               runtime: Runtime | None = None, fresh: bool = True):
    rt = runtime if runtime is not None else Runtime(
        machine=machine, ckpt_dir=tmp_dir, policy=policy)
    res = rt.run(WOVEN_SOR, ctor_kwargs={"n": n, "iterations": iterations},
                 entry="execute", config=config, plan=plan,
                 injector=injector, auto_recover=auto_recover,
                 recover_config=recover_config, fresh=fresh)
    return rt, res


def le_config(le: int) -> ExecConfig:
    """'Lines of execution' (the paper's thread axis)."""
    return ExecConfig.sequential() if le == 1 else ExecConfig.shared(le)


def p_config(p: int) -> ExecConfig:
    """MPI-style process count (the paper's P axis)."""
    return ExecConfig.distributed(p)


@pytest.fixture()
def ckpt_dir(tmp_path):
    return tmp_path / "ckpt"
