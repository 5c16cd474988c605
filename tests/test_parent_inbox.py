"""The process backends' one parent inbox.

Every message a rank process sends its parent — final report, reshape
note, retired-rank timeline, sockets listener address — rides one
channel, and the collector waits on it together with the sentinels of
the ranks it still owes a report.  These cases pin what that wait must
see:

* a rank that dies mid-phase surfaces as a ``RankFailure`` naming it
  and its exit code within the peer grace (no poll to wait out);
* the same for a sockets rank that dies before posting its address;
* back-to-back launches never mistake a rank that reported and exited
  for one that died before reporting.
"""

import os
import time

import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.core import ExecConfig, Runtime, plug
from repro.dsm.comm import current_rank
from repro.dsm.simcluster import RankFailure
from repro.exec import (
    MultiprocessBackend,
    SocketsBackend,
    build_default_registry,
)
from repro.exec.multiproc import _PEER_GRACE_SECONDS
from repro.vtime import MachineModel

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 24, 8
#: what a dying launch may take beyond the peer grace: fork, the
#: iterations before the crash, terminating and reaping the survivors.
SLACK_SECONDS = 2.0


class CrashingSOR(SOR):
    """SOR whose rank 1 leaves its process mid-phase with exit code 3."""

    def end_iteration(self) -> None:
        super().end_iteration()
        rc = current_rank()
        if rc is not None and rc.rank == 1 and self.iterations_done == 3:
            os._exit(3)


class AddresslessSockets(SocketsBackend):
    """Sockets backend whose rank 1 dies before posting its address."""

    def make_communicator(self, rank, nranks, machine, wiring, plane,
                          mail_epoch):
        if rank == 1:
            os._exit(3)
        return super().make_communicator(rank, nranks, machine, wiring,
                                         plane, mail_epoch)


def run(tmp_path, woven, config, registry=None, tag="run", n=N):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 registry=registry)
    return rt.run(woven, ctor_kwargs={"n": n, "iterations": ITERS},
                  entry="execute", config=config, fresh=True)


def assert_rank1_died(exc_info, started: float) -> None:
    elapsed = time.monotonic() - started
    assert exc_info.value.rank == 1, exc_info.value
    assert "exit code 3 before reporting" in str(exc_info.value)
    assert elapsed < _PEER_GRACE_SECONDS + SLACK_SECONDS, elapsed


def test_multiproc_rank_exit_raises_named_failure(tmp_path):
    reg = build_default_registry()
    reg.register(MultiprocessBackend(join_timeout=30.0), replace=True)
    started = time.monotonic()
    with pytest.raises(RankFailure) as exc_info:
        run(tmp_path, plug(CrashingSOR, SOR_ADAPTIVE),
            ExecConfig.distributed(2).with_backend("multiproc"), reg)
    assert_rank1_died(exc_info, started)


def test_sockets_rank_exit_before_address_raises_named_failure(tmp_path):
    reg = build_default_registry()
    reg.register(AddresslessSockets(join_timeout=30.0), replace=True)
    started = time.monotonic()
    with pytest.raises(RankFailure) as exc_info:
        run(tmp_path, plug(SOR, SOR_ADAPTIVE),
            ExecConfig.distributed(2).with_backend("sockets"), reg)
    assert_rank1_died(exc_info, started)


def test_back_to_back_launches_all_report(tmp_path):
    """30 four-rank launches: every rank that exits after reporting is
    collected as reported, never as dead (a failure would raise)."""
    reg = build_default_registry()
    reg.register(MultiprocessBackend(join_timeout=30.0), replace=True)
    woven = plug(SOR, SOR_ADAPTIVE)
    ref = SOR(n=12, iterations=ITERS).execute()
    config = ExecConfig.distributed(4).with_backend("multiproc")
    started = time.monotonic()
    for i in range(30):
        res = run(tmp_path, woven, config, reg, tag=f"b{i}", n=12)
        assert res.value == ref, i
    assert time.monotonic() - started < 120.0
