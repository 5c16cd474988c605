"""Copy-free saves: the fence that makes them safe, and what they ship.

A save snapshots the live SafeData fields without copying them
(``Snapshot.borrow``) and is fenced until its ``store.write`` returns.
On the multiprocess backend a shared field crosses the checkpoint funnel
as a borrowed region of its own segment, so the parent's store reads the
very pages the ranks compute on.  What must hold:

* **No torn save** — a store that sleeps in the parent before each write
  (an injected latency, in the manner of a timing-scenario test tool)
  still records, at every count, the grid a sequential run had there,
  bit for bit: no rank resumes mutating the shared pages before the
  parent's write has read them.  Master sync, master async and local
  shards are each checked.
* **Accounting** — a master save ships its field bytes under the
  ``borrow`` send tier; no slab is leased and no rank copies a field.
* **Lifetime** — a warm fleet worker keeps no mapping of a finished
  job's arena segment, and the fleet funnel's attach cache holds one
  mapping per arena segment whatever array a job placed in it.
* **The message path keeps its tiers** — a ``comm.send`` of a shared
  field view still arrives as a private, writable copy.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time

import pytest

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import EveryN
from repro.ckpt import snapshot as snapshot_mod
from repro.ckpt.funnel import FunnelStore
from repro.ckpt.store import CheckpointStore
from repro.ckpt.writer import AsyncCheckpointWriter
from repro.core import ExecConfig, ForMethod, PlugSet, Runtime, plug
from repro.core.context import STRATEGY_LOCAL, STRATEGY_MASTER
from repro.dsm import shm
from repro.dsm.comm import current_rank
from repro.service import RuntimeService, ServiceClient
from repro.smp.sched import Schedule
from repro.telemetry import MetricsRegistry
from repro.vtime import MachineModel

pytestmark = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="rank processes must inherit the test's patches")


class StampedSOR(SOR):
    """SOR that writes its rows straight after each safe point.

    Stock SOR's first write after a safe point follows a halo barrier,
    which would hide a misplaced reader fence; ``stamp`` runs before any
    barrier, so a rank let go too early mutates the pages a save is
    still reading.
    """

    def run(self) -> None:
        for _ in range(self.iterations):
            self.sweep()
            self.end_iteration()
            self.stamp(1, self.n - 1)

    def stamp(self, lo: int, hi: int) -> None:
        self.G[lo:hi, 0] += 1e-9


MACHINE = MachineModel(nodes=2, cores_per_node=4)
WOVEN = plug(SOR, SOR_ADAPTIVE)
STAMPED = plug(StampedSOR, SOR_ADAPTIVE + PlugSet(
    ForMethod("stamp", align="G", schedule=Schedule.STATIC), name="stamp"))
#: 80 KB grids: past the slab threshold, so a copy would ride a slab.
N, ITERS, EVERY = 100, 10, 2
KW = {"n": N, "iterations": ITERS}
MULTIPROC = ExecConfig.distributed(2).with_backend("multiproc")
#: the parent's pause before each write: far longer than a rank needs
#: to reach its next barrier if the reader fence let it go.
DELAY_SECONDS = 0.05


class SlowStore(CheckpointStore):
    """Sleeps in the parent before every write, shards included."""

    def write(self, snap):
        time.sleep(DELAY_SECONDS)
        return super().write(snap)

    def _make_shard(self, rank: int) -> "SlowStore":
        return SlowStore(self.dir, shard_suffix=f".r{rank}")


@pytest.fixture(scope="module")
def sequential_grids(tmp_path_factory):
    """``count -> G`` of a sequential run saving at the same counts."""
    d = tmp_path_factory.mktemp("seq")
    rt = Runtime(machine=MACHINE, ckpt_dir=d, policy=EveryN(EVERY))
    rt.run(STAMPED, ctor_kwargs=KW, entry="execute",
           config=ExecConfig.sequential(), fresh=True)
    grids = {c: rt.store.read(c).fields["G"] for c in rt.store.counts()}
    assert sorted(grids) == list(range(EVERY, ITERS + 1, EVERY))
    return grids


def _no_leaks():
    left = shm.live_segments()
    assert left == [], f"leaked segments: {left}"


# ---------------------------------------------------------------------------
# the torn-save regression
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("variant", ["master-sync", "master-async", "local"])
def test_slow_parent_write_records_no_torn_grid(variant, tmp_path,
                                                sequential_grids):
    store = SlowStore(tmp_path)
    if variant == "master-async":
        store.attach_writer(AsyncCheckpointWriter())
    strategy = STRATEGY_LOCAL if variant == "local" else STRATEGY_MASTER
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path, store=store,
                 policy=EveryN(EVERY), ckpt_strategy=strategy)
    try:
        res = rt.run(STAMPED, ctor_kwargs=KW, entry="execute",
                     config=MULTIPROC, fresh=True)
    finally:
        store.close()
    assert res.value == StampedSOR(**KW).execute()
    if variant == "local":
        by_count = store.shard_counts()
        assert sorted(by_count) == sorted(sequential_grids)
        for count, ranks in by_count.items():
            assert ranks == [0, 1]
            for r in ranks:
                # shared pages: every shard holds the whole committed grid
                got = store.shard(r).read(count).fields["G"]
                assert got.tobytes() == sequential_grids[count].tobytes(), \
                    f"shard {r} at count {count} is torn"
    else:
        assert store.counts() == sorted(sequential_grids)
        for count, want in sequential_grids.items():
            got = store.read(count).fields["G"]
            assert got.tobytes() == want.tobytes(), \
                f"the save at count {count} is torn"
    _no_leaks()


# ---------------------------------------------------------------------------
# accounting: what a multiproc master save ships
# ---------------------------------------------------------------------------
def _refuse_copy(obj):
    raise AssertionError("a fenced save copied a field")


def test_master_save_ships_borrowed_regions(tmp_path, monkeypatch):
    # forked ranks inherit the patch: a capture copy would fail the run
    monkeypatch.setattr(snapshot_mod, "portable_copy", _refuse_copy)
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path, policy=EveryN(EVERY))
    res = rt.run(WOVEN, ctor_kwargs=KW, entry="execute", config=MULTIPROC,
                 fresh=True)
    assert res.value == SOR(**KW).execute()
    saves = len(rt.store.counts())
    assert saves == ITERS // EVERY
    reg = MetricsRegistry()
    reg.absorb_snapshot(res.metrics)
    borrowed = reg.value("repro_dsm_send_bytes_total", {"tier": "borrow"})
    assert borrowed == saves * N * N * 8
    assert reg.value("repro_dsm_send_msgs_total",
                     {"tier": "borrow"}) == saves
    assert reg.value("repro_dsm_send_bytes_total", {"tier": "slab"}) == 0
    assert reg.value("repro_dsm_pool_leases_total") == 0
    _no_leaks()


# ---------------------------------------------------------------------------
# lifetime: the fleet lends and takes back
# ---------------------------------------------------------------------------
def test_lend_ships_regions_until_taken_back():
    seg = shm.ShmSegment.allocate(
        shm.segment_name(shm.new_launch_id("lend"), "G"), (16, 8), "<f8")
    ours, theirs = mp.Pipe()
    try:
        store = FunnelStore(0, theirs, is_async=False)
        view = seg.ndarray()
        store.lend([seg])
        ref = store.shard(1)._wire_value(view[2:4], None)
        assert (ref.kind, ref.name, ref.capacity, ref.offset, ref.shape) \
            == ("borrow", seg.name, seg.size, 2 * 8 * 8, (2, 8))
        # a strided view is no region: it travels as itself
        assert not isinstance(store._wire_value(view[:, 1], None),
                              shm.ShmRef)
        store.lend([])
        assert store._wire_value(view, None) is view
    finally:
        ours.close()
        theirs.close()
        seg.unlink()


def _arena_mappings(pid: int, fleet_id: str) -> list[str]:
    with open(f"/proc/{pid}/maps") as fh:
        return [line.split()[-1] for line in fh
                if f"{shm.SHM_PREFIX}-{fleet_id}-arena-" in line]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the workers' memory maps")
def test_fleet_keeps_no_job_segment_after_the_job(tmp_path):
    # 40 and 44 rows both round up to the 16 KiB arena class: a cache
    # keyed on the array's size would map that segment twice.
    sizes = [40, 44]
    with RuntimeService(workers=3, lanes=1, machine=MACHINE,
                        ckpt_dir=str(tmp_path / "svc")) as svc:
        client = ServiceClient(svc.address)
        for i in range(20):
            n = sizes[i % 2]
            kw = {"n": n, "iterations": 8}
            out = client.result(client.submit(
                WOVEN, ctor_kwargs=kw, entry="execute", nranks=2,
                policy=EveryN(4)), timeout=120.0)
            assert out["status"] == "done", out
            assert out["value"] == SOR(**kw).execute()
        fleet = svc.fleet
        for p in fleet.procs:
            assert _arena_mappings(p.pid, fleet.fleet_id) == [], \
                f"worker {p.name} still maps a finished job's segment"
        cached = {name: (cap, mapping.size) for name, (cap, mapping)
                  in fleet.funnel._client._cache.items()
                  if "-arena-" in name}
        assert cached, "no save crossed the funnel as a borrowed region"
        assert len(cached) <= fleet.arena.stats()["segments"]
        # a ref keyed on the array's size would re-attach the segment
        # every time the job's size alternates.
        assert all(cap == size for cap, size in cached.values()), cached
    _no_leaks()


# ---------------------------------------------------------------------------
# the message path keeps its tiers
# ---------------------------------------------------------------------------
class SendingSOR(SOR):
    """Rank 1 sends its shared ``G`` view to rank 0 after the run."""

    def probe(self) -> tuple:
        value = self.execute()
        rc = current_rank()
        comm = rc.comm
        if rc.rank == 1:
            comm.send(self.G, dest=0, tag=7)
            comm.barrier()
            return value, None
        got = comm.recv(source=1, tag=7)
        writable = bool(got.flags.writeable)
        if writable:
            got[1, 1] = -1.0
        aliased = bool(self.G[1, 1] == -1.0)
        comm.barrier()
        return value, (writable, aliased, got.shape)


def test_send_of_a_shared_view_arrives_as_a_private_copy(tmp_path):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path, policy=EveryN(EVERY))
    res = rt.run(plug(SendingSOR, SOR_ADAPTIVE), ctor_kwargs=KW,
                 entry="probe", config=MULTIPROC, fresh=True)
    value, (writable, aliased, shape) = res.value
    assert value == SOR(**KW).execute()
    assert writable and not aliased and shape == (N, N)
    _no_leaks()
