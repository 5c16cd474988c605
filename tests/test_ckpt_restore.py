"""Copy-once restore: checkpoint bytes land straight in the restored array.

A full checkpoint file is read field by field with ``os.preadv`` into
arrays allocated from each section's ``.npy`` header, a CAS recipe block
by block into the same; shard sets are reassembled with each shard
reading only the rows its rank owned.  What must not change: every
restored value equals the in-memory decode of the same checkpoint (type,
dtype, shape, memory order, bytes), any damage is a
:class:`SnapshotCorrupt`, and recovery degrades exactly as before.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import (
    CasCheckpointStore,
    CheckpointStore,
    EveryN,
    FailureInjector,
    InjectedFailure,
)
from repro.ckpt import cas as cas_mod
from repro.ckpt import restore
from repro.ckpt.chunker import BLOCK, field_chunks
from repro.ckpt.restore import MemoryRecord, assemble, owned_ranges
from repro.ckpt.snapshot import Snapshot, SnapshotCorrupt
from repro.core import STRATEGY_LOCAL, ExecConfig, Runtime, plug
from repro.dsm.partition import BlockLayout, CyclicLayout, HybridLayout
from repro.util.serialization import dumps_portable, loads_portable, npy_header
from repro.vtime import MachineModel
from test_ckpt_cas import flip_stored_byte
from test_ckpt_format import PROPS, Holder, field_sets, small_arrays

MACHINE = MachineModel(nodes=2, cores_per_node=4)
WOVEN = plug(SOR, SOR_ADAPTIVE)
STORES = {"full": CheckpointStore, "cas": CasCheckpointStore}


def _capture(fields: dict, count: int = 7, **meta) -> Snapshot:
    return Snapshot.capture(Holder(fields), list(fields), count=count,
                            app="P", mode="distributed", **meta)


def _same(got, want) -> None:
    """``got`` is exactly what the in-memory decode gives."""
    assert type(got) is type(want)
    assert dumps_portable(got) == dumps_portable(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.dtype.str == want.dtype.str
        assert got.shape == want.shape and got.strides == want.strides
        assert got.flags.writeable


# ---------------------------------------------------------------------------
# whole restores: file and recipe equal the in-memory decode
# ---------------------------------------------------------------------------
@PROPS
@given(field_sets, st.sampled_from([None, 64]),
       st.sampled_from(sorted(STORES)))
def test_store_restores_equal_the_in_memory_decode(tmp_path_factory, fields,
                                                   compress, kind):
    snap = _capture(fields)
    store = STORES[kind](tmp_path_factory.mktemp(kind),
                         compress_min_bytes=compress)
    store.write(snap)
    want = Snapshot.decode(snap.encode())
    got = store.read(7)
    assert (got.app, got.safepoint_count, got.mode) == ("P", 7, "distributed")
    assert list(got.fields) == list(want.fields)
    for name in fields:
        _same(got.fields[name], want.fields[name])


def test_restored_arrays_own_their_memory(tmp_path):
    live = {"C": np.arange(50_000.0).reshape(250, 200),
            "F": np.asfortranarray(np.arange(60_000).reshape(300, 200))}
    for kind, cls in STORES.items():
        store = cls(tmp_path / kind)
        store.write(_capture(live))
        got = store.read(7).fields
        assert got["C"].flags.c_contiguous
        assert got["F"].flags.f_contiguous and not got["F"].flags.c_contiguous
        for name, arr in got.items():
            owner = arr if arr.base is None else arr.base
            assert owner.flags.owndata  # no bytes object behind it
            np.testing.assert_array_equal(arr, live[name])


def test_loads_portable_copies_once_out_of_its_input():
    arr = np.arange(1000, dtype=">i4").reshape(10, 100).T
    blob = bytearray(dumps_portable(arr))
    got = loads_portable(memoryview(blob))
    blob[-1] ^= 0xFF  # the input is not aliased
    np.testing.assert_array_equal(got, arr)
    with pytest.raises(ValueError, match="header describes"):
        loads_portable(dumps_portable(arr) + b"\0")
    with pytest.raises(ValueError, match="header"):
        loads_portable(dumps_portable(arr)[:20])


# ---------------------------------------------------------------------------
# damage is always SnapshotCorrupt, never a wild allocation
# ---------------------------------------------------------------------------
@PROPS
@given(field_sets, st.data())
def test_a_flipped_byte_in_a_file_is_corrupt(tmp_path_factory, fields, data):
    store = CheckpointStore(tmp_path_factory.mktemp("flip"))
    path = store.write(_capture(fields))
    image = bytearray(path.read_bytes())
    start = 8 + int.from_bytes(image[4:8], "little")
    at = data.draw(st.integers(start, len(image) - 1))
    image[at] ^= data.draw(st.integers(1, 255))
    path.write_bytes(bytes(image))
    with pytest.raises(SnapshotCorrupt):
        store.read(7)


def test_a_header_claiming_a_huge_array_is_corrupt(tmp_path):
    """The size check runs before the allocation: a damaged shape never
    asks for terabytes."""
    store = CheckpointStore(tmp_path)
    path = store.write(_capture({"G": np.zeros((4, 4))}))
    image = path.read_bytes()
    old = b"(4, 4), }" + b" " * 14
    assert old in image
    huge = image.replace(old, b"(99999999999, 4), }" + b" " * 4)
    path.write_bytes(huge)
    with pytest.raises(SnapshotCorrupt, match="does not describe"):
        store.read(7)
    path.write_bytes(image.replace(b"(4, 4)", b"(4,99)"))
    with pytest.raises(SnapshotCorrupt, match="does not describe"):
        store.read(7)


def test_a_truncated_file_degrades_to_the_previous_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    for count in (1, 2):
        store.write(_capture({"G": np.full((64, 64), float(count))}, count))
    path = store.path_for(2)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(SnapshotCorrupt):
        store.read(2)
    assert store.read_latest().safepoint_count == 1


def test_short_preadv_reads_are_resumed(tmp_path, monkeypatch):
    """``preadv_all`` keeps reading where a short ``os.preadv`` stopped,
    across and inside buffers."""
    payload = bytes(range(256)) * 40
    path = tmp_path / "f"
    path.write_bytes(payload)
    real = os.preadv

    def dribble(fd, bufs, offset):
        return real(fd, [memoryview(bufs[0])[:7]], offset)

    monkeypatch.setattr(restore.os, "preadv", dribble)
    bufs = [memoryview(bytearray(n)) for n in (5, 1000, 3000)]
    fd = os.open(path, os.O_RDONLY)
    try:
        assert restore.preadv_all(fd, list(bufs), 100)
        assert b"".join(bytes(b) for b in bufs) == payload[100:4105]
        assert not restore.preadv_all(fd, [bytearray(10)], len(payload) - 5)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# the CAS path: blocks land in the array, only the header is fetched
# ---------------------------------------------------------------------------
def test_recipe_blocks_are_read_into_the_array(tmp_path, monkeypatch):
    store = CasCheckpointStore(tmp_path)
    grid = np.random.default_rng(5).standard_normal((300, 200))
    store.write(_capture({"grid": grid, "step": 3}))
    fetched, into = [], []
    real_many = cas_mod.ChunkStore.fetch_many
    real_into = cas_mod.ChunkStore.fetch_into

    def spy_many(self, digests):
        digests = list(digests)
        fetched.extend(digests)
        return real_many(self, digests)

    def spy_into(self, targets):
        into.extend(d for d, _ in targets)
        return real_into(self, targets)

    monkeypatch.setattr(cas_mod.ChunkStore, "fetch_many", spy_many)
    monkeypatch.setattr(cas_mod.ChunkStore, "fetch_into", spy_into)
    got = store.read(7)
    np.testing.assert_array_equal(got.fields["grid"], grid)
    chunks = field_chunks(grid)
    # the grid's header chunk by fetch, every data block straight in
    assert into == [d for d, _ in chunks[1:]]
    assert chunks[0][0] in fetched and chunks[1][0] not in fetched
    assert got.meta["cas_fetches"] == len({d for d, _ in chunks}) + 1


def test_a_flipped_block_names_its_field(tmp_path):
    store = CasCheckpointStore(tmp_path)
    grid = np.arange(40_000.0).reshape(200, 200)
    store.write(_capture({"grid": grid, "step": 3}))
    flip_stored_byte(store.cas, field_chunks(grid)[7][0], 0x10)
    with pytest.raises(SnapshotCorrupt, match="'grid'.*failed content"):
        store.read(7)


@PROPS
@given(small_arrays(), st.data())
def test_fill_writes_exactly_the_asked_ranges(tmp_path_factory, arr, data):
    """Every record kind's ``fill`` writes the asked byte ranges of the
    field's data and leaves every other byte of the buffer alone."""
    snap = _capture({"G": arr})
    blob = dumps_portable(snap.fields["G"])
    want = np.frombuffer(blob, np.uint8)[npy_header(blob)[3]:]
    cuts = sorted(set(data.draw(st.lists(
        st.integers(0, want.nbytes), max_size=6))) | {0, want.nbytes})
    ranges = [(a, b) for k, (a, b) in enumerate(zip(cuts, cuts[1:]))
              if k % 2 == 0 and a < b]
    mask = np.zeros(want.nbytes, bool)
    for a, b in ranges:
        mask[a:b] = True
    for kind, cls in STORES.items():
        store = cls(tmp_path_factory.mktemp(kind))
        store.write(snap)
        for rec in (store.open(7), MemoryRecord(snap)):
            with rec:
                raw = np.full(want.nbytes, 0xA5, np.uint8)
                rec.fill("G", raw, ranges)
                assert (raw[mask] == want[mask]).all()
                assert (raw[~mask] == 0xA5).all()


# ---------------------------------------------------------------------------
# shard reassembly: one allocation, each shard reads its own rows
# ---------------------------------------------------------------------------
def _reference_assembly(arrays: list, part) -> np.ndarray:
    """The old rule: shard 0's copy, each rank's owned rows over it."""
    whole = arrays[0].copy(order="K")
    axis, n = part.layout.axis, arrays[0].shape[part.layout.axis]
    sl = [slice(None)] * whole.ndim
    for r, arr in enumerate(arrays):
        sl[axis] = part.layout.owned(n, r, len(arrays))
        whole[tuple(sl)] = arr[tuple(sl)]
    return whole


@PROPS
@given(st.sampled_from([BlockLayout(axis=0), BlockLayout(axis=1),
                        CyclicLayout(axis=0), HybridLayout(axis=1, block=3)]),
       st.integers(1, 4), st.sampled_from(["C", "F"]),
       st.sampled_from(sorted(STORES)), st.integers(0, 2**32 - 1))
def test_assembly_takes_each_ranks_owned_rows(tmp_path_factory, layout,
                                              nranks, order, kind, seed):
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 90)), int(rng.integers(1, 90)))
    arrays = [np.asarray(rng.standard_normal(shape), order=order)
              for _ in range(nranks)]
    part = SimpleNamespace(layout=layout, whole_at_safepoints=False)
    store = STORES[kind](tmp_path_factory.mktemp("asm"))
    for r, arr in enumerate(arrays):
        store.shard(r).write(_capture({"G": arr, "it": 5}, 3,
                                      nranks=nranks, shard=r))
    snap = store.assemble_from_shards(3, {"G": part})
    want = _reference_assembly(arrays, part)
    assert dumps_portable(snap.fields["G"]) == dumps_portable(want)
    assert snap.fields["it"] == 5 and "shard" not in snap.meta
    assert snap.meta["assembled_from_shards"] == nranks
    # the decode path (records already in memory) agrees byte for byte
    mem = assemble([MemoryRecord(_capture({"G": a, "it": 5}, 3))
                    for a in arrays], {"G": part})
    assert dumps_portable(mem.fields["G"]) == dumps_portable(want)


@pytest.mark.parametrize("shape,fortran,axis,idx,want", [
    ((4, 3), False, 0, [1, 2], [(24, 72)]),
    ((4, 3), False, 1, [0, 2], [(0, 8), (16, 32), (40, 56), (64, 80),
                               (88, 96)]),
    ((4, 3), True, 1, [1], [(32, 64)]),
    ((4, 3), False, 0, [], []),
])
def test_owned_ranges(shape, fortran, axis, idx, want):
    assert owned_ranges(shape, 8, fortran, axis, np.array(idx)) == want


def _crash_local(tmp_path, cas: bool, n: int = 96) -> Runtime:
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c", policy=EveryN(3),
                 ckpt_strategy=STRATEGY_LOCAL, ckpt_cas=cas)
    with pytest.raises(InjectedFailure):
        rt.run(WOVEN, ctor_kwargs={"n": n, "iterations": 8},
               entry="execute", config=ExecConfig.distributed(2),
               injector=FailureInjector(fail_at=7), fresh=True)
    return rt


def _sor_at(n: int, count: int) -> np.ndarray:
    ref = SOR(n=n, iterations=count)
    ref.execute()
    return ref.G


def test_cas_shards_fetch_only_their_own_rows(tmp_path):
    """Two ranks, each shard a full-shape grid: the reassembly fetches
    each data block of the grid about once, not once per shard."""
    n = 96
    rt = _crash_local(tmp_path, cas=True, n=n)
    parts = WOVEN.__pp_plugs__.partitioned_fields()
    snap = rt.store.assemble_from_shards(6, parts)
    np.testing.assert_array_equal(snap.fields["G"], _sor_at(n, 6))
    grid_blocks = -(-n * n * 8 // BLOCK)
    whole = [rt.store.shard(r).read(6).meta["cas_fetches"] for r in (0, 1)]
    # shard 0 reads what a whole read of it does, less the blocks of
    # rank 1's rows; shard 1 adds those rows and its grid's header
    assert snap.meta["cas_fetches"] <= whole[0] + 2
    assert whole[0] > grid_blocks
    assert snap.meta["cas_fetches"] < 0.6 * sum(whole)


def test_a_damaged_block_outside_a_shards_rows_is_never_read(tmp_path):
    """The flip side of reading only owned rows: rank 1's shard may lose
    a block holding rank 0's rows and the set still reassembles; losing
    one of its own rows' blocks degrades to the older set."""
    n = 96
    rt = _crash_local(tmp_path, cas=True, n=n)
    parts = WOVEN.__pp_plugs__.partitioned_fields()
    shard0 = rt.store.shard(0).read(6).fields["G"]
    shard1 = rt.store.shard(1).read(6).fields["G"]
    rows0 = {d for d, _ in field_chunks(shard0)[1:]}
    blocks1 = field_chunks(shard1)[1:]
    half = n * n * 8 // 2  # rank 0 owns the first n/2 rows
    foreign = next(d for k, (d, _) in enumerate(blocks1)
                   if (k + 1) * BLOCK <= half and d not in rows0)
    own = next(d for k, (d, _) in enumerate(blocks1)
               if k * BLOCK >= half and d not in rows0)
    flip_stored_byte(rt.store.cas, foreign, 0x04)
    snap = rt.store.assemble_from_shards(6, parts)
    np.testing.assert_array_equal(snap.fields["G"], _sor_at(n, 6))
    flip_stored_byte(rt.store.cas, own, 0x04)
    assert rt.store.assemble_from_shards(6, parts) is None
    assert rt.store.assemble_latest_from_shards(parts).safepoint_count == 3


def test_a_damaged_full_shard_fails_its_crc_anywhere(tmp_path):
    """A container shard's CRC covers its whole section, so even a byte
    in rows its rank did not own spoils the set."""
    rt = _crash_local(tmp_path, cas=False)
    parts = WOVEN.__pp_plugs__.partitioned_fields()
    path = rt.store.shard(1).path_for(6)
    image = bytearray(path.read_bytes())
    image[len(image) // 3] ^= 0x01  # inside G, among rank 0's rows
    path.write_bytes(bytes(image))
    assert rt.store.assemble_from_shards(6, parts) is None
    assert rt.store.assemble_latest_from_shards(parts).safepoint_count == 3


def test_mismatched_shards_do_not_assemble(tmp_path):
    part = SimpleNamespace(layout=BlockLayout(axis=0),
                           whole_at_safepoints=False)
    store = CheckpointStore(tmp_path)
    for r, arr in enumerate([np.zeros((8, 4)), np.zeros((8, 5))]):
        store.shard(r).write(_capture({"G": arr}, 3, nranks=2, shard=r))
    assert store.assemble_from_shards(3, {"G": part}) is None


# ---------------------------------------------------------------------------
# restore spans
# ---------------------------------------------------------------------------
def _recover(tmp_path, **knobs):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c", policy=EveryN(3),
                 trace=True, **knobs)
    res = rt.run(WOVEN, ctor_kwargs={"n": 48, "iterations": 8},
                 entry="execute", config=ExecConfig.distributed(2),
                 injector=FailureInjector(fail_at=7), auto_recover=True,
                 fresh=True)
    assert res.value == SOR(n=48, iterations=8).execute()
    assert res.restarts == 1
    return {ev["name"]: ev for ev in res.trace["traceEvents"]
            if ev.get("ph") == "B"}


def test_shard_recovery_records_an_assemble_span(tmp_path):
    spans = _recover(tmp_path, ckpt_strategy=STRATEGY_LOCAL, ckpt_cas=True)
    assert spans["ckpt_assemble"]["args"]["nranks"] == 2


def test_full_recovery_records_a_read_span(tmp_path):
    spans = _recover(tmp_path)
    assert spans["ckpt_read"]["args"]["nbytes"] > 48 * 48 * 8
