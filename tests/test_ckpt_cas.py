"""The chunked checkpoint object store: fixed-block chunker, dedup CAS,
recipe checkpoints, chunk-ref funnel, GC, corruption isolation.

The load-bearing guarantees:

* chunking is deterministic in the bytes alone: a field is its header
  chunk plus ``BLOCK``-byte blocks of its own memory, the pieces join
  into exactly its portable encoding, and an in-place edit changes the
  digests of exactly the blocks it touches (that locality IS the
  dedup); the chunks equal blocks cut from the joined encoding (the
  oracle);
* a checkpoint's new chunks go out as one pack, durable before its
  recipe: a crash in between leaves orphans GC reclaims, a damaged
  pack damages exactly the fields referencing the damaged entries, and
  no GC can sweep another writer's durable-but-unpublished entries;
* restored values are bit-identical with the CAS on or off, on every
  stock backend, through shard reassembly and across restart and
  adaptation chains;
* flipping one byte of one stored chunk damages exactly the fields
  referencing that chunk; everything else still restores and recovery
  degrades to the previous checkpoint;
* GC leaves zero unreferenced chunks after pruning and after a job
  namespace is torn down — and never frees a chunk another namespace
  still references;
* a chunk's key is SHA-256 cut to 20 bytes, and a directory keyed the
  old way (BLAKE2b-160) fails closed: no field verifies, recovery
  degrades, GC reclaims it once pruned;
* the funnel's parent stores nothing from a write whose shipped chunk
  is off its digest, and a chunk swept between the presence handshake
  and the write is resent, not lost.
"""

import hashlib
import multiprocessing as mp
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.plugs.sor_plugs import SOR_ADAPTIVE
from repro.apps.sor import SOR
from repro.ckpt import (
    CasCheckpointStore,
    CheckpointStore,
    ChunkCorrupt,
    ChunkStore,
    EveryN,
    FailureInjector,
    InjectedFailure,
)
from repro.ckpt import cas as cas_mod
from repro.ckpt import chunker
from repro.ckpt.chunker import BLOCK, chunk_digest, chunk_refs, field_chunks
from repro.ckpt.funnel import CheckpointFunnel, FunnelStore, funnel_shape
from repro.ckpt.restore import FileRecord
from repro.ckpt.snapshot import KIND_RECIPE, Snapshot, SnapshotCorrupt
from repro.core import (
    STRATEGY_LOCAL,
    AdaptStep,
    AdaptationPlan,
    ExecConfig,
    PlugSet,
    Runtime,
    SafeData,
    SafePointAfter,
    plug,
)
from repro.util.serialization import dumps_portable
from repro.vtime import MachineModel
from test_ckpt_format import PROPS, large_arrays, small_arrays, values

MACHINE = MachineModel(nodes=2, cores_per_node=4)
N, ITERS = 40, 12
REF = SOR(n=N, iterations=ITERS).execute()
WOVEN = plug(SOR, SOR_ADAPTIVE)

MULTIPROC = ExecConfig.distributed(3).with_backend("multiproc")
SOCKETS = ExecConfig.distributed(3).with_backend("sockets")
ALL_CONFIGS = [
    ("sequential", ExecConfig.sequential()),
    ("threads", ExecConfig.shared(3)),
    ("simcluster", ExecConfig.distributed(3)),
    ("hybrid", ExecConfig.hybrid(2, 2)),
    ("multiproc", MULTIPROC),
    ("sockets", SOCKETS),
]

HAS_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="needs fork")

def run_sor(tmp_path, config, tag, **kw):
    rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / tag,
                 policy=kw.pop("policy", EveryN(4)),
                 ckpt_cas=kw.pop("ckpt_cas", True), **{
                     k: kw.pop(k) for k in ("ckpt_strategy", "telemetry",
                                            "trace")
                     if k in kw})
    res = rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                 entry="execute", config=config, fresh=True, **kw)
    return rt, res


def locate(cas, digest):
    """``(pack file, offset, stored length)`` of one chunk, read off the
    chunk store's index."""
    with cas.lock:
        name, offset, length, _ = cas._entries()[digest]
    return cas.dir / name, offset, length


def flip_stored_byte(cas, digest, bit):
    """Damage the middle byte of one chunk's stored payload in place."""
    path, offset, length = locate(cas, digest)
    raw = bytearray(path.read_bytes())
    raw[offset + length // 2] ^= bit
    path.write_bytes(bytes(raw))


# ---------------------------------------------------------------------------
# the chunker: a header chunk, then fixed blocks of the field's memory
# ---------------------------------------------------------------------------
def data_digests(value) -> list[str]:
    """Digests of ``value``'s data blocks (its header chunk dropped)."""
    return [d for d, _ in field_chunks(value)[1:]]


class TestChunker:
    def _data(self, n=50_000, seed=7):
        return np.random.default_rng(seed).bytes(n)

    def test_bounds_partition_the_payload(self):
        data = self._data()
        refs = chunk_refs(data)
        assert [a for _, a, _ in refs] == list(range(0, len(data), BLOCK))
        assert [b for _, _, b in refs[:-1]] == [a for _, a, _ in refs[1:]]
        assert refs[-1][2] == len(data)
        sizes = [b - a for _, a, b in refs]
        assert set(sizes[:-1]) == {BLOCK} and 0 < sizes[-1] <= BLOCK

    def test_deterministic_in_the_bytes_alone(self):
        data = self._data()
        assert chunk_refs(data) == chunk_refs(bytearray(data))
        arr = np.frombuffer(data, dtype=np.float64)
        assert [d for d, _ in field_chunks(arr)] == \
            [d for d, _ in field_chunks(arr.copy())]

    def test_refs_concatenate_back_to_the_blob(self):
        data = self._data()
        refs = chunk_refs(data)
        assert b"".join(data[a:b] for _, a, b in refs) == data
        for digest, a, b in refs:
            assert chunk_digest(data[a:b]) == digest

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_insertion_keeps_later_digests(self, seed):
        """Fixed blocks keep every later digest across an insertion only
        when it is block-aligned: whole rows of ``BLOCK`` bytes, as in a
        512-column float64 grid.  An unaligned insertion shifts, and so
        re-hashes, every later block — the trade fixed blocks make for
        fields that are updated in place and never shift."""
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((40, BLOCK // 8))
        at = int(rng.integers(1, 40))
        before = data_digests(grid)
        grown = np.insert(grid, at, rng.standard_normal(BLOCK // 8), axis=0)
        after = data_digests(grown)
        assert after[:at] == before[:at] and after[at + 1:] == before[at:]
        wedged = data_digests(np.insert(grid.ravel(), 0, 1.0))
        assert not set(wedged) & set(before)

    def test_constant_data_degrades_to_fixed_split(self):
        """Constant bytes split like any others, and their equal blocks
        share one digest: dedup within a field."""
        refs = chunk_refs(b"\x00" * 10_000)
        assert [b - a for _, a, b in refs] == \
            [BLOCK, BLOCK, 10_000 - 2 * BLOCK]
        assert refs[0][0] == refs[1][0] != refs[2][0]
        digests = data_digests(np.zeros(4 * BLOCK // 8))
        assert len(digests) == 4 and len(set(digests)) == 1

    def test_small_payload_is_a_single_chunk(self):
        block = b"x" * BLOCK
        assert chunk_refs(block) == [(chunk_digest(block), 0, BLOCK)]
        assert chunk_refs(b"") == []
        assert len(field_chunks(np.zeros(3))) == 2  # header, one block
        assert len(field_chunks(np.zeros((0, 4)))) == 1  # header only
        assert len(field_chunks(7)) == 1  # one pickled chunk

    def test_params_validation(self, tmp_path):
        """There is no chunk-size policy left to validate: ``BLOCK`` is a
        constant, and the old knobs are refused rather than ignored."""
        with pytest.raises(TypeError):
            chunk_refs(b"x" * 100, 64)
        with pytest.raises(TypeError, match="chunk_params"):
            CasCheckpointStore(tmp_path / "c", chunk_params=None)
        with pytest.raises(TypeError, match="ckpt_cas_params"):
            Runtime(ckpt_dir=tmp_path / "r", ckpt_cas=True,
                    ckpt_cas_params=None)
        assert not hasattr(chunker, "ChunkParams")


class TestFixedBlocks:
    @PROPS
    @given(value=values)
    def test_pieces_are_the_portable_encoding(self, value):
        pieces = field_chunks(value)
        assert b"".join(p for _, p in pieces) == dumps_portable(value)
        assert all(0 < len(p) <= BLOCK for _, p in pieces)
        assert all(d == chunk_digest(bytes(p)) for d, p in pieces)

    def test_data_blocks_view_the_field_memory(self):
        grid = np.random.default_rng(0).standard_normal((100, 100))
        _, *blocks = field_chunks(grid)
        assert all(np.shares_memory(np.frombuffer(p, np.uint8), grid)
                   for _, p in blocks)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_in_place_edit_keeps_every_other_digest(self, seed):
        rng = np.random.default_rng(seed)
        grid = rng.standard_normal((200, 300))
        before = data_digests(grid)
        touched = rng.choice(grid.size, size=5, replace=False)
        grid.reshape(-1)[touched] += 1.0
        after = data_digests(grid)
        assert len(after) == len(before)
        changed = {i for i, (a, b) in enumerate(zip(before, after)) if a != b}
        assert changed == {int(i) * 8 // BLOCK for i in touched}

    def test_one_element_touch_rewrites_one_block_and_the_recipe(
            self, tmp_path):
        store = CasCheckpointStore(tmp_path / "c")
        app = Drift(n=300)
        store.write(snap_of(app, 1))
        app.grid[150, 150] += 1.0
        store.write(snap_of(app, 2))
        assert store.last_write_stats["chunks_new"] == 1
        assert store.last_write_nbytes == store.path_for(2).stat().st_size \
            + cas_mod._PACK_ENTRY.size + BLOCK
        np.testing.assert_array_equal(store.read(2).fields["grid"], app.grid)

    @needs_fork
    def test_second_shard_of_a_checkpoint_costs_its_recipe(
            self, tmp_path, monkeypatch):
        """The ``ckpt_cas_write`` ledger configuration (SOR n=384, two
        multiproc ranks, STRATEGY_LOCAL, every second safe point): both
        ranks' shards hold the same full-shape grid, so whichever shard
        of a checkpoint is written second stores its recipe and nothing
        else — at most 2% of the first shard's bytes."""
        costs: dict[int, list[int]] = {}
        real = CasCheckpointStore.write_chunked

        def recording(self, header, recipe, chunks):
            path = real(self, header, recipe, chunks)
            costs.setdefault(header["safepoint_count"], []).append(
                self.last_write_nbytes)
            return path

        monkeypatch.setattr(CasCheckpointStore, "write_chunked", recording)
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                     policy=EveryN(2), ckpt_strategy=STRATEGY_LOCAL,
                     ckpt_cas=True)
        config = ExecConfig.distributed(2).with_backend("multiproc")
        res = rt.run(WOVEN, ctor_kwargs={"n": 384, "iterations": 8},
                     entry="execute", config=config, fresh=True)
        assert res.value == SOR(n=384, iterations=8).execute()
        assert sorted(costs) == [2, 4, 6, 8]
        for count, (first, second) in costs.items():
            assert first > 1_000_000 and second <= 0.02 * first, count


# ---------------------------------------------------------------------------
# the chunker oracle: blocks cut from the joined encoding
# ---------------------------------------------------------------------------
def _cut(blob: bytes) -> list[bytes]:
    return [blob[a:a + BLOCK] for a in range(0, len(blob), BLOCK)]


def spec_digest(b: bytes) -> str:
    """The chunk key, spelled out: SHA-256, first 20 bytes, hex."""
    return hashlib.sha256(b).digest()[:20].hex()


def reference_chunks(arr: np.ndarray) -> list[tuple[str, bytes]]:
    """An array's chunks cut from its joined ``dumps_portable`` bytes:
    the header (everything before the ``arr.nbytes`` of data), then the
    data, each in fixed blocks, each keyed by the digest spec applied
    to a copy."""
    blob = dumps_portable(arr)
    head = len(blob) - arr.nbytes
    return [(spec_digest(b), b)
            for b in _cut(blob[:head]) + _cut(blob[head:])]


#: data lengths that matter: tiny, around one and two block edges, and
#: in between.
_LENGTHS = st.one_of(
    st.integers(0, 64),
    st.integers(BLOCK - 16, BLOCK + 16),
    st.integers(2 * BLOCK - 16, 2 * BLOCK + 16),
    st.integers(0, 8 * BLOCK + 5000))


@st.composite
def buffers(draw):
    n = draw(_LENGTHS)
    kind = draw(st.sampled_from(["random", "constant", "periodic",
                                 "lowentropy"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        return rng.bytes(n)
    if kind == "constant":
        return bytes([draw(st.integers(0, 255))]) * n
    if kind == "periodic":
        unit = rng.bytes(draw(st.integers(1, 48)))
        return (unit * (n // len(unit) + 1))[:n]
    return rng.integers(0, 3, size=n, dtype=np.uint8).tobytes()


class TestChunkerOracle:
    @pytest.mark.parametrize("x", [
        b"", b"\x00", np.random.default_rng(7).bytes(BLOCK),
        memoryview(np.arange(3 * BLOCK // 8, dtype=">f8")),
        memoryview(np.arange(1000, dtype=np.int64).byteswap())],
        ids=["empty", "one-byte", "one-block", "big-endian", "byteswapped"])
    def test_chunk_digest_is_the_spec(self, x):
        """The CAS key is pinned: changing it orphans every stored
        chunk, so it changes only with this test."""
        assert chunk_digest(x) == spec_digest(bytes(x))
        assert len(chunk_digest(x)) == 2 * chunker.DIGEST_SIZE

    @settings(max_examples=120, deadline=None)
    @given(data=buffers())
    def test_bounds_equal_the_reference_form(self, data):
        arr = np.frombuffer(data, dtype=np.uint8)
        got = [(d, bytes(p)) for d, p in field_chunks(arr)]
        assert got == reference_chunks(arr)

    @PROPS
    @given(arr=st.one_of(small_arrays(), large_arrays()))
    def test_every_hash_bit_matches(self, arr):
        """Digests taken from the field's own memory — F-ordered,
        transposed, strided and byte-swapped layouts included — equal
        the reference digests of the joined encoding, bit for bit."""
        assert [d for d, _ in field_chunks(arr)] == \
            [d for d, _ in reference_chunks(arr)]

    @pytest.mark.parametrize("n", [8 * BLOCK + 15, 8 * BLOCK + 16,
                                   24 * BLOCK + 7])
    def test_tile_edges_on_real_sized_fields(self, n):
        """Real-sized fields whose data ends just past a block edge:
        whole blocks, then the short tail."""
        arr = np.frombuffer(np.random.default_rng(n).bytes(n), np.uint8)
        got = field_chunks(arr)
        assert [len(p) for _, p in got[1:]] == \
            [BLOCK] * (n // BLOCK) + [n % BLOCK]
        assert [(d, bytes(p)) for d, p in got] == reference_chunks(arr)


# ---------------------------------------------------------------------------
# the chunk store
# ---------------------------------------------------------------------------
class TestChunkStore:
    def test_roundtrip_and_dedup(self, tmp_path):
        cas = ChunkStore(tmp_path / "cas")
        payload = np.random.default_rng(0).bytes(4096)
        digest = chunk_digest(payload)
        new, stored = cas.put(digest, payload)
        assert new and stored > 0
        again, _ = cas.put(digest, payload)
        assert not again
        assert cas.chunks_stored == 1 and cas.chunks_deduped == 1
        assert cas.bytes_deduped == len(payload)
        got, _ = cas.fetch(digest)
        assert got == payload
        assert cas.missing([digest, "ab" * 20]) == ["ab" * 20]

    def test_missing_chunk_raises(self, tmp_path):
        cas = ChunkStore(tmp_path / "cas")
        with pytest.raises(ChunkCorrupt, match="missing"):
            cas.fetch("00" * 20)

    def test_flipped_bit_is_detected(self, tmp_path):
        cas = ChunkStore(tmp_path / "cas")
        payload = np.random.default_rng(1).bytes(4096)
        digest = chunk_digest(payload)
        cas.put(digest, payload)
        flip_stored_byte(cas, digest, 0x40)
        with pytest.raises(ChunkCorrupt):
            cas.fetch(digest)

    def test_sweep_keeps_only_live(self, tmp_path):
        cas = ChunkStore(tmp_path / "cas")
        digests = []
        for i in range(4):
            payload = bytes([i]) * 1000
            d = chunk_digest(payload)
            cas.put(d, payload)
            digests.append(d)
        live = set(digests[:2])
        n, nbytes = cas.sweep(live)
        assert n == 2 and nbytes > 0
        assert cas.digests() == live
        assert cas.chunks_swept == 2


# ---------------------------------------------------------------------------
# the recipe store, directly
# ---------------------------------------------------------------------------
class Drift:
    """A large mostly-static grid plus a small evolving state."""

    def __init__(self, n=300):
        rng = np.random.default_rng(42)
        self.grid = rng.standard_normal((n, n))
        self.state = np.zeros(8)
        self.step = 0


def snap_of(app, count):
    return Snapshot.capture(app, ["grid", "state", "step"], count)


class TestCasStore:
    def test_roundtrip_matches_plain_store(self, tmp_path):
        app = Drift()
        plain = CheckpointStore(tmp_path / "plain")
        cas = CasCheckpointStore(tmp_path / "cas")
        plain.write(snap_of(app, 1))
        cas.write(snap_of(app, 1))
        assert cas.read(1).field_blobs() == plain.read(1).field_blobs()
        assert cas.read(1).safepoint_count == 1

    def test_recipe_kind_and_cost_accounting(self, tmp_path):
        store = CasCheckpointStore(tmp_path / "c")
        store.write(snap_of(Drift(), 1))
        assert store.last_write_kind == KIND_RECIPE
        first = store.last_write_nbytes
        assert first > 0
        stats = store.last_write_stats
        assert stats["chunks_new"] > 0 and stats["chunks_dedup"] == 0

    def test_one_element_touch_writes_a_few_chunks(self, tmp_path):
        """The sub-field contract a whole-field store can't make: touch one
        element of a 720 KB grid and the next write costs kilobytes."""
        store = CasCheckpointStore(tmp_path / "c")
        app = Drift(n=300)
        store.write(snap_of(app, 1))
        first = store.last_write_nbytes
        app.grid[150, 150] += 1.0
        app.step = 2
        store.write(snap_of(app, 2))
        assert store.last_write_nbytes < first / 10
        stats = store.last_write_stats
        assert 0 < stats["chunks_new"] <= 4
        assert stats["dedup_saved_bytes"] > first / 2
        np.testing.assert_array_equal(store.read(2).fields["grid"],
                                      app.grid)

    def test_unchanged_rewrite_stores_nothing(self, tmp_path):
        store = CasCheckpointStore(tmp_path / "c")
        app = Drift()
        store.write(snap_of(app, 1))
        store.write(snap_of(app, 2))
        assert store.last_write_stats["chunks_new"] == 0

    def test_prune_gc_leaves_zero_unreferenced(self, tmp_path):
        store = CasCheckpointStore(tmp_path / "c")
        app = Drift(n=200)
        for count in range(1, 5):
            app.grid += np.random.default_rng(count).standard_normal(
                app.grid.shape)
            store.write(snap_of(app, count))
        store.prune(keep=1)
        assert store.counts() == [4]
        assert store.unreferenced() == set()
        assert store.cas.digests() == store.live_digests()
        assert store.cas.chunks_swept > 0

    def test_clear_empties_the_cas(self, tmp_path):
        store = CasCheckpointStore(tmp_path / "c")
        store.write(snap_of(Drift(), 1))
        store.clear()
        assert store.counts() == []
        assert store.cas.digests() == set()

    def test_gc_is_correct_across_a_restart(self, tmp_path):
        """The disk scan, not the in-memory counter, decides what dies:
        a fresh store object over the same directory GCs correctly."""
        store = CasCheckpointStore(tmp_path / "c")
        store.write(snap_of(Drift(), 1))
        reopened = CasCheckpointStore(tmp_path / "c")
        assert reopened.unreferenced() == set()
        reopened.gc()
        assert reopened.read(1).safepoint_count == 1  # nothing freed
        reopened.path_for(1).unlink()
        reopened.gc()
        assert reopened.cas.digests() == set()

    def test_namespaces_share_one_cas(self, tmp_path):
        """Multi-tenancy: a second tenant checkpointing the same state
        stores almost nothing, and one tenant's teardown never frees
        chunks the other still references."""
        root = CasCheckpointStore(tmp_path / "c")
        app = Drift()
        j1, j2 = root.namespace("j1"), root.namespace("j2")
        j1.write(snap_of(app, 1))
        stored_after_first = root.cas.chunks_stored
        j2.write(snap_of(app, 1))
        assert j2.last_write_stats["chunks_new"] == 0
        assert root.cas.chunks_stored == stored_after_first
        j1.clear()  # tenant one gone; tenant two must still restore
        snap = j2.read(1)
        np.testing.assert_array_equal(snap.fields["grid"], app.grid)
        j2.clear()
        assert root.cas.digests() == set()

    def test_plain_files_still_read(self, tmp_path):
        """A directory switched to CAS mid-life: pre-existing full
        snapshots read through the recipe store unchanged, copy-once."""
        CheckpointStore(tmp_path / "c").write(snap_of(Drift(), 1))
        store = CasCheckpointStore(tmp_path / "c")
        with store.open(1) as rec:
            assert isinstance(rec, FileRecord)
        assert store.read(1).field_blobs() == \
            CheckpointStore(tmp_path / "c").read(1).field_blobs()


# ---------------------------------------------------------------------------
# packs: one durable file per write, index rebuilt from tables
# ---------------------------------------------------------------------------
def pack_files(cas):
    return sorted(p for p in cas.dir.iterdir() if p.suffix == ".pack")


def some_chunks(n, seed=0, size=700):
    rng = np.random.default_rng(seed)
    payloads = [rng.bytes(size + i) for i in range(n)]
    return [(chunk_digest(p), p) for p in payloads]


class Crash(BaseException):
    """A process death at a chosen point (not an ``Exception``: nothing
    in the store may catch it)."""


class TestPacks:
    def test_a_batch_is_one_pack_and_reopens_from_its_table(self, tmp_path):
        cas = ChunkStore(tmp_path / "cas")
        chunks = some_chunks(5)
        got = cas.put_many(chunks + chunks[:2])  # in-batch duplicates
        assert [new for new, _ in got] == [True] * 5 + [False] * 2
        assert len(pack_files(cas)) == 1
        assert cas.chunks_stored == 5 and cas.chunks_deduped == 2
        assert cas.bytes_stored == pack_files(cas)[0].stat().st_size \
            - cas_mod._PACK_HEAD.size
        # a batch of known digests writes nothing at all
        assert not any(new for new, _ in cas.put_many(chunks))
        assert len(pack_files(cas)) == 1
        # a bare put is a durable one-entry pack
        extra = some_chunks(1, seed=9)[0]
        assert cas.put(*extra)[0]
        assert len(pack_files(cas)) == 2
        reopened = ChunkStore(tmp_path / "cas")
        assert reopened.digests() == {d for d, _ in chunks} | {extra[0]}
        for digest, payload in chunks + [extra]:
            assert reopened.fetch(digest)[0] == payload
            path, offset, length = locate(reopened, digest)
            assert path.read_bytes()[offset:offset + length] == payload

    def test_storage_flags_survive_the_table(self, tmp_path):
        cas = ChunkStore(tmp_path / "cas", compress_min_bytes=64)
        squashy, noisy = b"ab" * 2000, np.random.default_rng(3).bytes(4000)
        cas.put_many([(chunk_digest(squashy), squashy),
                      (chunk_digest(noisy), noisy)])
        reopened = ChunkStore(tmp_path / "cas")
        assert locate(reopened, chunk_digest(squashy))[2] < len(squashy)
        assert reopened.fetch(chunk_digest(squashy))[0] == squashy
        assert reopened.fetch(chunk_digest(noisy))[0] == noisy

    def test_fetch_sees_packs_published_by_another_store_object(
            self, tmp_path):
        reader = ChunkStore(tmp_path / "cas")
        assert reader.digests() == set()  # index built, and empty
        (digest, payload), = some_chunks(1)
        ChunkStore(tmp_path / "cas").put(digest, payload)
        assert reader.fetch(digest)[0] == payload

    def test_crash_between_pack_and_recipe_leaves_only_orphans(
            self, tmp_path, monkeypatch):
        store = CasCheckpointStore(tmp_path / "c")
        app = Drift(n=120)
        store.write(snap_of(app, 1))
        before = store.cas.digests()
        app.grid = app.grid + 1.0
        app.step = 2

        def die(path, data):
            raise Crash

        monkeypatch.setattr(store, "_put", die)
        with pytest.raises(Crash):
            store.write(snap_of(app, 2))
        reopened = CasCheckpointStore(tmp_path / "c")
        assert reopened.counts() == [1]  # no recipe was published
        orphans = reopened.unreferenced()
        assert orphans and orphans == reopened.cas.digests() - before
        n, nbytes = reopened.gc()
        assert n == len(orphans) and nbytes > 0
        assert reopened.unreferenced() == set()
        assert reopened.cas.digests() == before
        assert len(pack_files(reopened.cas)) == 1
        assert reopened.read(1).safepoint_count == 1

    def test_truncated_pack_damages_exactly_its_lost_entries(self, tmp_path):
        store = CasCheckpointStore(tmp_path / "c")
        rng = np.random.default_rng(5)
        app = Drift(n=120)
        store.write(snap_of(app, 1))
        first_pack, = pack_files(store.cas)
        app.grid = rng.standard_normal(app.grid.shape)
        app.state = rng.standard_normal(8)
        app.step = 2
        store.write(snap_of(app, 2))
        victim, = set(pack_files(store.cas)) - {first_pack}
        size = victim.stat().st_size
        cut = size - size // 3  # tears the tail third of the payloads
        with open(victim, "r+b") as fh:
            fh.truncate(cut)

        reopened = CasCheckpointStore(tmp_path / "c")
        lost = store.cas.digests() - reopened.cas.digests()
        assert lost and all(
            locate(store.cas, d)[0] == victim
            and sum(locate(store.cas, d)[1:]) > cut for d in lost)
        expected = sorted(
            name for name, value in snap_of(app, 2).fields.items()
            if lost & {d for d, _ in field_chunks(value)})
        assert reopened.verify(2) == expected and "grid" in expected
        assert reopened.verify(1) == []
        with pytest.raises(SnapshotCorrupt):
            reopened.read(2)
        assert reopened.read_latest().safepoint_count == 1
        # absent entries are simply stored again by the next write
        reopened.write(snap_of(app, 3))
        assert reopened.last_write_stats["chunks_new"] == len(lost)
        np.testing.assert_array_equal(reopened.read(3).fields["grid"],
                                      app.grid)
        assert reopened.verify(2) == []  # ... which heals count 2 too

    def test_unparseable_pack_is_ignored_then_swept(self, tmp_path):
        store = CasCheckpointStore(tmp_path / "c")
        store.write(snap_of(Drift(n=60), 1))
        junk = store.cas.dir / ("0" * 16 + ".pack")
        junk.write_bytes(b"PPK1\xff\xff\xff\x7fnot a table")
        reopened = CasCheckpointStore(tmp_path / "c")
        assert reopened.read(1).safepoint_count == 1
        assert reopened.unreferenced() == set()
        reopened.gc()
        assert not junk.exists() and len(pack_files(reopened.cas)) == 1

    def test_two_shards_shipping_the_same_digests_store_each_once(
            self, tmp_path):
        """Both ranks' presence handshakes race, so the un-owned halves
        of STRATEGY_LOCAL shards arrive twice: the second copy must be
        dropped against the index, not appended."""
        root = CasCheckpointStore(tmp_path / "c")
        snap = snap_of(Drift(n=100), 4)
        recipe, chunks = {}, {}
        for name, value in snap.fields.items():
            recipe[name] = []
            for digest, piece in field_chunks(value):
                recipe[name].append([digest, len(piece)])
                chunks[digest] = piece
        root.shard(0).write_chunked(snap.header(KIND_RECIPE), recipe,
                                    dict(chunks))
        assert root.shard(0).last_write_stats["chunks_new"] == len(chunks)
        packs, = pack_files(root.cas)
        stored = root.cas.bytes_stored
        root.shard(1).write_chunked(snap.header(KIND_RECIPE), recipe,
                                    dict(chunks))
        assert root.shard(1).last_write_stats["chunks_new"] == 0
        assert pack_files(root.cas) == [packs]
        assert root.cas.bytes_stored == stored
        assert root.cas.chunks_stored == len(chunks)
        assert root.cas.chunks_deduped == len(chunks)
        # the second write cost the disk its recipe and nothing else
        assert root.shard(1).last_write_nbytes == \
            root.shard(1).path_for(4).stat().st_size
        assert root.shard(1).read(4).field_blobs() == snap.field_blobs()

    def test_gc_compacts_a_partly_live_pack(self, tmp_path):
        cas = ChunkStore(tmp_path / "cas")
        chunks = some_chunks(6)
        cas.put_many(chunks)
        old, = pack_files(cas)
        old_size = old.stat().st_size
        live = {d for d, _ in chunks[::2]}
        n, nbytes = cas.sweep(live)
        new, = pack_files(cas)
        assert new != old and n == 3
        assert nbytes == old_size - new.stat().st_size > 0
        assert cas.digests() == live
        for reader in (cas, ChunkStore(tmp_path / "cas")):
            for digest, payload in chunks:
                if digest in live:
                    assert reader.fetch(digest)[0] == payload
                else:
                    with pytest.raises(ChunkCorrupt, match="missing"):
                        reader.fetch(digest)
        assert cas.sweep(live) == (0, 0)  # fully live: left alone
        assert pack_files(cas) == [new]

    @pytest.mark.parametrize("durable_first", [True, False])
    def test_compaction_is_crash_safe(self, tmp_path, monkeypatch,
                                      durable_first):
        """New pack durable, *then* old unlinked: dying on either side
        of the new pack's write keeps every live digest fetchable, and
        the next sweep leaves exactly one pack."""
        cas = ChunkStore(tmp_path / "cas")
        chunks = some_chunks(6)
        cas.put_many(chunks)
        live = {d for d, _ in chunks[1::2]}
        real = cas_mod.atomic_write_bytes

        def dying_write(path, data):
            if durable_first:
                real(path, data)
            raise Crash

        monkeypatch.setattr(cas_mod, "atomic_write_bytes", dying_write)
        with pytest.raises(Crash):
            cas.sweep(live)
        monkeypatch.setattr(cas_mod, "atomic_write_bytes", real)
        assert len(pack_files(cas)) == (2 if durable_first else 1)
        reopened = ChunkStore(tmp_path / "cas")
        for digest, payload in chunks:
            if digest in live:
                assert reopened.fetch(digest)[0] == payload
        reopened.sweep(live)
        assert len(pack_files(reopened)) == 1
        assert reopened.digests() == live
        again = ChunkStore(tmp_path / "cas")
        for digest, payload in chunks:
            if digest in live:
                assert again.fetch(digest)[0] == payload


def guarded(errors, fn, *args):
    """A thread running ``fn(*args)`` whose failure lands in ``errors``."""
    def run():
        try:
            fn(*args)
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
    return threading.Thread(target=run, daemon=True)


class TestGcVersusConcurrentWrite:
    def test_gc_cannot_sweep_a_durable_but_unpublished_pack(self, tmp_path):
        """Service teardown GC of job A while job B sits between "pack
        durable" and "recipe published": the one store lock makes GC
        wait, so B's recipe restores bit-identically."""
        root = CasCheckpointStore(tmp_path / "c")
        job_a, job_b = root.namespace("a"), root.namespace("b")
        job_a.write(snap_of(Drift(n=60), 1))
        app = Drift(n=100)
        app.grid += 3.0
        pack_durable, go_on = threading.Event(), threading.Event()
        publish = job_b._put

        def paused_put(path, data):  # the recipe, after the pack
            pack_durable.set()
            assert go_on.wait(30.0), "test never released the writer"
            publish(path, data)

        job_b._put = paused_put
        errors = []
        writer = guarded(errors, job_b.write, snap_of(app, 7))
        writer.start()
        assert pack_durable.wait(30.0), "writer never reached its recipe"
        assert job_b.counts() == []  # durable entries, no recipe yet
        collector = guarded(errors, job_a.clear)  # A's teardown: GC
        collector.start()
        collector.join(0.5)
        assert collector.is_alive(), "GC ran inside another write's window"
        go_on.set()
        writer.join(30.0)
        collector.join(30.0)
        assert not writer.is_alive() and not collector.is_alive()
        assert errors == []
        assert job_b.verify(7) == []
        restored = job_b.read(7)
        np.testing.assert_array_equal(restored.fields["grid"], app.grid)
        assert restored.field_blobs() == snap_of(app, 7).field_blobs()
        assert root.unreferenced() == set()


    def test_writers_and_collectors_hammering_one_cas(self, tmp_path):
        """More threads than cores, a shortened switch interval, writers
        in their own namespaces pruning (= GC) after every save while a
        collector GCs in a loop: every surviving recipe must restore
        bit-identically and nothing may be left unreferenced."""
        import sys
        import time

        root = CasCheckpointStore(tmp_path / "c")
        stop = time.monotonic() + 2.0
        errors, last = [], {}

        def writer(tag):
            store = root.namespace(f"w{tag}")
            app = Drift(n=48)
            count = 0
            while time.monotonic() < stop:
                count += 1
                app.grid[tag % 48] += 1.0  # shares most chunks with peers
                app.step = count
                store.write(snap_of(app, count))
                store.prune(keep=2)
                last[tag] = (count, app.grid.copy())

        def collector():
            while time.monotonic() < stop:
                root.gc()

        threads = [guarded(errors, writer, t) for t in range(4)] \
            + [guarded(errors, collector)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(last) == 4
        for tag, (count, grid) in last.items():
            store = root.namespace(f"w{tag}")
            assert store.verify(count) == []
            np.testing.assert_array_equal(store.read(count).fields["grid"],
                                          grid)
        assert root.unreferenced() == set()


# ---------------------------------------------------------------------------
# corruption isolation
# ---------------------------------------------------------------------------
class TestCorruptionIsolation:
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_one_flipped_byte_damages_exactly_its_fields(self, tmp_path,
                                                         seed):
        """Flip one byte of one stored chunk: ``verify`` names exactly
        the fields referencing that chunk, other checkpoints restore,
        and ``read_latest`` degrades to the previous good one."""
        store = CasCheckpointStore(tmp_path / "c")
        rng = np.random.default_rng(seed)
        app = Drift(n=120)
        store.write(snap_of(app, 1))
        # fully new grid at count 2: its chunks are not shared with 1
        app.grid = rng.standard_normal(app.grid.shape)
        app.state = rng.standard_normal(8)
        app.step = 2
        store.write(snap_of(app, 2))
        snap2 = store.read(2)
        per_field = {name: {d for d, _ in field_chunks(value)}
                     for name, value in snap2.fields.items()}
        fresh = per_field["grid"] - per_field["state"] - per_field["step"]
        victim = sorted(fresh)[len(fresh) // 2]
        expected = sorted(name for name, ds in per_field.items()
                          if victim in ds)
        flip_stored_byte(store.cas, victim, 0x01)

        assert store.verify(2) == expected == ["grid"]
        assert store.verify(1) == []  # count 1 references other chunks
        with pytest.raises(SnapshotCorrupt, match="grid"):
            store.read(2)
        # the rest restores: count 1 intact, recovery degrades to it
        assert store.read(1).safepoint_count == 1
        latest = store.read_latest()
        assert latest is not None and latest.safepoint_count == 1


def blake2b_160(payload) -> str:
    """The chunk key directories were written with before SHA-256/160."""
    return hashlib.blake2b(payload, digest_size=20).hexdigest()


class TestBlake2bDirectories:
    def test_blake2b_keyed_checkpoints_fail_closed(self, tmp_path,
                                                   monkeypatch):
        """A pack and a recipe keyed by BLAKE2b-160 (written byte for
        byte as that store wrote them) sit beside an older checkpoint
        keyed by SHA-256/160.  There is no reader for them: every
        field fails verification, recovery degrades to the older
        checkpoint, and GC reclaims the old pack once it is pruned."""
        store = CasCheckpointStore(tmp_path / "c")
        app = Drift(n=64)
        store.write(snap_of(app, 1))
        good = store.read(1).field_blobs()
        app.grid[0, 0] += 1.0
        app.step = 2
        before = set(pack_files(store.cas))
        with monkeypatch.context() as m:
            m.setattr(chunker, "chunk_digest", blake2b_160)
            m.setattr(cas_mod, "chunk_digest",  # the pack name: BLAKE2b-64
                      lambda t: hashlib.blake2b(t, digest_size=8).hexdigest())
            store.write(snap_of(app, 2))
        (old_pack,) = set(pack_files(store.cas)) - before
        assert store.verify(2) == ["grid", "state", "step"]
        assert store.verify(1) == []
        with pytest.raises(SnapshotCorrupt, match="failed content verif"):
            store.read(2)
        latest = store.read_latest()
        assert latest.safepoint_count == 1 and latest.field_blobs() == good
        store.write(snap_of(app, 3))
        store.prune(keep=1)
        assert not old_pack.exists()
        assert store.unreferenced() == set() and store.gc() == (0, 0)
        assert store.verify(3) == []


# ---------------------------------------------------------------------------
# the funnel's ingest checks (the parent side of a chunk-ref write)
# ---------------------------------------------------------------------------
def chunked(snap):
    """``(recipe, chunks)`` of ``snap`` as a funnel worker ships them."""
    recipe, chunks = {}, {}
    for name, value in snap.fields.items():
        pieces = field_chunks(value)
        recipe[name] = [[d, len(p)] for d, p in pieces]
        chunks.update((d, bytes(p)) for d, p in pieces)
    return recipe, chunks


class TestFunnelIngest:
    def test_a_chunk_off_its_digest_stores_and_publishes_nothing(
            self, tmp_path):
        store = CasCheckpointStore(tmp_path / "c")
        snap = snap_of(Drift(n=64), 1)
        recipe, chunks = chunked(snap)
        bad = recipe["grid"][3][0]
        honest = chunks[bad]
        chunks[bad] = honest[:100] + bytes([honest[100] ^ 1]) + honest[101:]
        with pytest.raises(ChunkCorrupt, match=f"funnelled chunk {bad} "
                                               "failed content verif"):
            store.write_chunked(snap.header(KIND_RECIPE), recipe, chunks)
        assert store.cas.digests() == set() and pack_files(store.cas) == []
        assert store.counts() == []
        chunks[bad] = honest  # the same write, honest, lands
        store.write_chunked(snap.header(KIND_RECIPE), recipe, chunks)
        assert store.read(1).field_blobs() == snap.field_blobs()

    def test_a_chunk_swept_after_the_handshake_is_resent(self, tmp_path,
                                                         monkeypatch):
        """Checkpoint 1 retires and GC sweeps its chunks between the
        presence handshake of checkpoint 2 (same bytes: nothing to ship)
        and its write.  The parent raises ``CAS_CHUNK_MISSING``; the
        worker resends every payload and the write lands."""
        store = CasCheckpointStore(tmp_path / "c")
        funnel = CheckpointFunnel()
        funnel.register("", store)
        client = FunnelStore(0, funnel.pipe(), **funnel_shape(store))
        shipped, ship = [], client._ship

        def counting_ship(snap, field_refs, payloads, needed):
            shipped.append(len(needed))
            return ship(snap, field_refs, payloads, needed)

        missing = store.cas.missing

        def handshake_then_gc(digests):
            out = missing(digests)
            if store.counts() == [1]:
                store.path_for(1).unlink()
                store.gc()
            return out

        monkeypatch.setattr(client, "_ship", counting_ship)
        monkeypatch.setattr(store.cas, "missing", handshake_then_gc)
        app = Drift(n=64)
        n = len(chunked(snap_of(app, 1))[1])
        funnel.start()
        try:
            client.write(snap_of(app, 1))
            client.write(snap_of(app, 2))
        finally:
            funnel.stop()
        assert shipped == [n, 0, n]
        assert store.counts() == [2]
        assert store.read(2).field_blobs() == snap_of(app, 2).field_blobs()
        assert store.unreferenced() == set()


# ---------------------------------------------------------------------------
# parity across backends: bit-identical with the CAS on or off
# ---------------------------------------------------------------------------
class TestBackendParity:
    def test_bit_identical_values_and_checkpoints(self, tmp_path):
        """Every stock backend: same value, and at every safe point the
        restored field bytes equal a CAS-off sequential reference."""
        rt_off, res_off = run_sor(tmp_path, ExecConfig.sequential(),
                                  "off", ckpt_cas=False)
        assert res_off.value == REF
        counts = rt_off.store.counts()
        assert counts, "reference run took no checkpoints"
        ref_blobs = {c: rt_off.store.read(c).field_blobs() for c in counts}
        for label, config in ALL_CONFIGS:
            if label in ("multiproc", "sockets") and not HAS_FORK:
                continue
            rt, res = run_sor(tmp_path, config, f"cas-{label}")
            assert res.value == REF, label
            assert isinstance(rt.store, CasCheckpointStore)
            assert rt.store.counts() == counts, label
            for c in counts:
                assert rt.store.read(c).field_blobs() == ref_blobs[c], \
                    f"checkpoint {c} differs in {label}"

    def test_adaptation_chain_across_backends(self, tmp_path):
        steps = [AdaptStep(at=3, config=ExecConfig.shared(3)),
                 AdaptStep(at=6, config=ExecConfig.distributed(3)),
                 AdaptStep(at=9, config=ExecConfig.hybrid(2, 2))]
        if HAS_FORK:
            steps.insert(2, AdaptStep(at=7, config=MULTIPROC))
        _, res = run_sor(tmp_path, ExecConfig.sequential(), "chain",
                         plan=AdaptationPlan(steps))
        assert res.value == REF

    def test_restart_adaptation_keeps_parity(self, tmp_path):
        """A via_restart step restores from a recipe checkpoint — the
        chain's final value stays bit-identical to the reference."""
        plan = AdaptationPlan([AdaptStep(
            at=6, config=ExecConfig.shared(2), via_restart=True)])
        _, res = run_sor(tmp_path, ExecConfig.sequential(), "restart",
                         plan=plan)
        assert res.value == REF

    def test_crash_recovery_from_recipes(self, tmp_path):
        _, res = run_sor(tmp_path, ExecConfig.distributed(3), "recover",
                         policy=EveryN(3),
                         injector=FailureInjector(fail_at=7),
                         auto_recover=True)
        assert res.value == REF
        assert res.restarts == 1


# ---------------------------------------------------------------------------
# STRATEGY_LOCAL: shard recipes, cross-rank dedup, reassembly
# ---------------------------------------------------------------------------
class TestLocalStrategy:
    def _crash(self, tmp_path, config, fail_at=7):
        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                     policy=EveryN(3), ckpt_strategy=STRATEGY_LOCAL,
                     ckpt_cas=True)
        with pytest.raises(InjectedFailure):
            rt.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                   entry="execute", config=config,
                   injector=FailureInjector(fail_at=fail_at), fresh=True)
        return rt

    def test_cross_rank_dedup_on_shard_writes(self, tmp_path):
        """Each rank's STRATEGY_LOCAL shard is a full-shape array; the
        regions a rank doesn't own are byte-identical across shards and
        must store once in the shared CAS."""
        rt = self._crash(tmp_path, ExecConfig.distributed(3))
        assert sorted(rt.store.shard_counts()) == [3, 6]
        assert rt.store.cas.chunks_deduped > 0
        assert rt.store.cas.bytes_deduped > 0
        # dedup hits mean fewer distinct chunks than total references
        live = rt.store.live_digests()
        refs = rt.store.cas.chunks_stored + rt.store.cas.chunks_deduped
        assert len(live) < refs

    def test_assembled_shards_match_reference(self, tmp_path):
        rt = self._crash(tmp_path, ExecConfig.distributed(3))
        parts = WOVEN.__pp_plugs__.partitioned_fields()
        snap = rt.store.assemble_from_shards(6, parts)
        assert snap is not None
        ref = SOR(n=N, iterations=6)
        ref.execute()
        assert np.array_equal(snap.fields["G"], ref.G)
        assert snap.fields["iterations_done"] == 6

    @needs_fork
    def test_restart_on_shards_through_the_funnel(self, tmp_path):
        """Crash a real-process run (shard recipes arrive through the
        chunk-ref funnel), then recover from the shard set alone."""
        self._crash(tmp_path, MULTIPROC)
        rt2 = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "c",
                      policy=EveryN(3), ckpt_strategy=STRATEGY_LOCAL,
                      ckpt_cas=True)
        res = rt2.run(WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                      entry="execute", config=ExecConfig.shared(2))
        assert res.value == REF
        assert res.events.of_kind("pcr_replay_engaged")


# ---------------------------------------------------------------------------
# the chunk-ref funnel (real processes)
# ---------------------------------------------------------------------------
@needs_fork
class TestChunkFunnel:
    @pytest.mark.parametrize("label,config",
                             [("multiproc", MULTIPROC),
                              ("sockets", SOCKETS)])
    def test_funnelled_checkpoints_bit_identical(self, tmp_path, label,
                                                 config):
        rt_off, res_off = run_sor(tmp_path, config, f"{label}-off",
                                  ckpt_cas=False)
        rt_on, res_on = run_sor(tmp_path, config, f"{label}-on")
        assert res_on.value == res_off.value == REF
        counts = rt_off.store.counts()
        assert rt_on.store.counts() == counts and counts
        for c in counts:
            assert rt_on.store.read(c).field_blobs() == \
                rt_off.store.read(c).field_blobs()
        # steady-state saves shipped only changed chunks
        assert rt_on.store.cas.chunks_stored > 0

    def test_presence_handshake_ships_missing_only(self, tmp_path):
        """Two identical runs into one directory: the second run's
        workers find every chunk already present and ship nothing new
        (fresh=True clears recipes; the CAS keeps its chunks only while
        referenced, so compare within one directory's first run)."""
        rt, _ = run_sor(tmp_path, MULTIPROC, "m1")
        stored_digests = rt.store.cas.digests()
        # every stored chunk is referenced by some recipe — the funnel
        # never shipped a chunk the parent then orphaned
        assert rt.store.unreferenced() == set()
        assert stored_digests


# ---------------------------------------------------------------------------
# telemetry and trace ride-alongs
# ---------------------------------------------------------------------------
class DriftApp:
    """A static table plus a tiny moving state — every save after the
    first is nearly all dedup, which the counters must show."""

    def __init__(self, n=20000, iterations=6):
        self.table = np.arange(n, dtype=np.float64)
        self.state = np.zeros(8)
        self.step = 0
        self.iterations = iterations

    def execute(self):
        for _ in range(self.iterations):
            self.advance()
            self.tick()
        return float(self.state.sum())

    def advance(self):
        self.state += 1.0

    def tick(self):
        self.step += 1


DRIFT_WOVEN = plug(DriftApp, PlugSet(SafeData("table", "state", "step"),
                                     SafePointAfter("tick")))


class TestObservability:
    def test_chunk_counters_and_cas_gauges(self, tmp_path):
        from repro.telemetry import MetricsRegistry

        rt = Runtime(machine=MACHINE, ckpt_dir=tmp_path / "tele",
                     policy=EveryN(1), ckpt_cas=True)
        res = rt.run(DRIFT_WOVEN, ctor_kwargs={}, entry="execute",
                     config=ExecConfig.sequential(), fresh=True)
        assert res.value == DriftApp().execute()
        reg = MetricsRegistry()
        reg.absorb_snapshot(res.metrics)
        assert reg.value("repro_ckpt_chunks_written_total") > 0
        assert reg.value("repro_ckpt_chunks_deduped_total") > 0
        assert reg.value("repro_ckpt_dedup_bytes_saved_total") > 0
        assert reg.value("repro_ckpt_cas_chunks_stored") > 0
        assert reg.value("repro_ckpt_cas_bytes_stored") > 0

    def test_restore_fetch_counters(self, tmp_path):
        from repro.telemetry import MetricsRegistry

        _, res = run_sor(tmp_path, ExecConfig.sequential(), "fetch",
                         telemetry=True, policy=EveryN(3),
                         injector=FailureInjector(fail_at=7),
                         auto_recover=True)
        assert res.value == REF
        reg = MetricsRegistry()
        reg.absorb_snapshot(res.metrics)
        assert reg.value("repro_ckpt_restore_fetches_total") > 0
        assert reg.value("repro_ckpt_restore_fetches") > 0
        assert reg.value("repro_ckpt_restore_seconds") > 0.0

    def test_chunk_and_fetch_spans_in_the_trace(self, tmp_path):
        from repro.trace.assemble import validate_chrome_trace

        _, res = run_sor(tmp_path, ExecConfig.sequential(), "trace",
                         trace=True, policy=EveryN(3),
                         injector=FailureInjector(fail_at=7),
                         auto_recover=True)
        assert res.value == REF
        validate_chrome_trace(res.trace)
        names = {ev.get("name") for ev in res.trace["traceEvents"]}
        assert "ckpt_chunk" in names, "no chunking span recorded"
        assert "ckpt_fetch" in names, "no restore fan-out span recorded"


# ---------------------------------------------------------------------------
# the multi-tenant service shares one CAS
# ---------------------------------------------------------------------------
@needs_fork
class TestServiceCas:
    def test_jobs_checkpoint_through_the_cas_and_teardown_gcs(
            self, tmp_path):
        import time

        from repro.service import RuntimeService, ServiceClient

        with RuntimeService(workers=3, lanes=1, machine=MACHINE,
                            ckpt_dir=str(tmp_path / "svc"),
                            ckpt_cas=True) as svc:
            assert isinstance(svc.store, CasCheckpointStore)
            client = ServiceClient(svc.address)
            for _ in range(2):
                jid = client.submit(
                    WOVEN, ctor_kwargs={"n": N, "iterations": ITERS},
                    entry="execute", nranks=2, policy=EveryN(4))
                out = client.result(jid, timeout=120.0)
                assert out["status"] == "done", out
                assert out["value"] == REF
            assert svc.store.cas.chunks_stored > 0  # recipes were chunked
            # job-namespace teardown GC'd every chunk the jobs wrote:
            # nothing unreferenced may survive (the acceptance gate)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and svc.store.cas.digests():
                time.sleep(0.2)
            assert svc.store.unreferenced() == set()
            assert svc.store.cas.digests() == set()
