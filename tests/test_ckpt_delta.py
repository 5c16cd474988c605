"""Incremental (delta) checkpointing: anchors, chains, compression,
chain-aware pruning, and corruption degradation."""

import zlib

import numpy as np
import pytest

from repro.ckpt import (
    AlwaysAnchor,
    AnchorEvery,
    IncrementalCheckpointStore,
    Snapshot,
)
from repro.ckpt.snapshot import (
    KIND_DELTA,
    KIND_FULL,
    SnapshotCorrupt,
    decode_envelope,
)


class Sim:
    """Workload with a large static field and a small evolving one."""

    def __init__(self):
        self.params = np.arange(5000.0)  # never mutated between ckpts
        self.state = np.zeros(8)
        self.step = 0

    def advance(self, k):
        self.state += k
        self.step = k


def take(store, sim, count):
    store.write(Snapshot.capture(sim, ["params", "state", "step"], count))


# ---------------------------------------------------------------------------
# anchor cadence and delta contents
# ---------------------------------------------------------------------------
class TestDeltaEncoding:
    def test_first_write_is_full_anchor(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=4)
        take(store, Sim(), 1)
        assert store.last_write_kind == KIND_FULL

    def test_anchor_cadence(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=3)
        sim = Sim()
        kinds = []
        for c in range(1, 8):
            sim.advance(c)
            take(store, sim, c)
            kinds.append(store.last_write_kind)
        assert kinds == ["full", "delta", "delta",
                         "full", "delta", "delta", "full"]

    def test_delta_stores_only_changed_fields(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=8)
        sim = Sim()
        take(store, sim, 1)
        sim.advance(2)  # params untouched
        take(store, sim, 2)
        header, sections = decode_envelope(store.path_for(2).read_bytes())
        assert header["kind"] == KIND_DELTA
        assert header["base"] == 1
        assert set(header["fields"]) == {"state", "step"}
        assert header["carry"] == ["params"]
        assert "params" not in sections

    def test_delta_bytes_much_smaller_than_full(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=100)
        sim = Sim()
        take(store, sim, 1)
        full = store.last_write_nbytes
        sim.advance(2)
        take(store, sim, 2)
        assert store.last_write_nbytes * 2 < full

    def test_unchanged_state_produces_empty_delta(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=100)
        sim = Sim()
        take(store, sim, 1)
        take(store, sim, 2)  # nothing mutated at all
        header, _ = decode_envelope(store.path_for(2).read_bytes())
        assert header["fields"] == []
        snap = store.read(2)
        np.testing.assert_array_equal(snap.fields["params"], sim.params)

    def test_always_anchor_disables_deltas(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=AlwaysAnchor())
        sim = Sim()
        for c in (1, 2, 3):
            sim.advance(c)
            take(store, sim, c)
            assert store.last_write_kind == KIND_FULL

    def test_field_set_change_forces_anchor(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=100)
        sim = Sim()
        take(store, sim, 1)
        store.write(Snapshot.capture(sim, ["state", "step"], 2))
        assert store.last_write_kind == KIND_FULL

    def test_rewriting_same_count_forces_anchor(self, tmp_path):
        """Deterministic re-execution after recovery re-writes counts it
        already wrote; those must anchor, never self-reference."""
        store = IncrementalCheckpointStore(tmp_path, anchor=100)
        sim = Sim()
        take(store, sim, 1)
        sim.advance(2)
        take(store, sim, 2)
        assert store.last_write_kind == KIND_DELTA
        sim.advance(9)
        take(store, sim, 2)  # same count again (replayed run)
        assert store.last_write_kind == KIND_FULL
        np.testing.assert_array_equal(store.read(2).fields["state"],
                                      sim.state)

    def test_anchor_every_validation(self):
        with pytest.raises(ValueError):
            AnchorEvery(0)


# ---------------------------------------------------------------------------
# chain restore correctness
# ---------------------------------------------------------------------------
class TestChainRestore:
    def test_chain_restores_bit_identically_to_full_snapshot(self, tmp_path):
        """A restore through a delta chain equals a direct full snapshot
        of the same state, bit for bit."""
        inc = IncrementalCheckpointStore(tmp_path / "inc", anchor=4)
        sim = Sim()
        for c in range(1, 11):
            sim.advance(c)
            take(inc, sim, c)
        resolved = inc.read(10)
        direct = Snapshot.capture(sim, ["params", "state", "step"], 10)
        assert list(resolved.fields) == list(direct.fields)
        for name in direct.fields:
            a = np.atleast_1d(resolved.fields[name])
            b = np.atleast_1d(direct.fields[name])
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_every_intermediate_count_restores(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=3)
        sim, states = Sim(), {}
        for c in range(1, 9):
            sim.advance(c)
            states[c] = sim.state.copy()
            take(store, sim, c)
        for c, expected in states.items():
            np.testing.assert_array_equal(store.read(c).fields["state"],
                                          expected)

    def test_restore_into_instance(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=4)
        sim = Sim()
        for c in (1, 2, 3):
            sim.advance(c)
            take(store, sim, c)
        fresh = Sim()
        store.read(3).restore_into(fresh)
        np.testing.assert_array_equal(fresh.state, sim.state)
        assert fresh.step == 3

    def test_read_latest_resolves_chain(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=10)
        sim = Sim()
        for c in (1, 2, 3):
            sim.advance(c)
            take(store, sim, c)
        latest = store.read_latest()
        assert latest.safepoint_count == 3
        np.testing.assert_array_equal(latest.fields["params"], sim.params)

    def test_plain_decode_of_delta_rejected(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=10)
        sim = Sim()
        take(store, sim, 1)
        sim.advance(2)
        take(store, sim, 2)
        with pytest.raises(SnapshotCorrupt, match="delta"):
            Snapshot.decode(store.path_for(2).read_bytes())


# ---------------------------------------------------------------------------
# corruption degradation
# ---------------------------------------------------------------------------
class TestChainCorruption:
    def _chain(self, tmp_path, upto=6, anchor=3):
        store = IncrementalCheckpointStore(tmp_path, anchor=anchor)
        sim = Sim()
        for c in range(1, upto + 1):
            sim.advance(c)
            take(store, sim, c)
        return store

    def test_corrupt_delta_falls_back_to_its_base(self, tmp_path):
        store = self._chain(tmp_path)  # anchors at 1, 4; deltas elsewhere
        p = store.path_for(6)
        data = bytearray(p.read_bytes())
        data[len(data) // 2] ^= 0xFF
        p.write_bytes(bytes(data))
        assert store.read_latest().safepoint_count == 5

    def test_corrupt_anchor_loses_its_whole_interval(self, tmp_path):
        store = self._chain(tmp_path)
        store.path_for(4).write_bytes(b"\x00" * 32)  # kill the anchor
        # deltas 5 and 6 depend on 4; recovery degrades to the delta at 3
        assert store.read_latest().safepoint_count == 3

    def test_missing_base_detected(self, tmp_path):
        store = self._chain(tmp_path)
        store.path_for(4).unlink()
        with pytest.raises((SnapshotCorrupt, OSError)):
            store.read(6)
        assert store.read_latest().safepoint_count == 3

    def test_truncated_newest_falls_back(self, tmp_path):
        store = self._chain(tmp_path)
        p = store.path_for(6)
        p.write_bytes(p.read_bytes()[: 20])
        assert store.read_latest().safepoint_count == 5

    def test_self_referencing_base_rejected(self, tmp_path):
        store = self._chain(tmp_path, upto=2, anchor=10)
        # hand-craft a delta whose base >= its own count
        header, _ = decode_envelope(store.path_for(2).read_bytes())
        from repro.ckpt.snapshot import encode_container

        header["base"] = 7
        header["safepoint_count"] = 7
        store.path_for(7).write_bytes(b"".join(encode_container(header, {})))
        with pytest.raises(SnapshotCorrupt, match="base"):
            store.read(7)


# ---------------------------------------------------------------------------
# chain-aware pruning
# ---------------------------------------------------------------------------
class TestChainPrune:
    def test_prune_keeps_chain_dependencies(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=4)
        sim = Sim()
        for c in range(1, 8):  # anchors at 1 and 5
            sim.advance(c)
            take(store, sim, c)
        store.prune(keep=1)
        # 7 is a delta on 6 on 5 (anchor): all three must survive
        assert store.counts() == [5, 6, 7]
        np.testing.assert_array_equal(store.read(7).fields["state"],
                                      sim.state)

    def test_prune_anchor_only_chain(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=AlwaysAnchor())
        sim = Sim()
        for c in range(1, 6):
            sim.advance(c)
            take(store, sim, c)
        store.prune(keep=1)
        assert store.counts() == [5]

    def test_clear_resets_baseline(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, anchor=100)
        sim = Sim()
        take(store, sim, 1)
        store.clear()
        sim.advance(2)
        take(store, sim, 2)
        assert store.last_write_kind == KIND_FULL  # no dangling base


# ---------------------------------------------------------------------------
# transparent compression
# ---------------------------------------------------------------------------
class TestCompression:
    def test_compressed_roundtrip(self, tmp_path):
        class Z:
            def __init__(self):
                self.big = np.zeros(50_000)  # highly compressible
                self.step = 3

        store = IncrementalCheckpointStore(tmp_path, anchor=2,
                                           compress_min_bytes=4096)
        z = Z()
        store.write(Snapshot.capture(z, ["big", "step"], 1))
        assert store.last_write_nbytes < 50_000 * 8 // 10
        snap = store.read(1)
        np.testing.assert_array_equal(snap.fields["big"], z.big)
        assert snap.fields["step"] == 3

    def test_small_sections_stay_raw(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path,
                                           compress_min_bytes=1 << 20)
        sim = Sim()
        take(store, sim, 1)
        header, sections = decode_envelope(store.path_for(1).read_bytes())
        assert all(flags == 0 for flags, _, _ in sections.values())

    def test_incompressible_sections_stay_raw(self, tmp_path):
        class R:
            def __init__(self):
                rng = np.random.default_rng(0)
                self.noise = rng.bytes(100_000)  # zlib cannot shrink this

        store = IncrementalCheckpointStore(tmp_path, compress_min_bytes=64)
        store.write(Snapshot.capture(R(), ["noise"], 1))
        _, sections = decode_envelope(store.path_for(1).read_bytes())
        (flags, blob, _crc) = sections["noise"]
        assert flags == 0  # negotiation declined: compressed >= raw
        store.read(1)

    def test_compressed_corruption_detected_before_decompress(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, compress_min_bytes=64)
        sim = Sim()
        take(store, sim, 1)
        p = store.path_for(1)
        data = bytearray(p.read_bytes())
        data[len(data) - 40] ^= 0x01
        p.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorrupt):
            store.read(1)

    def test_version1_files_still_readable(self, tmp_path):
        """Seed-format checkpoints (v1: (blob, crc) sections) load fine."""
        from repro.util.serialization import crc32_of, dumps_portable

        sim = Sim()
        blob = dumps_portable(sim.params)
        envelope = {
            "header": {"version": 1, "app": "Sim", "safepoint_count": 5,
                       "mode": "sequential", "meta": {},
                       "fields": ["params"]},
            "sections": {"params": (blob, crc32_of(blob))},
        }
        store = IncrementalCheckpointStore(tmp_path)
        store.path_for(5).write_bytes(dumps_portable(envelope))
        snap = store.read(5)
        assert snap.safepoint_count == 5
        np.testing.assert_array_equal(snap.fields["params"], sim.params)

    def test_compression_actually_uses_zlib_format(self, tmp_path):
        store = IncrementalCheckpointStore(tmp_path, compress_min_bytes=64)
        z = Sim()
        z.params = np.zeros(10_000)
        store.write(Snapshot.capture(z, ["params"], 1))
        _, sections = decode_envelope(store.path_for(1).read_bytes())
        flags, blob, _ = sections["params"]
        assert flags & 0x1
        zlib.decompress(blob)  # must be a valid zlib stream


class TestContentHashValue:
    """The buffer-direct digest must never collide where the old
    blob digest (over the full .npy encoding) could not."""

    def test_matches_change_detection_of_blob_hash(self):
        from repro.ckpt.delta import content_hash_value

        a = np.arange(12.0).reshape(3, 4)
        assert content_hash_value(a) == content_hash_value(a.copy())
        b = a.copy()
        b[1, 2] += 1e-9
        assert content_hash_value(a) != content_hash_value(b)
        # shape and dtype are part of the identity, not just the bytes
        assert content_hash_value(a) != content_hash_value(a.reshape(4, 3))
        assert content_hash_value(np.zeros(4, np.int64)) \
            != content_hash_value(np.zeros(4, np.float64))
        # non-contiguous views hash by value, like their encoding does
        assert content_hash_value(a[:, ::2]) \
            == content_hash_value(np.ascontiguousarray(a[:, ::2]))

    def test_structured_dtypes_of_equal_itemsize_do_not_collide(self):
        from repro.ckpt.delta import content_hash_value

        ab = np.zeros(4, dtype=[("a", "<i4"), ("b", "<i4")])
        xy = np.zeros(4, dtype=[("x", "<f4"), ("y", "<i4")])
        # dtype.str collapses both to "|V8"; the digest must not
        assert content_hash_value(ab) != content_hash_value(xy)

    def test_non_array_values_hash_via_portable_encoding(self):
        from repro.ckpt.delta import content_hash, content_hash_value
        from repro.util.serialization import dumps_portable

        v = {"k": [1, 2, 3]}
        assert content_hash_value(v) == content_hash(dumps_portable(v))

    def test_memory_order_flip_with_equal_values_is_a_change(self):
        from repro.ckpt.delta import content_hash_value

        c = np.arange(12.0).reshape(3, 4)
        f = np.asfortranarray(c)
        assert np.array_equal(c, f)
        # np.save records fortran_order, so the encodings differ; the
        # digest must treat the order flip as a change or a delta would
        # carry the stale-order blob across a recovery.
        assert content_hash_value(c) != content_hash_value(f)
        # 1-D arrays are both C- and F-contiguous: one identity
        assert content_hash_value(np.arange(5.0)) \
            == content_hash_value(np.asfortranarray(np.arange(5.0)))
