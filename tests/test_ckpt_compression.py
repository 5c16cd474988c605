"""Transparent per-section zlib compression, in both stores: container
sections and CAS pack entries are compressed only when that shrinks
them, and damage to a compressed payload is detected."""

import zlib

import numpy as np
import pytest

from repro.ckpt import CasCheckpointStore, CheckpointStore, Snapshot
from repro.ckpt.snapshot import SnapshotCorrupt, decode_envelope
from test_ckpt_cas import flip_stored_byte

STORES = {"full": CheckpointStore, "cas": CasCheckpointStore}


class Sim:
    """Workload with a large static field and a small evolving one."""

    def __init__(self):
        self.params = np.arange(5000.0)
        self.state = np.zeros(8)
        self.step = 0


def take(store, sim, count):
    store.write(Snapshot.capture(sim, ["params", "state", "step"], count))


def stored(store, count):
    """field -> ``[(compressed, stored bytes)]``: what the disk holds for
    it, one entry per container section or CAS chunk."""
    header, sections = decode_envelope(store.path_for(count).read_bytes())
    if not isinstance(store, CasCheckpointStore):
        return {name: [(bool(flags), bytes(blob))]
                for name, (flags, blob, _) in sections.items()}
    out = {}
    for name, refs in header["recipe"].items():
        out[name] = []
        for digest, length in refs:
            path, offset, nbytes = store.cas.locate(digest)
            raw = path.read_bytes()[offset:offset + nbytes]
            # an entry is only ever compressed when that shrinks it
            out[name].append((nbytes < length, raw))
    return out


@pytest.fixture(params=sorted(STORES))
def make(request, tmp_path):
    return lambda **kw: STORES[request.param](tmp_path, **kw)


def test_compressed_roundtrip(make):
    class Z:
        def __init__(self):
            # compressible, and no two 4 KiB blocks alike, so the CAS
            # has to compress rather than deduplicate
            self.big = np.repeat(np.arange(500.0), 100)
            self.step = 3

    store = make(compress_min_bytes=4096)
    z = Z()
    store.write(Snapshot.capture(z, ["big", "step"], 1))
    assert store.last_write_nbytes < 50_000 * 8 // 10
    snap = store.read(1)
    np.testing.assert_array_equal(snap.fields["big"], z.big)
    assert snap.fields["step"] == 3


def test_small_sections_stay_raw(make):
    store = make(compress_min_bytes=1 << 20)
    take(store, Sim(), 1)
    entries = [e for es in stored(store, 1).values() for e in es]
    assert entries and not any(compressed for compressed, _ in entries)


def test_incompressible_sections_stay_raw(make):
    class R:
        def __init__(self):
            rng = np.random.default_rng(0)
            self.noise = rng.bytes(100_000)  # zlib cannot shrink this

    store = make(compress_min_bytes=64)
    store.write(Snapshot.capture(R(), ["noise"], 1))
    # negotiation declined: compressed >= raw
    assert not any(compressed for compressed, _ in stored(store, 1)["noise"])
    assert store.read(1).fields["noise"] == R().noise


def test_compressed_corruption_is_detected(make):
    store = make(compress_min_bytes=64)
    take(store, Sim(), 1)
    path = store.path_for(1)
    if isinstance(store, CasCheckpointStore):
        refs = decode_envelope(path.read_bytes())[0]["recipe"]["params"]
        squashed = [d for (d, _), (compressed, _) in
                    zip(refs, stored(store, 1)["params"]) if compressed]
        flip_stored_byte(store.cas, squashed[0], 0x01)
    else:
        data = bytearray(path.read_bytes())
        data[len(data) - 40] ^= 0x01
        path.write_bytes(bytes(data))
    with pytest.raises(SnapshotCorrupt):
        store.read(1)


def test_compression_actually_uses_zlib_format(make):
    store = make(compress_min_bytes=64)
    z = Sim()
    z.params = np.zeros(10_000)
    store.write(Snapshot.capture(z, ["params"], 1))
    squashed = [raw for compressed, raw in stored(store, 1)["params"]
                if compressed]
    assert squashed
    for raw in squashed:
        zlib.decompress(raw)  # must be a valid zlib stream
