"""The version 3 checkpoint container and copy-once capture, as properties.

A full checkpoint is captured by copying each field once and written as
a list of buffers (table, then payloads) that views the captured arrays.
What must not change is the bytes: every stored section is exactly the
field's ``dumps_portable`` encoding, every captured value is exactly
what the old ``loads_portable(dumps_portable(v))`` round trip yielded,
and any damage to an image is a :class:`SnapshotCorrupt`.
"""

from __future__ import annotations

import gc
import struct
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ckpt import CasCheckpointStore, CheckpointStore
from repro.ckpt.snapshot import (
    Snapshot,
    SnapshotCorrupt,
    decode_envelope,
    decode_section,
    encode_container,
)
from repro.dsm.shm import SHM_THRESHOLD
from repro.util.serialization import crc32_of, dumps_portable, loads_portable

DTYPES = [np.dtype(d) for d in
          ("<f8", ">i4", "?", "<c16", "<M8[s]", "<m8[ms]", "<U3", "S2", "u1")]
DTYPES += [np.dtype([("a", "<i4"), ("b", ">f8"), ("c", "<U2")])]
#: a struct with padding: ``np.save`` fills the padding from an
#: uninitialised buffer, so only its fields are comparable.
PADDED = np.dtype([("x", "i1"), ("y", "<i8")], align=True)

PROPS = settings(deadline=None, max_examples=60,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.data_too_large])


def _laid_out(arr: np.ndarray, layout: str) -> np.ndarray:
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "T":  # only F-contiguous when ndim >= 2
        return arr.T
    if layout == "strided" and arr.ndim:
        return arr[..., ::2]
    return arr


@st.composite
def small_arrays(draw):
    """Any bit pattern of a mixed bag of dtypes, 0-d to 3-d, empty
    included, in C, F, transposed or non-contiguous layout."""
    dtype = draw(st.sampled_from(DTYPES))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                  max_side=4))
    size = int(np.prod(shape))
    raw = draw(st.binary(min_size=size * dtype.itemsize,
                         max_size=size * dtype.itemsize))
    arr = np.frombuffer(raw, dtype=dtype, count=size).reshape(shape).copy()
    return _laid_out(arr, draw(st.sampled_from(["C", "F", "T", "strided"])))


@st.composite
def large_arrays(draw):
    """Past the slab threshold (every other column of one too), so
    they would ride the funnel's slabs."""
    rows = 2 * SHM_THRESHOLD // (8 * 40) + draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal((rows, 40)).astype(
        draw(st.sampled_from(["<f8", ">f8", "<c16"])))
    return _laid_out(arr, draw(st.sampled_from(["C", "F", "T", "strided"])))


scalars = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(),
                    st.text(max_size=8), st.binary(max_size=32))
nested = st.recursive(scalars, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.tuples(kids, kids),
    st.dictionaries(st.text(max_size=4), kids, max_size=3)), max_leaves=8)
values = st.one_of(small_arrays(), large_arrays(), nested,
                   st.builds(np.float64, st.floats()),
                   st.builds(np.int32, st.integers(-2**31, 2**31 - 1)))
field_sets = st.dictionaries(st.sampled_from(["G", "step", "meta", "w"]),
                             values, min_size=1, max_size=4)


class Holder:
    def __init__(self, fields: dict) -> None:
        self.__dict__.update(fields)


def _capture(fields: dict) -> Snapshot:
    return Snapshot.capture(Holder(fields), list(fields), count=7, app="P",
                            mode="distributed", nranks=2)


def _payload_start(data: bytes) -> int:
    return 8 + struct.unpack_from("<I", data, 4)[0]


# ---------------------------------------------------------------------------
# capture: one copy, equal to the old round trip
# ---------------------------------------------------------------------------
@PROPS
@given(field_sets)
def test_capture_equals_the_portable_round_trip(fields):
    snap = _capture(fields)
    for name, live in fields.items():
        old = loads_portable(dumps_portable(live))
        got = snap.fields[name]
        assert type(got) is type(old)
        assert dumps_portable(got) == dumps_portable(old)
        if isinstance(old, np.ndarray):
            assert got.dtype == old.dtype and got.dtype.str == old.dtype.str
            assert got.shape == old.shape
            assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
                (old.flags.c_contiguous, old.flags.f_contiguous)
            assert got.flags.writeable
            assert got.base is None or not np.shares_memory(got, live)


@PROPS
@given(small_arrays())
def test_captured_arrays_ignore_later_mutation(arr):
    base = arr if arr.base is None else arr.base
    snap = _capture({"G": arr})
    before = dumps_portable(snap.fields["G"])
    if base.nbytes:
        flat = base.reshape(-1, order="A").view(np.uint8)  # a view
        flat ^= 0xFF
    assert arr.size == 0 or dumps_portable(arr) != before  # live moved
    assert dumps_portable(snap.fields["G"]) == before


# ---------------------------------------------------------------------------
# the container: stored sections are the portable encoding, byte for byte
# ---------------------------------------------------------------------------
@PROPS
@given(field_sets, st.sampled_from([None, 64]))
def test_sections_are_the_portable_encoding(fields, compress):
    snap = _capture(fields)
    data = snap.encode(compress_min_bytes=compress)
    assert data[:4] == b"PCR3"
    header, sections = decode_envelope(data)
    assert header["version"] == 3 and header["fields"] == list(fields)
    for name, live in fields.items():
        blob = dumps_portable(live)
        flags, stored, crc = sections[name]
        assert crc == crc32_of(stored)
        if flags == 0:
            assert bytes(stored) == blob
        assert bytes(decode_section(sections, name)) == blob
    back = Snapshot.decode(data)
    assert (back.app, back.safepoint_count, back.mode, back.meta) == \
        ("P", 7, "distributed", {"nranks": 2})
    for name, live in fields.items():
        assert dumps_portable(back.fields[name]) == dumps_portable(live)
    assert len(data) == sum(len(p) for p in snap.image(compress))


@PROPS
@given(field_sets, st.data())
def test_a_flipped_payload_byte_is_corrupt(fields, data):
    image = bytearray(_capture(fields).encode())
    at = data.draw(st.integers(_payload_start(image), len(image) - 1))
    image[at] ^= data.draw(st.integers(1, 255))
    with pytest.raises(SnapshotCorrupt, match="checksum"):
        Snapshot.decode(bytes(image))


@PROPS
@given(field_sets, st.data())
def test_a_truncated_image_is_corrupt(fields, data):
    image = _capture(fields).encode()
    cut = data.draw(st.integers(0, len(image) - 1))
    with pytest.raises(SnapshotCorrupt):
        Snapshot.decode(image[:cut])


@PROPS
@given(field_sets, st.data())
def test_a_torn_table_is_corrupt(fields, data):
    image = _capture(fields).encode()
    start = _payload_start(image)
    wrong = data.draw(st.integers(0, 2**32 - 1).filter(
        lambda n: n != start - 8))
    misframed = bytearray(image)
    struct.pack_into("<I", misframed, 4, wrong)
    with pytest.raises(SnapshotCorrupt):
        Snapshot.decode(bytes(misframed))
    cut = data.draw(st.integers(8, start - 1))  # part of the table lost
    with pytest.raises(SnapshotCorrupt):
        Snapshot.decode(image[:cut] + image[start:])


# ---------------------------------------------------------------------------
# copy-once: the image views the captured arrays
# ---------------------------------------------------------------------------
def test_the_image_views_the_captured_array():
    live = np.arange(SHM_THRESHOLD, dtype=np.float64).reshape(-1, 64)
    snap = _capture({"G": live, "step": 3})
    table, head, body, step = snap.image()
    assert table[:4] == b"PCR3" and head[:4] == b"NPYA"
    assert isinstance(body, memoryview) and body.readonly
    assert np.shares_memory(np.frombuffer(body, dtype=np.uint8),
                            snap.fields["G"])
    assert bytes(head) + bytes(body) == dumps_portable(live)
    assert step == dumps_portable(3)


def test_padded_structs_round_trip_their_fields():
    live = np.frombuffer(bytes(range(48)), dtype=PADDED).copy()
    snap = _capture({"G": np.asfortranarray(live), "H": live[::2]})
    back = Snapshot.decode(snap.encode())
    for name in ("G", "H"):
        old = loads_portable(dumps_portable(snap.fields[name]))
        for arr in (snap.fields[name], back.fields[name]):
            assert arr.dtype == old.dtype and arr.shape == old.shape
            for f in PADDED.names:
                np.testing.assert_array_equal(arr[f], old[f])


def test_unknown_container_versions_are_rejected(tmp_path):
    """Only version 3 reads: a version 1/2 pickled envelope and a
    container whose header names another version are both corrupt, and
    ``read_latest`` skips either for the newest version 3 file."""
    with pytest.raises(SnapshotCorrupt, match="malformed"):
        Snapshot.decode(b"PCR3")
    blob = dumps_portable(1)
    for version in (1, 2, 9):
        header = _capture({"step": 1}).header()
        header["version"] = version
        envelope = dumps_portable({"header": header, "sections": {
            "step": (0, blob, crc32_of(blob))}})
        with pytest.raises(SnapshotCorrupt, match="malformed"):
            Snapshot.decode(envelope)
        relabelled = b"".join(encode_container(header, {"step": [blob]}))
        with pytest.raises(SnapshotCorrupt, match=f"version {version}"):
            Snapshot.decode(relabelled)
        for cls in (CheckpointStore, CasCheckpointStore):
            store = cls(tmp_path / f"{cls.__name__}-{version}")
            store.write(Snapshot(app="P", safepoint_count=1,
                                 fields={"step": 1}))
            store.path_for(2).write_bytes(envelope)
            store.path_for(3).write_bytes(relabelled)
            assert store.counts() == [1, 2, 3]
            assert store.read_latest().safepoint_count == 1


def test_concurrent_decodes_are_bit_identical():
    """CAS and full restores both decode through ``np.load``, whose
    ``.npy`` header parse builds an AST.  CPython 3.11 keeps the AST
    constructor's recursion depth in per-interpreter state, so a thread
    switch inside one parse (here forced by a garbage-collector callback
    that yields the GIL) lets another thread's parse corrupt it:
    ``SystemError: AST constructor recursion depth mismatch``.  Eight
    threads, at different stack depths, decode mixed and structured
    payloads at once under a 1 us switch interval; each must get
    exactly what a serial decode gives (field by field for structs: a
    padded struct's padding is not data)."""
    rng = np.random.default_rng(3)
    arrays = [np.frombuffer(rng.bytes(dt.itemsize * 600), dtype=dt)
              .reshape(20, 30).copy() for dt in DTYPES + [PADDED]]
    arrays += [np.asfortranarray(a) for a in arrays[:3]]
    blobs = [dumps_portable(a) for a in arrays]
    want = [loads_portable(b) for b in blobs]
    start, errors = threading.Barrier(8), []

    def decode_all(depth):
        if depth:  # the AST constructor's depth starts at the caller's
            return decode_all(depth - 1)
        try:
            start.wait(30.0)
            for _ in range(50):
                for blob, ref in zip(blobs, want):
                    got = loads_portable(blob)
                    if (got.dtype != ref.dtype or got.shape != ref.shape
                            or got.strides != ref.strides
                            or any(got[f].tobytes("A") != ref[f].tobytes("A")
                                   for f in ref.dtype.names or [...])):
                        errors.append((ref.dtype, got.dtype, got.shape))
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    def yield_gil(phase, info):
        time.sleep(0)

    threads = [threading.Thread(target=decode_all, args=(3 * k,),
                                daemon=True) for k in range(8)]
    interval, threshold = sys.getswitchinterval(), gc.get_threshold()
    sys.setswitchinterval(1e-6)
    gc.set_threshold(10)
    gc.callbacks.append(yield_gil)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
    finally:
        gc.callbacks.remove(yield_gil)
        gc.set_threshold(*threshold)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
