"""Tests for repro.util: RNG, serialization, event log."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    EventLog,
    crc32_of,
    dumps_portable,
    loads_portable,
    nbytes_of,
    seeded_rng,
    spawn_rngs,
)


class TestRng:
    def test_seeded_rng_is_deterministic(self):
        a = seeded_rng(42).random(8)
        b = seeded_rng(42).random(8)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(seeded_rng(1).random(8), seeded_rng(2).random(8))

    def test_spawn_rngs_independent_streams(self):
        streams = spawn_rngs(7, 4)
        draws = [g.random(4) for g in streams]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_spawn_rngs_reproducible(self):
        a = [g.random(3) for g in spawn_rngs(11, 3)]
        b = [g.random(3) for g in spawn_rngs(11, 3)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_import_loads_numpy_random(self):
        """numpy loads ``numpy.random`` lazily: importing the helpers
        loads it, so a launch's parent holds it before any rank forks."""
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.util.rng, sys; "
             "print('numpy.random' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "True"


class TestSerialization:
    def test_array_roundtrip(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        y = loads_portable(dumps_portable(x))
        np.testing.assert_array_equal(x, y)
        assert y.dtype == x.dtype

    def test_object_roundtrip(self):
        obj = {"a": [1, 2, 3], "b": ("x", 4.5)}
        assert loads_portable(dumps_portable(obj)) == obj

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            loads_portable(b"XXXXgarbage")

    def test_crc_stable(self):
        assert crc32_of(b"hello") == crc32_of(b"hello")
        assert crc32_of(b"hello") != crc32_of(b"hellp")

    def test_nbytes_array(self):
        x = np.zeros((10, 10), dtype=np.float64)
        assert nbytes_of(x) == 800

    def test_nbytes_bytes_and_list_of_arrays(self):
        assert nbytes_of(b"abcd") == 4
        xs = [np.zeros(4), np.zeros(6)]
        assert nbytes_of(xs) == 80

    def test_nbytes_memoryview_counts_bytes_not_elements(self):
        """Regression: len(memoryview) is the element count, not bytes."""
        x = np.zeros(10, dtype=np.float64)
        mv = memoryview(x)
        assert len(mv) == 10
        assert nbytes_of(mv) == 80
        # multi-dimensional views: len() is only the first axis
        mv2 = memoryview(np.zeros((4, 8), dtype=np.int32))
        assert nbytes_of(mv2) == 128

    def test_nbytes_memoryview_of_bytes(self):
        assert nbytes_of(memoryview(b"abcdef")) == 6

    @given(st.binary(max_size=256))
    def test_portable_bytes_roundtrip(self, data):
        assert loads_portable(dumps_portable(data)) == data

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    max_size=32))
    def test_portable_array_roundtrip_property(self, values):
        x = np.asarray(values, dtype=np.float64)
        np.testing.assert_array_equal(loads_portable(dumps_portable(x)), x)


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit("a", vtime=1.0, rank=0, foo=1)
        log.emit("b", vtime=2.0, rank=1)
        log.emit("a", vtime=3.0, rank=0, foo=2)
        assert len(log) == 3
        assert [e.data["foo"] for e in log.of_kind("a")] == [1, 2]
        assert log.last("a").vtime == 3.0
        assert log.last("missing") is None
        assert log.last().kind == "a"

    def test_clear(self):
        log = EventLog()
        log.emit("x")
        log.clear()
        assert len(log) == 0
        assert log.last() is None

    def test_threaded_emission_is_lossless(self):
        log = EventLog()

        def emit_many(k):
            for i in range(200):
                log.emit("t", rank=k, i=i)

        threads = [threading.Thread(target=emit_many, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 800
