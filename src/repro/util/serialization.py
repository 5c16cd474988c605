"""Portable serialization helpers used by the checkpoint store.

The paper's central portability requirement (Section I) is that checkpoint
data must be stored in a machine-independent format so an application can
migrate across the heterogeneous resources of a Grid.  We satisfy it by
serialising numpy arrays in their portable ``.npy``-style representation
(dtype string + shape + C-order bytes) and everything else with pickle
protocol 4, and by checksumming every section.

Plain arrays — the bulk of any checkpoint — also have a copy-free form of
the same encoding (:func:`portable_pieces`) and a direct private copy
(:func:`portable_copy`), so a checkpoint can be captured and written
without building its bytes in memory first.  The read side mirrors it:
:func:`npy_header` parses an encoding's header from its first bytes and
:func:`npy_empty` allocates the array ``np.load`` would return, so a
reader can land the data bytes straight in their destination.
"""

from __future__ import annotations

import io
import math
import pickle
import struct
import threading
import zlib
from typing import Any

import numpy as np

try:  # numpy >= 2 keeps the .npy reader and writer in a private module
    from numpy.lib._format_impl import _read_array_header, _write_array_header
except ImportError:  # pragma: no cover - numpy 1.x
    from numpy.lib.format import _read_array_header, _write_array_header

#: pickle protocol pinned for cross-version portability of checkpoints.
PICKLE_PROTOCOL = 4

_ARRAY_TAG = b"NPYA"
_PICKLE_TAG = b"PKL4"

_NPY_MAGIC = b"\x93NUMPY"

#: numpy parses the ``.npy`` header with ``ast.literal_eval``.  On
#: CPython 3.11 the AST constructor keeps its recursion depth in
#: per-interpreter state, so two threads parsing at once can fail with
#: ``SystemError: AST constructor recursion depth mismatch``: header
#: parses take turns (the data copy does not).
_NPY_HEADER_LOCK = threading.Lock()


def dumps_portable(obj: Any) -> bytes:
    """Serialise ``obj`` to a tagged, portable byte string.

    numpy arrays are written in native ``.npy`` format (which is explicitly
    endianness-tagged); all other objects go through pickle.
    """
    if isinstance(obj, np.ndarray):
        buf = io.BytesIO()
        np.save(buf, obj, allow_pickle=False)
        return _ARRAY_TAG + buf.getvalue()
    return _PICKLE_TAG + pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def _plain_array(obj: Any) -> bool:
    """A plain ndarray whose ``.npy`` payload is its raw memory: exact
    type, legacy non-object dtype (``np.save`` pickles anything else)."""
    return (type(obj) is np.ndarray and not obj.dtype.hasobject
            and getattr(type(obj.dtype), "_legacy", True))


def _npy_order(arr: np.ndarray) -> str:
    """The memory order ``np.save`` records (and ``np.load`` yields)."""
    return "F" if arr.flags.f_contiguous and not arr.flags.c_contiguous \
        else "C"


def portable_copy(obj: Any) -> Any:
    """A private copy of ``obj``, equal to its portable round trip
    ``loads_portable(dumps_portable(obj))``.

    A plain array is copied directly — same dtype, shape and the memory
    order the ``.npy`` round trip yields, writeable, owning its memory;
    everything else takes the round trip.
    """
    if _plain_array(obj):
        return obj.copy(order=_npy_order(obj))
    return loads_portable(dumps_portable(obj))


def portable_pieces(obj: Any) -> list:
    """:func:`dumps_portable` as buffers whose concatenation equals it.

    A plain array is two pieces: the tag plus numpy's own ``.npy``
    header, and a read-only byte view of the array's data (a copy only
    when the array is not contiguous).  Anything else is one ``bytes``.
    """
    if not _plain_array(obj):
        return [dumps_portable(obj)]
    head = io.BytesIO()
    head.write(_ARRAY_TAG)
    _write_array_header(head, np.lib.format.header_data_from_array_1_0(obj),
                        None)
    if obj.itemsize == 0:
        return [head.getvalue()]
    data = obj.T if _npy_order(obj) == "F" else np.ascontiguousarray(obj)
    return [head.getvalue(),
            memoryview(data.reshape(-1).view(np.uint8)).toreadonly()]


def npy_header(prefix) -> tuple[np.dtype, tuple, bool, int] | None:
    """``(dtype, shape, fortran_order, data_start)`` of the array encoding
    whose first bytes are ``prefix``; ``data_start`` is the tag plus
    header length, where the array data begins.

    None when ``prefix`` is not an array encoding (a pickled value) or
    does not yet hold the whole header.  Raises ValueError on a malformed
    header or one ``np.load`` would refuse (object dtypes).
    """
    view = memoryview(prefix)
    if bytes(view[:4]) != _ARRAY_TAG:
        return None
    if len(view) < 12:
        return None
    if bytes(view[4:10]) != _NPY_MAGIC:
        raise ValueError("array encoding lacks the .npy magic")
    version = (view[10], view[11])
    if version == (1, 0):
        start = 14 + struct.unpack_from("<H", view, 12)[0]
    elif version in ((2, 0), (3, 0)):
        start = 16 + struct.unpack_from("<I", view, 12)[0]
    else:
        raise ValueError(f"unsupported .npy version {version}")
    if len(view) < start:
        return None
    fp = io.BytesIO(view[12:start])
    try:
        with _NPY_HEADER_LOCK:
            shape, fortran, dtype = _read_array_header(fp, version)
    except Exception as exc:  # a damaged header can fail to tokenize
        raise ValueError(f"malformed .npy header: {exc}") from exc
    if dtype.hasobject:
        raise ValueError("object arrays cannot be loaded without pickle")
    return dtype, shape, fortran, start


def npy_empty(dtype: np.dtype, shape: tuple, fortran: bool
              ) -> tuple[np.ndarray, np.ndarray]:
    """The (uninitialised) array ``np.load`` returns for this header,
    and a writable flat ``uint8`` view of its memory in encoding order —
    filling the view with an encoding's data bytes completes the load."""
    flat = np.empty(math.prod(shape), dtype=dtype)
    raw = flat.view(np.uint8) if dtype.itemsize else np.empty(0, np.uint8)
    if fortran:
        return flat.reshape(shape[::-1]).transpose(), raw
    return flat.reshape(shape), raw


def loads_portable(data) -> Any:
    """Inverse of :func:`dumps_portable`; an array's data is copied once,
    straight from ``data`` into the returned array."""
    view = memoryview(data)
    tag = bytes(view[:4])
    if tag == _ARRAY_TAG:
        head = npy_header(view)
        if head is None:
            raise ValueError("array encoding ends inside its .npy header")
        dtype, shape, fortran, start = head
        arr, raw = npy_empty(dtype, shape, fortran)
        body = view[start:]
        if len(body) != raw.nbytes:
            raise ValueError(f"array data holds {len(body)} bytes, its "
                             f"header describes {raw.nbytes}")
        raw[:] = np.frombuffer(body, dtype=np.uint8)
        return arr
    if tag == _PICKLE_TAG:
        return pickle.loads(view[4:])
    raise ValueError(f"unknown serialization tag {tag!r}")


def crc32_of(data: bytes) -> int:
    """CRC32 checksum as an unsigned 32-bit int."""
    return zlib.crc32(data) & 0xFFFFFFFF


#: section flag: payload is zlib-compressed (checkpoint container format).
SEC_ZLIB = 0x1

#: default threshold below which compression is never attempted — tiny
#: sections (counters, scalars) cost more in header bytes than they save.
COMPRESS_MIN_BYTES = 1 << 12


def pack_section(blob: bytes, compress_min_bytes: int | None
                 ) -> tuple[int, bytes]:
    """Negotiate per-section compression by size threshold.

    Returns ``(flags, stored_blob)``.  Compression is applied only when
    the blob clears the threshold AND actually shrinks; incompressible
    data (already-compressed, high-entropy floats) is stored raw so the
    reader never pays decompression for nothing.
    """
    if compress_min_bytes is not None and len(blob) >= compress_min_bytes:
        packed = zlib.compress(blob, 6)
        if len(packed) < len(blob):
            return SEC_ZLIB, packed
    return 0, blob


def unpack_section(flags: int, blob: bytes) -> bytes:
    """Inverse of :func:`pack_section`."""
    if flags & SEC_ZLIB:
        return zlib.decompress(blob)
    return blob


def nbytes_of(obj: Any) -> int:
    """Approximate wire size of ``obj`` in bytes.

    Used by the network/disk cost models to charge communication time.
    Arrays are charged their buffer size; other objects the length of their
    pickled form.  The pickled length is memoised nowhere on purpose: the
    objects sent through the simulated cluster are small except for arrays.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, memoryview):
        # len() is the element count along the first axis, not bytes
        # (wrong whenever itemsize > 1 or the view is multi-dimensional).
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (list, tuple)) and obj and all(
        isinstance(x, np.ndarray) for x in obj
    ):
        return int(sum(x.nbytes for x in obj))
    if isinstance(obj, dict) and obj and all(
        isinstance(v, np.ndarray) for v in obj.values()
    ):
        # tree-collective envelopes ({rank: contribution}): charging by
        # buffer size keeps the pickle fallback — a full O(payload)
        # serialisation just to measure it — off the send hot path.
        return int(sum(v.nbytes for v in obj.values()))
    try:
        return len(pickle.dumps(obj, protocol=PICKLE_PROTOCOL))
    except Exception:
        return 256  # opaque object: charge a small fixed size
