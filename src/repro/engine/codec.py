"""Plane-wise codec for checkpoint payloads: compress only what compresses.

Engine state is a handful of long numeric arrays, and deflating their
raw bytes is mostly wasted work: the low mantissa bytes of a float64
PageRank vector are noise, while its sign/exponent bytes barely vary.
So each one-dimensional numeric array is *byte-plane shuffled* (plane
``j`` holds byte ``j`` of every element), a 4 KB probe of each plane is
deflated, and only the planes whose probe shrank are deflated in full —
the rest are stored raw.  Boolean arrays are bit-packed first.  Every
other object (scalars, stats records, object or multi-dimensional
arrays) passes through untouched.

:func:`pack` and :func:`unpack` map a payload (nested dicts) to and from
its packed twin; the checkpoint envelope pickles, checksums and stores
the result.  The transform is bit-exact: NaN payloads, signed zeros and
subnormals survive because only raw bytes are moved.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Leading bytes of a plane that are test-deflated to decide its fate.
_PROBE_BYTES = 4096
#: Deflate level: the planes that compress at all compress at the
#: fastest level; higher levels buy a few percent for several times the cost.
_LEVEL = 1
#: Marker key of a packed array inside a packed payload.
_PACKED = "__planes__"


def pack(obj):
    """*obj* with every packable array (see module docstring) packed."""
    if isinstance(obj, dict):
        return {key: pack(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "biuf":
        return _pack_array(obj)
    return obj


def unpack(obj):
    """Inverse of :func:`pack`."""
    if isinstance(obj, dict):
        if _PACKED in obj:
            return _unpack_array(obj)
        return {key: unpack(value) for key, value in obj.items()}
    return obj


def _compressible(plane: np.ndarray) -> bool:
    probe = plane[:_PROBE_BYTES].tobytes()
    return len(zlib.compress(probe, _LEVEL)) < len(probe)


def _pack_array(array: np.ndarray) -> dict:
    raw = np.packbits(array) if array.dtype.kind == "b" else np.ascontiguousarray(array)
    # (length, itemsize) bytes -> one contiguous row per byte plane.
    planes = np.ascontiguousarray(
        raw.view(np.uint8).reshape(len(raw), raw.dtype.itemsize).T
    )
    deflate = np.array([_compressible(plane) for plane in planes], dtype=bool)
    return {
        _PACKED: array.dtype.str,
        "length": len(array),
        "deflated_planes": tuple(deflate.tolist()),
        "deflated": zlib.compress(planes[deflate].tobytes(), _LEVEL) if deflate.any() else b"",
        "stored": planes[~deflate].tobytes(),
    }


def _unpack_array(packed: dict) -> np.ndarray:
    dtype = np.dtype(packed[_PACKED])
    length = packed["length"]
    is_bool = dtype.kind == "b"
    rows = (length + 7) // 8 if is_bool else length
    deflate = np.array(packed["deflated_planes"], dtype=bool)
    deflated = zlib.decompress(packed["deflated"]) if deflate.any() else b""
    planes = np.empty((len(deflate), rows), dtype=np.uint8)
    # reshape refuses plane bytes that do not add up to the declared length.
    num_deflated = int(deflate.sum())
    planes[deflate] = np.frombuffer(deflated, dtype=np.uint8).reshape(num_deflated, rows)
    planes[~deflate] = np.frombuffer(packed["stored"], dtype=np.uint8).reshape(
        len(deflate) - num_deflated, rows
    )
    raw = np.ascontiguousarray(planes.T).reshape(-1)
    if is_bool:
        return np.unpackbits(raw, count=length).astype(bool)
    return raw.view(dtype)
