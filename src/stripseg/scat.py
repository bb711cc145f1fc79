"""SCAT v1 tensor file format.

Layout: bytes 0-3 magic "SCAT"; byte 4 version (1); byte 5 ndim (u8);
then ndim little-endian u32 extents; then the row-major float32
little-endian payload, narrowed from the internal fp64 values. Values that
do not narrow to a finite float32 (NaN, infinities, magnitudes beyond the
float32 range) are refused, so a written file always holds finite values.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .tensor import Tensor

MAGIC = b"SCAT"
VERSION = 1


def scat_array(value: Union[Tensor, np.ndarray]) -> np.ndarray:
    """The float32 array a SCAT file of value holds; ValueError if SCAT cannot hold it."""
    arr = value.data if isinstance(value, Tensor) else np.asarray(value, dtype=np.float64)
    if arr.ndim > 255:
        raise ValueError("SCAT v1 supports at most 255 dimensions")
    if any(e > 0xFFFFFFFF for e in arr.shape):
        raise ValueError("SCAT v1 extents must fit in u32")
    with np.errstate(over="ignore"):
        narrowed = np.ascontiguousarray(arr, dtype="<f4")
    finite = np.isfinite(narrowed)
    if not finite.all():
        first = tuple(int(i) for i in np.unravel_index(np.argmin(finite), arr.shape))
        raise ValueError(
            f"SCAT cannot hold {finite.size - np.count_nonzero(finite)} value(s) that are "
            f"non-finite or beyond the float32 range; the first is at index {first}"
        )
    return narrowed


def scat_bytes(value: Union[Tensor, np.ndarray]) -> bytes:
    arr = scat_array(value)
    header = MAGIC + struct.pack("<BB", VERSION, arr.ndim)
    extents = struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + extents + arr.tobytes()


def save_scat(path: Union[str, Path], value: Union[Tensor, np.ndarray]) -> None:
    Path(path).write_bytes(scat_bytes(value))


def load_scat(path: Union[str, Path]) -> np.ndarray:
    """Read a SCAT v1 file into an fp64 array."""
    raw = Path(path).read_bytes()
    if len(raw) < 6 or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a SCAT file")
    version, ndim = raw[4], raw[5]
    if version != VERSION:
        raise ValueError(f"{path}: unsupported SCAT version {version}")
    offset = 6 + 4 * ndim
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated SCAT header")
    shape = struct.unpack(f"<{ndim}I", raw[6:offset])
    count = math.prod(shape)
    payload = raw[offset:]
    if len(payload) != 4 * count:
        raise ValueError(f"{path}: payload holds {len(payload) // 4} values, expected {count}")
    return np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(shape)
