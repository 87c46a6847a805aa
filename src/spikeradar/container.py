"""Single-tensor container file format.

A container file is one UTF-8 JSON header line followed by a raw little-endian
payload:

    {"dtype": "f32", "shape": [48, 100], "axes": ["time", "doppler"], "endian": "little"}\n
    <payload bytes>

Supported dtype tags:

    f32  little-endian float32
    c64  little-endian complex64, interleaved (re, im) pairs
    u1   bit-packed binary values, C-order element order, MSB-first within each
         byte, final byte zero-padded
    f64  little-endian float64 (model weights)
    i8   int8 (quantized weight codes)

Records can be stacked in one file (the model file format does this), so the
read/write primitives also operate on open binary file objects.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .errors import InvalidInput

# Caps the header line; a real header is well under 1 KiB.
_MAX_HEADER_BYTES = 65536
_MAX_ELEMENTS = np.iinfo(np.int64).max

_DTYPES = {
    "f32": np.dtype("<f4"),
    "c64": np.dtype("<c8"),
    "f64": np.dtype("<f8"),
    "i8": np.dtype("int8"),
}


def write_tensor_to(f, values: np.ndarray, axes, dtype: str) -> None:
    """Write one tensor record (header line + payload) to an open binary file;
    dtype is the tag the values are stored as."""
    values = np.asarray(values)
    axes = [str(a) for a in axes]
    if len(axes) != values.ndim:
        raise InvalidInput(
            f"axes labels {axes} do not match tensor rank {values.ndim}"
        )
    if dtype == "u1":
        if not np.isin(values, (0, 1)).all():
            raise InvalidInput("u1 tensors may only contain 0 and 1")
        payload = np.packbits(values.astype(np.uint8).ravel(order="C"), bitorder="big").tobytes()
    elif dtype in _DTYPES:
        payload = np.ascontiguousarray(values.astype(_DTYPES[dtype])).tobytes()
    else:
        raise InvalidInput(f"unknown container dtype tag {dtype!r}")
    header = {
        "dtype": dtype,
        "shape": [int(n) for n in values.shape],
        "axes": axes,
        "endian": "little",
    }
    f.write(json.dumps(header).encode("utf-8"))
    f.write(b"\n")
    f.write(payload)


def _bytes_left(f) -> int | None:
    """Bytes between the position of f and its end; None if f cannot seek."""
    try:
        here = f.tell()
        end = f.seek(0, os.SEEK_END)
        f.seek(here)
    except (AttributeError, OSError):
        return None
    return end - here


def read_tensor_from(f):
    """Read one tensor record from an open binary file.

    Returns:
        (values, header) where values is a numpy array (f32 -> float32,
        c64 -> complex64, u1 -> uint8 in {0, 1}, f64 -> float64, i8 -> int8)
        and header is the parsed header dict.
    """
    line = f.readline(_MAX_HEADER_BYTES)
    if not line.endswith(b"\n"):
        raise InvalidInput("container header line missing or unterminated")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"container header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise InvalidInput("container header must be a JSON object")
    for key in ("dtype", "shape", "axes", "endian"):
        if key not in header:
            raise InvalidInput(f"container header missing field {key!r}")
    if header["endian"] != "little":
        raise InvalidInput(f"unsupported endianness {header['endian']!r}")
    shape = header["shape"]
    if not isinstance(shape, list) or any(
        not isinstance(n, int) or isinstance(n, bool) or n < 0 for n in shape
    ):
        raise InvalidInput(f"container shape must be a list of non-negative ints, got {shape!r}")
    axes = header["axes"]
    if not isinstance(axes, list) or len(axes) != len(shape):
        raise InvalidInput(
            f"container axes {axes!r} do not match shape rank {len(shape)}"
        )
    tag = header["dtype"]
    n_elem = math.prod(shape)  # exact: Python ints do not wrap
    if n_elem > _MAX_ELEMENTS:
        raise InvalidInput(f"container shape {shape} has more elements than int64 holds")
    if tag == "u1":
        n_bytes = (n_elem + 7) // 8
    elif tag in _DTYPES:
        n_bytes = n_elem * _DTYPES[tag].itemsize
    else:
        raise InvalidInput(f"unknown container dtype tag {tag!r}")
    left = _bytes_left(f)
    if left is not None and n_bytes > left:
        raise InvalidInput(
            f"container payload truncated: shape {shape} needs {n_bytes} bytes, "
            f"{left} remain"
        )
    payload = f.read(n_bytes)
    if len(payload) != n_bytes:
        raise InvalidInput(
            f"container payload truncated: expected {n_bytes} bytes, got {len(payload)}"
        )
    if tag == "u1":
        if n_elem == 0:
            values = np.zeros(shape, dtype=np.uint8)
        else:
            bits = np.unpackbits(
                np.frombuffer(payload, dtype=np.uint8), count=n_elem, bitorder="big"
            )
            values = bits.reshape(shape)
    else:
        values = (
            np.frombuffer(payload, dtype=_DTYPES[tag]).reshape(shape).astype(
                _DTYPES[tag].newbyteorder("=")
            )
        )
    return values, header


def write_tensor(path, values: np.ndarray, axes, dtype: str) -> None:
    """Write a single-tensor container file."""
    with open(path, "wb") as f:
        write_tensor_to(f, values, axes, dtype=dtype)


def read_tensor(path):
    """Read a single-tensor container file; trailing bytes are an error.
    Every InvalidInput raised names path."""
    with open(path, "rb") as f:
        try:
            values, header = read_tensor_from(f)
        except InvalidInput as exc:
            raise InvalidInput(f"{path}: {exc}") from exc
        if f.read(1):
            raise InvalidInput(f"{path}: trailing bytes after tensor payload")
    return values, header


def file_digest(path) -> str:
    """SHA-256 hex digest of a file's contents."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
