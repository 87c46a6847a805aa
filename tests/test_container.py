"""Tensor container format: header contract, payloads, round trips."""

import io
import json
import os

import numpy as np
import pytest

from spikeradar.container import (
    file_digest,
    read_tensor,
    read_tensor_from,
    write_tensor,
    write_tensor_to,
)
from spikeradar.errors import InvalidInput


def roundtrip(tmp_path, values, axes, dtype):
    path = os.path.join(tmp_path, "t.bin")
    write_tensor(path, values, axes, dtype=dtype)
    out, header = read_tensor(path)
    return out, header, path


def test_f32_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(11)
    values = rng.standard_normal((7, 5)).astype(np.float32)
    out, header, _ = roundtrip(tmp_path, values, ["time", "doppler"], "f32")
    assert header["dtype"] == "f32"
    assert header["shape"] == [7, 5]
    assert header["axes"] == ["time", "doppler"]
    assert header["endian"] == "little"
    assert out.dtype == np.float32
    assert np.array_equal(
        out.view(np.uint32), values.view(np.uint32)
    ), "f32 payload must round-trip bit-for-bit"


def test_c64_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    values = (rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    values = values.astype(np.complex64)
    out, header, _ = roundtrip(tmp_path, values, ["frame", "range"], "c64")
    assert header["dtype"] == "c64"
    assert np.array_equal(out, values)


def test_f64_and_i8_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    w = rng.standard_normal((3, 4, 2, 2))
    out, header, _ = roundtrip(tmp_path, w, ["o", "i", "kh", "kw"], "f64")
    assert header["dtype"] == "f64"
    assert np.array_equal(out, w)

    codes = rng.integers(-7, 8, size=(5, 9)).astype(np.int8)
    out, header, _ = roundtrip(tmp_path, codes, ["row", "col"], "i8")
    assert header["dtype"] == "i8"
    assert np.array_equal(out, codes)


def test_u1_bit_packing_msb_first(tmp_path):
    # 9 bits force a partial final byte; MSB-first packing is part of
    # the format, so check raw bytes, not just the round trip.
    bits = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8).reshape(3, 3)
    path = os.path.join(tmp_path, "b.bin")
    write_tensor(path, bits, ["h", "w"], dtype="u1")
    with open(path, "rb") as f:
        raw = f.read()
    header_line, payload = raw.split(b"\n", 1)
    header = json.loads(header_line)
    assert header["dtype"] == "u1"
    assert payload == bytes([0b10110010, 0b10000000])
    out, _ = read_tensor(path)
    assert np.array_equal(out, bits)


def test_u1_roundtrip_random_shapes(tmp_path):
    rng = np.random.default_rng(14)
    for trial in range(20):
        shape = tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 5))))
        bits = (rng.random(shape) < 0.4).astype(np.uint8)
        axes = [f"a{i}" for i in range(len(shape))]
        out, header, _ = roundtrip(tmp_path, bits, axes, "u1")
        assert out.shape == shape
        assert np.array_equal(out, bits), f"trial {trial} shape {shape}"


def test_u1_rejects_non_binary(tmp_path):
    path = os.path.join(tmp_path, "x.bin")
    with pytest.raises(InvalidInput):
        write_tensor(path, np.array([0, 1, 2], dtype=np.uint8), ["n"], dtype="u1")


def test_stream_stacking_multiple_records(tmp_path):
    """Records written back to back on one stream read back in order."""
    rng = np.random.default_rng(15)
    tensors = [
        (rng.standard_normal((3, 3)), "f64"),
        ((rng.random((2, 5)) < 0.5).astype(np.uint8), "u1"),
        (rng.integers(-3, 4, size=(4,)).astype(np.int8), "i8"),
    ]
    buf = io.BytesIO()
    for v, tag in tensors:
        write_tensor_to(buf, v, [f"x{j}" for j in range(v.ndim)], dtype=tag)
    buf.seek(0)
    for v, tag in tensors:
        out, header = read_tensor_from(buf)
        assert header["dtype"] == tag
        assert np.array_equal(out, v)
    assert buf.read() == b""


def test_zero_size_tensor(tmp_path):
    out, header, _ = roundtrip(tmp_path, np.zeros((0, 4), dtype=np.float32),
                               ["t", "d"], "f32")
    assert header["shape"] == [0, 4]
    assert out.shape == (0, 4)


def corrupt(path, out, mutate):
    with open(path, "rb") as f:
        raw = f.read()
    header_line, payload = raw.split(b"\n", 1)
    header = json.loads(header_line)
    mutate(header)
    with open(out, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n" + payload)


def test_header_validation_rejects_bad_fields(tmp_path):
    src = os.path.join(tmp_path, "ok.bin")
    write_tensor(src, np.zeros((2, 2), dtype=np.float32), ["a", "b"], dtype="f32")

    cases = [
        lambda h: h.update(dtype="f16"),
        lambda h: h.update(shape=[2, -1]),
        lambda h: h.update(shape=[2]),
        lambda h: h.update(axes=["a"]),
        lambda h: h.update(endian="big"),
        lambda h: h.pop("shape"),
        # element count overflows int64 (np.prod would wrap it to 0)
        lambda h: h.update(shape=[2**40] * 3, axes=["a", "b", "c"]),
        # fits int64 but needs far more bytes than the file holds
        lambda h: h.update(shape=[2**40], axes=["a"]),
        lambda h: h.update(shape=[True, 4]),
    ]
    for i, mutate in enumerate(cases):
        bad = os.path.join(tmp_path, f"bad{i}.bin")
        corrupt(src, bad, mutate)
        with pytest.raises(InvalidInput):
            read_tensor(bad)


def test_truncated_and_trailing_payload_rejected(tmp_path):
    src = os.path.join(tmp_path, "ok.bin")
    write_tensor(src, np.arange(6, dtype=np.float32).reshape(2, 3), ["a", "b"],
                 dtype="f32")
    with open(src, "rb") as f:
        raw = f.read()

    short = os.path.join(tmp_path, "short.bin")
    with open(short, "wb") as f:
        f.write(raw[:-2])
    with pytest.raises(InvalidInput):
        read_tensor(short)

    long = os.path.join(tmp_path, "long.bin")
    with open(long, "wb") as f:
        f.write(raw + b"\x00")
    with pytest.raises(InvalidInput):
        read_tensor(long)


def test_file_digest_stable_and_sensitive(tmp_path):
    path = os.path.join(tmp_path, "d.bin")
    write_tensor(path, np.ones((2, 2), dtype=np.float32), ["a", "b"], dtype="f32")
    d1 = file_digest(path)
    d2 = file_digest(path)
    assert d1 == d2
    assert len(d1) == 64
    write_tensor(path, np.zeros((2, 2), dtype=np.float32), ["a", "b"], dtype="f32")
    assert file_digest(path) != d1
