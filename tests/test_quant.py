"""Symmetric per-tensor weight quantizer: bounds, levels, idempotence."""

import pickle

import numpy as np
import pytest

from spikeradar.errors import InvalidInput
from spikeradar.quant import QuantizedTensor, dequantize, quantize


def test_scale_and_codes_small_example():
    w = np.array([-1.0, -0.4, 0.0, 0.3, 0.8])
    q = quantize(w, bits=4)
    limit = 7
    assert q.bits == 4
    assert q.scale == pytest.approx(1.0 / limit)
    assert q.codes.dtype == np.int8
    # max-magnitude weight maps to the full-scale code
    assert q.codes[0] == -limit
    back = dequantize(q)
    assert np.abs(back - w).max() <= q.scale / 2 + 1e-15


def test_round_half_away_from_zero():
    # scale 1 by construction: values at +-.5 boundaries must round away
    w = np.array([7.0, 0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
    q = quantize(w, bits=4)
    assert q.scale == pytest.approx(1.0)
    assert q.codes.tolist() == [7, 1, 2, 3, -1, -2, -3]


def test_all_zero_tensor_scale_one():
    q = quantize(np.zeros((3, 3)), bits=6)
    assert q.scale == 1.0
    assert np.all(q.codes == 0)
    assert np.all(dequantize(q) == 0)


def test_bits_range_and_finite_validation():
    w = np.ones(4)
    for bad in (1, 0, 9, -2):
        with pytest.raises(InvalidInput):
            quantize(w, bits=bad)
    with pytest.raises(InvalidInput):
        quantize(np.array([1.0, np.inf]), bits=4)
    with pytest.raises(InvalidInput):
        quantize(np.array([np.nan]), bits=4)


def exhaustive_bounds(bits, n=100_000, seed=50):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-2.0, 2.0, size=n)
    q = quantize(w, bits=bits)
    limit = 2 ** (bits - 1) - 1

    codes = q.codes.astype(np.int64)
    assert codes.min() >= -limit
    assert codes.max() <= limit
    # symmetric grid has exactly 2^bits - 1 levels, all hit by uniform draws
    assert len(np.unique(codes)) == 2 * limit + 1 == 2**bits - 1

    back = dequantize(q)
    assert np.abs(back - w).max() <= q.scale / 2 + 1e-12, "round-trip bound"

    # re-quantizing the dequantized view changes nothing
    q2 = quantize(back, bits=bits)
    assert np.array_equal(q2.codes, q.codes)
    assert q2.scale == pytest.approx(q.scale, rel=1e-12)


def test_exhaustive_bounds_4_and_6_bits():
    exhaustive_bounds(4)
    exhaustive_bounds(6)


def test_quantized_tensor_validation():
    with pytest.raises(InvalidInput):
        QuantizedTensor(codes=np.array([8], dtype=np.int8), scale=0.1, bits=4)
    with pytest.raises(InvalidInput):
        QuantizedTensor(codes=np.array([1], dtype=np.int8), scale=0.0, bits=4)
    with pytest.raises(InvalidInput):
        QuantizedTensor(codes=np.array([1], dtype=np.int8), scale=0.1, bits=1)


def test_dequantize_dtype_and_shape():
    rng = np.random.default_rng(51)
    w = rng.standard_normal((12, 3, 5, 5))
    q = quantize(w, bits=6)
    back = dequantize(q)
    assert back.shape == w.shape
    assert back.dtype == np.float64


def test_threshold_is_exact_ceiling_of_inverse_scale():
    def view(scale):
        return QuantizedTensor(codes=np.ones(3, dtype=np.int8), scale=scale, bits=4)

    # 1/3 as a double is just below one third, so 3 units fall short of 1
    assert view(1 / 3).threshold == 4
    assert view(0.125).threshold == 8
    assert view(1.0).threshold == 1
    assert view(3.0).threshold == 1
    assert view(0.3).threshold == 4
    assert view(5e-324).threshold == 2.0 ** 53


def test_code_units_are_a_read_only_cache_left_out_of_pickles():
    q = quantize(np.array([0.5, -0.25, 0.1]), bits=4)
    units = q.code_units
    assert units.dtype == np.float32 and np.array_equal(units, q.codes)
    assert q.code_units is units and not units.flags.writeable
    copy = pickle.loads(pickle.dumps(q))
    assert "code_units" not in copy.__dict__
    assert np.array_equal(copy.code_units, units) and copy.scale == q.scale
