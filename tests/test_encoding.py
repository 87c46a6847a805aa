"""Time-to-first-spike encoding and binary-sequence wrapping."""

import numpy as np
import pytest

from spikeradar.encoding import (
    SpikeTensor,
    ttfs_encode,
    ttfs_step,
    wrap_binary,
)
from spikeradar.errors import InvalidInput
from spikeradar.rangedoppler import BinaryRdSequence
from spikeradar.udoppler import MicroDopplerMap


def encode(values, t_inf=4):
    m = MicroDopplerMap(values=np.asarray(values, dtype=np.float64),
                        normalized=True)
    return ttfs_encode(m, t_inf=t_inf)


def test_step_formula_reference_points():
    # t = max(1, T - floor(v T)), 1-based; v = 1 (formula would give 0)
    # clamps to step 1, and exact bin edges belong to the earlier step
    assert ttfs_step(1.0, 4) == 1
    assert ttfs_step(0.76, 4) == 1
    assert ttfs_step(0.75, 4) == 1
    assert ttfs_step(0.74, 4) == 2
    assert ttfs_step(0.5, 4) == 2
    assert ttfs_step(0.26, 4) == 3
    assert ttfs_step(0.25, 4) == 3
    assert ttfs_step(0.24, 4) == 4
    assert ttfs_step(0.01, 4) == 4
    assert ttfs_step(0.0, 4) == 0  # no spike marker
    assert ttfs_step(1.0, 28) == 1
    assert ttfs_step(0.001, 28) == 28


def test_step_validation():
    with pytest.raises(InvalidInput):
        ttfs_step(1.1, 4)
    with pytest.raises(InvalidInput):
        ttfs_step(-0.1, 4)
    with pytest.raises(InvalidInput):
        ttfs_step(0.5, 0)


def exhaustive_grid(t_inf, n=10_000):
    """Brighter-earlier, zero-silent, one-spike-max over a dense v grid."""
    v = np.linspace(0.0, 1.0, n)
    steps = np.array([ttfs_step(float(x), t_inf) for x in v])
    spiking = steps[v > 0]
    assert np.all(np.diff(spiking) <= 0), "steps must not increase with v"
    assert np.all(spiking >= 1)
    assert np.all(spiking <= t_inf)
    assert steps[0] == 0

    tensor = encode(v.reshape(100, n // 100), t_inf=t_inf)
    per_pixel = tensor.bits.sum(axis=0)
    assert per_pixel.max() <= 1, "at most one spike per pixel"
    assert per_pixel[0, 0, 0] == 0, "v=0 emits nothing"
    assert int(per_pixel.sum()) == int((v > 0).sum())


def test_grid_properties_all_horizons():
    for t_inf in (2, 4, 8, 28):
        exhaustive_grid(t_inf)


def test_encode_scatter_matches_scalar_helper():
    rng = np.random.default_rng(41)
    values = rng.random((9, 7))
    values[rng.random((9, 7)) < 0.3] = 0.0
    for t_inf in (2, 4, 28):
        tensor = encode(values, t_inf=t_inf)
        assert tensor.bits.shape == (t_inf, 1, 9, 7)
        for (r, c), v in np.ndenumerate(values):
            step = ttfs_step(float(v), t_inf)
            column = tensor.bits[:, 0, r, c]
            if step == 0:
                assert column.sum() == 0
            else:
                assert column.sum() == 1
                assert column[step - 1] == 1


def test_encode_requires_unit_range():
    # raw (unnormalized) magnitude maps exceed [0, 1] and must be refused
    m = MicroDopplerMap(values=np.random.default_rng(42).random((4, 4)) * 30.0,
                        normalized=False)
    with pytest.raises(InvalidInput):
        ttfs_encode(m, t_inf=4)
    with pytest.raises(InvalidInput):
        ttfs_encode(MicroDopplerMap(values=np.zeros((2, 2)), normalized=True),
                    t_inf=0)


def test_wrap_and_unwrap_binary_roundtrip():
    rng = np.random.default_rng(43)
    frames = (rng.random((28, 6, 5)) < 0.4).astype(np.uint8)
    seq = BinaryRdSequence(frames=frames)
    tensor = wrap_binary(seq)
    assert isinstance(tensor, SpikeTensor)
    assert tensor.bits.shape == (28, 1, 6, 5)
    assert tensor.t_inf == 28
    # the single channel holds the sequence's frames unchanged
    assert np.array_equal(tensor.bits[:, 0], frames)


def test_spike_tensor_validation_and_counts():
    bits = np.zeros((4, 1, 2, 2), dtype=np.uint8)
    bits[0, 0, 0, 0] = 1
    bits[3, 0, 1, 1] = 1
    t = SpikeTensor(bits=bits)
    assert t.t_inf == 4
    assert t.spatial_shape == (1, 2, 2)
    assert t.total_spikes() == 2
    with pytest.raises(InvalidInput):
        SpikeTensor(bits=np.full((2, 1, 2, 2), 3, dtype=np.uint8))
    with pytest.raises(InvalidInput):
        SpikeTensor(bits=np.zeros((2, 2), dtype=np.uint8))
