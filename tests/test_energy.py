"""Energy model: E_c = N_spikes * E_dyn + delta_T * P_stat."""

import json

import numpy as np
import pytest

from scalar_reference import random_tiny_model, scalar_forward
from spikeradar.encoding import SpikeTensor
from spikeradar.energy import (
    HardwareProfile,
    EnergyReport,
    energy_per_classification,
    report_for_dataset,
)
from spikeradar.errors import InvalidInput
from spikeradar.snn import SnnModel, forward_batch


def tiny_model(weights, meta, t_inf, shape=(1, 8, 8), n_classes=3, hidden=7):
    return SnnModel(
        weights=weights,
        t_inf=t_inf,
        input_shape=shape,
        n_classes=n_classes,
        hidden=hidden,
        conv_channels=meta["c1"],
        kernel=meta["kernel"],
    )


def sig4(x):
    """Round to 4 significant figures."""
    return float(f"{x:.4g}")


# ── closed-form anchors ─────────────────────────────────────────────────────


def test_static_floor_4ms_is_292_nj():
    hw = HardwareProfile.for_t_inf(4)
    assert sig4(hw.static_floor * 1e9) == 292.0
    assert energy_per_classification(0, hw) == hw.static_floor


def test_static_floor_28ms_is_2_044_uj():
    hw = HardwareProfile.for_t_inf(28)
    assert sig4(hw.static_floor * 1e6) == 2.044
    # the long-window energy is dominated by leakage: within 5% of 2 uJ
    assert abs(hw.static_floor - 2e-6) / 2e-6 <= 0.05


def test_reference_operating_point_351_nj():
    hw = HardwareProfile.for_t_inf(4)
    e = energy_per_classification(28095, hw)
    assert abs(e - 351e-9) <= 0.5e-9


def test_energy_affine_in_spike_count():
    hw = HardwareProfile(e_dyn=3e-12, p_stat=50e-6, delta_t=2e-3)
    n = np.array([0, 1, 10, 1000, 28095, 10**6])
    e = np.array([energy_per_classification(int(k), hw) for k in n])
    assert e[0] == hw.static_floor
    slopes = np.diff(e) / np.diff(n)
    assert np.allclose(slopes, hw.e_dyn, rtol=1e-9)


def test_profile_validation():
    with pytest.raises(InvalidInput):
        HardwareProfile(e_dyn=0.0)
    with pytest.raises(InvalidInput):
        HardwareProfile(p_stat=-1e-6)
    with pytest.raises(InvalidInput):
        HardwareProfile(delta_t=float("nan"))
    with pytest.raises(InvalidInput):
        HardwareProfile.for_t_inf(0)
    with pytest.raises(InvalidInput):
        energy_per_classification(-1, HardwareProfile())


def test_for_t_inf_scales_window():
    assert HardwareProfile.for_t_inf(1).delta_t == pytest.approx(1e-3)
    assert HardwareProfile.for_t_inf(28).delta_t == pytest.approx(28e-3)
    hw = HardwareProfile.for_t_inf(4, e_dyn=1e-12, p_stat=10e-6)
    assert hw.e_dyn == 1e-12 and hw.p_stat == 10e-6


# ── spike counting against the scalar network ───────────────────────────────


def test_counts_match_scalar_network():
    rng = np.random.default_rng(40)
    hw = HardwareProfile()
    for _ in range(5):
        weights, bits, meta = random_tiny_model(rng, t_inf=3, scale=0.9)
        model = tiny_model(weights, meta, 3)
        batch = (rng.random((4,) + bits.shape) < 0.4).astype(np.uint8)
        counts = forward_batch(model, batch).spike_counts
        for i in range(4):
            _, _, ref = scalar_forward(weights, batch[i], 3, 7)
            for name in ("sigma1", "sigma2", "sigma3"):
                assert counts[name][i] == ref[name]
            assert counts["input"][i] == batch[i].sum()
            hidden_total = ref["sigma1"] + ref["sigma2"] + ref["sigma3"]
            one = batch[i : i + 1]
            without = report_for_dataset(model, one, hw, use_quantized=False,
                                         include_input_spikes=False)
            assert without.n_spikes_max == hidden_total
            total = report_for_dataset(model, one, hw, use_quantized=False)
            assert total.n_spikes_max == hidden_total + batch[i].sum()


def test_report_aggregates_and_json():
    rng = np.random.default_rng(41)
    weights, bits, meta = random_tiny_model(rng, t_inf=2, scale=0.9)
    model = tiny_model(weights, meta, 2)
    batch = (rng.random((6,) + bits.shape) < 0.5).astype(np.uint8)
    hw = HardwareProfile.for_t_inf(2)
    report = report_for_dataset(model, batch, hw, use_quantized=False)
    counts = forward_batch(model, batch).spike_counts
    totals = sum(counts.values())
    assert report.n_spikes_max == totals.max()
    assert report.n_spikes_mean == pytest.approx(totals.mean())
    assert report.e_c_max == pytest.approx(
        energy_per_classification(int(totals.max()), hw)
    )
    assert report.e_c_mean == pytest.approx(
        totals.mean() * hw.e_dyn + hw.static_floor
    )
    assert report.n_examples == 6
    parsed = json.loads(report.to_json())
    assert parsed["format"] == "spikeradar-energy-report"
    assert parsed["n_spikes_max"] == report.n_spikes_max
    assert parsed["e_c_max_joules"] == report.e_c_max
    assert parsed["static_floor_joules"] == hw.static_floor

    # tensor-list input gives the identical report
    tensors = [SpikeTensor(bits=b) for b in batch]
    report2 = report_for_dataset(model, tensors, hw, use_quantized=False)
    assert report2.to_json() == report.to_json()


def test_report_validation():
    rng = np.random.default_rng(42)
    weights, bits, meta = random_tiny_model(rng, t_inf=2)
    model = tiny_model(weights, meta, 2)
    hw = HardwareProfile()
    with pytest.raises(InvalidInput):
        report_for_dataset(model, [], hw)
    with pytest.raises(InvalidInput):
        report_for_dataset(model, np.zeros((0, 2, 1, 8, 8), dtype=np.uint8), hw)
    with pytest.raises(InvalidInput):
        report_for_dataset(model, np.zeros((2, 1, 8, 8), dtype=np.uint8), hw)


def test_zero_input_costs_only_static_floor():
    rng = np.random.default_rng(43)
    weights, bits, meta = random_tiny_model(rng, t_inf=4)
    model = tiny_model(weights, meta, 4)
    silent = np.zeros((2, 4, 1, 8, 8), dtype=np.uint8)
    hw = HardwareProfile.for_t_inf(4)
    report = report_for_dataset(model, silent, hw, use_quantized=False)
    assert report.n_spikes_max == 0
    assert report.e_c_max == hw.static_floor
