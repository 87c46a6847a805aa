"""Radar preprocessing chain: range DFT, DC removal, STFT, denoising."""

import numpy as np
import pytest

from scalar_reference import naive_stft_magnitude
from spikeradar.errors import InvalidInput
from spikeradar.udoppler import (
    MicroDopplerMap,
    RadarCube,
    StftConfig,
    band_column_range,
    compute_range_profiles,
    count_stft_frames,
    cut_maps,
    dc_removed_sequence,
    default_fft_len,
    keep_top_k_rows,
    normalize_and_denoise,
    pick_gesture_bin,
    process_cube,
    stft_magnitude,
    suggested_top_k,
)


def doppler_frequencies(window_len: int) -> np.ndarray:
    """Normalized center frequency of each Doppler column of stft_magnitude's
    zero-centered layout: (j - s/2) / s."""
    return (np.arange(window_len) - window_len // 2) / window_len


def make_cube(samples, chirps_per_frame=None):
    samples = np.asarray(samples, dtype=np.float64)
    n = chirps_per_frame or samples.shape[0]
    return RadarCube(samples=samples, n_chirps_per_frame=n,
                     n_frames=samples.shape[0] // n)


# ── range profiles ──────────────────────────────────────────────────────────


def test_default_fft_len_next_power_of_two():
    assert default_fft_len(64) == 64
    assert default_fft_len(65) == 128
    assert default_fft_len(100) == 128
    assert default_fft_len(1) == 1


def test_zero_chirp_gives_zero_profile():
    cube = make_cube(np.zeros((4, 32)))
    seq = compute_range_profiles(cube, fft_len=32)
    assert seq.profiles.shape == (4, 32)
    assert np.all(seq.profiles == 0)


def test_blackman_rows_match_naive_dft_oracle():
    rng = np.random.default_rng(21)
    samples = rng.standard_normal((2, 12))
    cube = make_cube(samples)
    fft_len = 16
    seq = compute_range_profiles(cube, fft_len=fft_len)
    win = np.blackman(12)
    for r in range(2):
        padded = np.zeros(fft_len, dtype=complex)
        padded[:12] = samples[r] * win
        oracle = np.array([
            sum(padded[n] * np.exp(-2j * np.pi * k * n / fft_len)
                for n in range(fft_len))
            for k in range(fft_len)
        ])
        assert np.abs(seq.profiles[r] - oracle).max() < 1e-9


def test_range_profile_validation():
    with pytest.raises(InvalidInput):
        RadarCube(samples=np.zeros((0, 8)), n_chirps_per_frame=1, n_frames=1)
    with pytest.raises(InvalidInput):
        make_cube(np.array([[np.nan, 0.0]]))
    with pytest.raises(InvalidInput):
        # fft_len shorter than the fast-time axis
        compute_range_profiles(make_cube(np.zeros((2, 16))), fft_len=8)


def test_pick_gesture_bin_finds_energetic_bin():
    rng = np.random.default_rng(22)
    n = 64
    t = np.arange(n)
    # strong tone at bin 9 over weak noise, across chirps
    samples = np.stack([
        5.0 * np.cos(2 * np.pi * 9 * t / n + phi) + 0.1 * rng.standard_normal(n)
        for phi in rng.uniform(0, 2 * np.pi, size=6)
    ])
    seq = compute_range_profiles(make_cube(samples), fft_len=n)
    assert pick_gesture_bin(seq.profiles) == 9


def test_auto_pick_takes_lower_bin_of_mirror_pair_for_real_samples():
    # real samples put the same energy in bin k and fft_len - k
    n = 64
    t = np.arange(n)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, 20))
        tones = [np.cos(2 * np.pi * k * t / n + phi)
                 for phi in rng.uniform(0, 2 * np.pi, size=16)]
        samples = (np.stack(tones) + 0.05 * rng.standard_normal((16, n))).astype(np.float32)
        assert compute_range_profiles(make_cube(samples)).gesture_bin == k, seed


def test_auto_pick_ignores_mirror_bin_rounded_up(monkeypatch):
    # the lower bin wins for real samples even where rounding leaves its
    # mirror with more energy; here the mirror is made larger by one ulp
    n, k = 64, 9
    samples = np.tile(np.cos(2 * np.pi * k * np.arange(n) / n), (8, 1))
    fft = np.fft.fft

    def mirror_rounded_up(x, n=None, axis=-1):
        out = fft(x, n=n, axis=axis)
        out[:, out.shape[1] - k] = np.nextafter(np.abs(out[:, k]), np.inf)
        return out

    monkeypatch.setattr(np.fft, "fft", mirror_rounded_up)
    seq = compute_range_profiles(make_cube(samples))
    assert pick_gesture_bin(seq.profiles) == n - k
    assert seq.gesture_bin == k


# ── DC removal ──────────────────────────────────────────────────────────────


def test_dc_removal_constant_sequence_zeros():
    profiles = np.tile((3.0 + 4.0j), (5, 8))
    seq = compute_range_profiles(make_cube(np.zeros((5, 8))), fft_len=8)
    seq = type(seq)(profiles=profiles, gesture_bin=2)
    out = dc_removed_sequence(seq)
    assert out.shape == (4,)
    assert np.all(out == 0)


def test_dc_removal_ramp_gives_ones():
    n = 10
    profiles = np.zeros((n, 4), dtype=complex)
    profiles[:, 1] = np.arange(n)
    from spikeradar.udoppler import RangeProfileSequence
    seq = RangeProfileSequence(profiles=profiles, gesture_bin=1)
    out = dc_removed_sequence(seq)
    assert np.array_equal(out, np.ones(n - 1, dtype=complex))


def test_dc_removal_matches_subtraction_loop():
    rng = np.random.default_rng(23)
    from spikeradar.udoppler import RangeProfileSequence
    col = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    profiles = np.zeros((10, 3), dtype=complex)
    profiles[:, 2] = col
    seq = RangeProfileSequence(profiles=profiles, gesture_bin=2)
    out = dc_removed_sequence(seq)
    for n in range(9):
        assert out[n] == col[n + 1] - col[n]


def test_dc_removal_needs_two_chirps():
    from spikeradar.udoppler import RangeProfileSequence
    seq = RangeProfileSequence(profiles=np.ones((1, 4), dtype=complex),
                               gesture_bin=0)
    with pytest.raises(InvalidInput):
        dc_removed_sequence(seq)


# ── frame counting ──────────────────────────────────────────────────────────


def test_frame_count_reference_values():
    cfg = StftConfig(window_len=192, hop=8)
    assert count_stft_frames(1920, cfg) == 217
    assert count_stft_frames(192, cfg) == 1
    with pytest.raises(InvalidInput):
        count_stft_frames(191, cfg)


def test_frame_count_matches_start_enumeration():
    rng = np.random.default_rng(24)
    for _ in range(20):
        s = int(rng.integers(4, 64))
        hop = int(rng.integers(1, s + 1))
        total = int(rng.integers(s, 4 * s))
        cfg = StftConfig(window_len=s, hop=hop)
        # every start m with m*hop + s <= total fits a full window
        n_fit = sum(1 for m in range(total) if m * hop + s <= total)
        assert count_stft_frames(total, cfg) == n_fit, (total, s, hop)


# ── STFT ────────────────────────────────────────────────────────────────────


def test_stft_zero_sequence_zero_map():
    cfg = StftConfig(window_len=192, hop=8)
    m = stft_magnitude(np.zeros(1920, dtype=complex), cfg)
    assert m.values.shape == (217, 192)
    assert np.all(m.values == 0)
    assert not m.normalized


def test_stft_tone_lands_at_expected_bin():
    cfg = StftConfig(window_len=64, hop=16)
    n = 400
    f0 = 0.25
    seq = np.exp(2j * np.pi * f0 * np.arange(n))
    m = stft_magnitude(seq, cfg)
    freqs = doppler_frequencies(64)
    expected_col = np.argmin(np.abs(freqs - f0))
    for row in m.values:
        assert np.argmax(row) == expected_col


def test_stft_matches_naive_windowed_dft():
    rng = np.random.default_rng(25)
    for trial in range(4):
        s = int(rng.choice([8, 16, 24]))
        hop = int(rng.integers(1, s + 1))
        n = int(rng.integers(s, 200))
        seq = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        cfg = StftConfig(window_len=s, hop=hop)
        ours = stft_magnitude(seq, cfg).values
        oracle = naive_stft_magnitude(seq, s, hop)
        assert ours.shape == oracle.shape
        err = np.linalg.norm(ours - oracle) / max(np.linalg.norm(oracle), 1e-300)
        assert err < 1e-9, f"trial {trial}: rel err {err}"


def test_stft_requires_full_window():
    cfg = StftConfig(window_len=32, hop=4)
    with pytest.raises(InvalidInput):
        stft_magnitude(np.zeros(31, dtype=complex), cfg)


# ── band selection and denoising ────────────────────────────────────────────


def test_band_columns_and_top_k_reference():
    assert band_column_range(192, -0.26, 0.26) == (46, 145)
    lo, hi = band_column_range(192, -0.26, 0.26)
    assert hi - lo + 1 == 100
    assert suggested_top_k(192, -0.26, 0.26) == 48
    with pytest.raises(InvalidInput):
        band_column_range(192, -0.6, 0.2)
    with pytest.raises(InvalidInput):
        band_column_range(192, 0.3, 0.2)


def test_doppler_frequencies_centered():
    f = doppler_frequencies(192)
    assert f[96] == 0.0
    assert f[0] == -0.5
    assert f[-1] == pytest.approx((191 - 96) / 192)


def test_keep_top_k_rows_basic_and_ties():
    m = np.array([[0.1, 0.9, 0.5, 0.9]])
    out = keep_top_k_rows(m, 2)
    # tie on 0.9: both kept, 0.5 and 0.1 dropped
    assert np.array_equal(out, [[0.0, 0.9, 0.0, 0.9]])

    tie = np.array([[0.7, 0.7, 0.7]])
    out = keep_top_k_rows(tie, 1)
    # equal values: lowest column index wins
    assert np.array_equal(out, [[0.7, 0.0, 0.0]])

    assert np.array_equal(keep_top_k_rows(m, 4), m)
    assert np.array_equal(keep_top_k_rows(m, 0), np.zeros_like(m))


def test_keep_top_k_matches_per_row_sort_oracle():
    rng = np.random.default_rng(26)
    for _ in range(10):
        m = rng.random((6, 17))
        k = int(rng.integers(1, 17))
        out = keep_top_k_rows(m, k)
        for r in range(6):
            kept = np.sort(np.flatnonzero(out[r] > 0))
            oracle = np.sort(np.argsort(-m[r], kind="stable")[:k])
            assert np.array_equal(kept, oracle)
            assert np.all(out[r][kept] == m[r][kept])


def test_normalize_and_denoise_contract():
    rng = np.random.default_rng(27)
    raw = rng.random((10, 192)) * 7.5 + 1.0
    m = MicroDopplerMap(values=raw, normalized=False)
    out = normalize_and_denoise(m)
    lo, hi = band_column_range(192, -0.26, 0.26)
    assert out.values.shape == (10, hi - lo + 1)
    assert out.normalized
    assert out.values.min() >= 0.0
    assert out.values.max() <= 1.0
    # per row exactly top_k survivors (generic floats: no ties)
    for row in out.values:
        assert np.count_nonzero(row) == 48


def test_normalize_rejects_normalized_input_and_big_k():
    m = MicroDopplerMap(values=np.random.default_rng(28).random((5, 192)),
                        normalized=False)
    done = normalize_and_denoise(m)
    with pytest.raises(InvalidInput):
        normalize_and_denoise(done)
    with pytest.raises(InvalidInput):
        normalize_and_denoise(
            MicroDopplerMap(values=np.random.default_rng(29).random((5, 192)),
                            normalized=False),
            top_k=101,
        )


def test_normalize_constant_map_gives_zeros():
    m = MicroDopplerMap(values=np.full((4, 192), 3.3), normalized=False)
    out = normalize_and_denoise(m)
    assert out.normalized
    assert np.all(out.values == 0)


# ── cutting ─────────────────────────────────────────────────────────────────


def segment_map(n_rows, cols=100):
    rng = np.random.default_rng(n_rows)
    return MicroDopplerMap(values=rng.random((n_rows, cols)), normalized=False)


def test_cut_217_rows_no_trim():
    maps = cut_maps(segment_map(217), segment_len=48, head_tail_trim=0)
    assert len(maps) == 4
    assert all(m.values.shape == (48, 100) for m in maps)


def test_cut_217_rows_default_trim_empty():
    assert cut_maps(segment_map(217)) == []


def test_cut_960_rows_keeps_middle_segments():
    m = segment_map(48 * 20)
    maps = cut_maps(m, segment_len=48, head_tail_trim=6)
    assert len(maps) == 8
    for i, seg in enumerate(maps):
        orig = m.values[(6 + i) * 48:(7 + i) * 48]
        assert np.array_equal(seg.values, orig), f"segment {i}"


def test_cut_preserves_normalized_flag():
    m = MicroDopplerMap(values=np.random.default_rng(30).random((96, 10)),
                        normalized=True)
    maps = cut_maps(m, segment_len=48, head_tail_trim=0)
    assert all(seg.normalized for seg in maps)


# ── full chain ──────────────────────────────────────────────────────────────


def test_process_cube_end_to_end_shapes():
    rng = np.random.default_rng(31)
    n_frames = 12
    chirps = 192 * n_frames
    fast = 64
    t = np.arange(fast)
    # gesture: oscillating phase at a fixed range bin across chirps
    phases = np.cumsum(0.3 * np.sin(2 * np.pi * np.arange(chirps) / 300.0))
    samples = (
        0.05 * rng.standard_normal((chirps, fast))
        + np.cos(2 * np.pi * 7 * t[None, :] / fast + phases[:, None])
    )
    cube = RadarCube(samples=samples, n_chirps_per_frame=192, n_frames=n_frames)
    maps = process_cube(cube, cfg=StftConfig(window_len=192, hop=8),
                        head_tail_trim=0)
    # 2304 chirps -> diff 2303 -> floor((2303-184)/8) = 264 rows -> 5 cuts
    assert len(maps) == 5
    for m in maps:
        assert m.values.shape == (48, 100)
        assert m.normalized
        assert m.values.max() <= 1.0
