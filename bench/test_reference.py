"""Tests of the benchmark's references against the acceptance gate's oracles.

    PYTHONPATH=src python3 -m pytest bench

The integer forward is held to check 5's scalar state machine, the STFT of
the radar chain to check 4's windowed DFT.
"""

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import reference as ref  # noqa: E402
from scalar_reference import scalar_forward  # noqa: E402
from test_acceptance import naive_windowed_dft  # noqa: E402


def tiny_codes(rng):
    """Random int8 codes and input bits for a minimal network."""
    t_inf = int(rng.integers(2, 6))
    n_classes = int(rng.integers(2, 5))
    hidden = int(rng.integers(4, 10))
    c_in, c1, k = int(rng.integers(1, 3)), int(rng.integers(2, 5)), 3
    flat = c1 * ((8 - k + 1) // 2) ** 2
    shapes = {"conv": (c1, c_in, k, k), "fc1": (hidden, flat),
              "fc2": (n_classes, hidden)}
    codes = {n: rng.integers(-7, 8, size=s) for n, s in shapes.items()}
    bits = (rng.random((t_inf, c_in, 8, 8)) < 0.35).astype(np.uint8)
    return codes, bits, n_classes, hidden


def compare_with_scalar(scale_of, trials, seed, skip_ties):
    """Run both forwards; return (mismatches, compared examples, tied examples)."""
    rng = np.random.default_rng(seed)
    mismatches = compared = tied = 0
    for _ in range(trials):
        codes, bits, n_classes, hidden = tiny_codes(rng)
        scales = {n: scale_of(rng) for n in codes}
        weights = {n: codes[n] * scales[n] for n in codes}
        acc, _, counts = scalar_forward(weights, bits, n_classes, hidden)
        got = ref.integer_forward(codes, scales, bits[None])
        tied += bool(got["ties"][0])
        if skip_ties and got["ties"][0]:
            continue
        compared += 1
        same = (np.array_equal(got["accumulator"][0], acc)
                and got["counts"][0].tolist() == [
                    int(bits.sum()), counts["sigma1"], counts["sigma2"],
                    counts["sigma3"]]
                and got["predicted"][0] == int(np.argmax(acc)))
        mismatches += not same
    return mismatches, compared, tied


def test_integer_forward_matches_scalar_state_machine_dyadic():
    # power-of-two scales make every float sum exact, so ties are decided
    # identically and no example may be skipped
    rng_scales = [2.0 ** -3, 2.0 ** -2, 2.0 ** -4]
    mismatches, compared, tied = compare_with_scalar(
        lambda rng: rng_scales[int(rng.integers(0, 3))], trials=30, seed=1,
        skip_ties=False)
    assert mismatches == 0 and compared == 30 and tied > 0


def test_integer_forward_matches_scalar_state_machine_off_grid():
    mismatches, compared, _ = compare_with_scalar(
        lambda rng: float(rng.uniform(0.05, 0.3)), trials=30, seed=2,
        skip_ties=True)
    assert mismatches == 0 and compared >= 25


def test_integer_forward_counts_exact_threshold_as_tie():
    codes = {"conv": np.ones((1, 1, 1, 1), dtype=np.int64),
             "fc1": np.ones((1, 1), dtype=np.int64),
             "fc2": np.ones((1, 1), dtype=np.int64)}
    scales = {"conv": 0.5, "fc1": 1.0, "fc2": 1.0}
    bits = np.ones((1, 3, 1, 2, 2), dtype=np.uint8)
    got = ref.integer_forward(codes, scales, bits)
    # conv sums 0, 1, 2 over the steps: step 3 reads exactly 1.0 and fires
    assert got["ties"][0] > 0
    assert got["counts"][0].tolist()[:2] == [12, 4]


def test_stft_rows_match_naive_windowed_dft():
    rng = np.random.default_rng(40)
    worst = 0.0
    for trial in range(12):
        s = int(rng.choice([8, 12, 16, 32, 64, 192]))
        hop = int(rng.choice([h for h in (1, 2, 3, 8, 16) if h <= s]))
        seq = rng.standard_normal(int(rng.integers(s, 800)))
        if trial % 2 == 0:
            seq = seq + 1j * rng.standard_normal(seq.shape[0])
        want = naive_windowed_dft(seq, s, hop)
        got = ref.stft_rows(seq, s, hop)
        worst = max(worst, ref.relative_error(got, want))
    assert worst < 1e-9


def test_range_column_is_blackman_windowed_dft():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 12))
    n = np.arange(12)
    win = np.blackman(12)
    for k in (0, 3, 11, 15):
        want = [sum(x[r, m] * win[m] * np.exp(-2j * np.pi * k * m / 16)
                    for m in n) for r in range(5)]
        assert np.allclose(ref.range_column(x, k, 16), want, rtol=1e-12, atol=1e-12)


def test_top_k_rows_keeps_lower_index_among_equals():
    row = np.array([[0.5, 0.9, 0.5, 0.9, 0.1]])
    assert ref.top_k_rows(row, 3).tolist() == [[0.5, 0.9, 0.0, 0.9, 0.0]]


def test_requantize_rounds_halves_away_from_zero():
    codes, scale = ref.requantize(np.array([7.0, 3.5, -3.5, 0.5, -0.5, 2.49]), 4)
    assert scale == 1.0
    assert codes.tolist() == [7, 4, -4, 1, -1, 2]


def test_ttfs_mismatches_flags_a_moved_spike():
    values = np.array([[0.0, 0.25, 1.0, 0.74]])
    bits = np.zeros((4, 1, 1, 4), dtype=np.uint8)
    for col, step in ((1, 3), (2, 1), (3, 2)):
        bits[step - 1, 0, 0, col] = 1
    assert ref.ttfs_mismatches(values, bits) == 0
    bits[1, 0, 0, 3], bits[2, 0, 0, 3] = 0, 1
    assert ref.ttfs_mismatches(values, bits) == 1


def test_expected_map_count_matches_protocol_cube():
    # 41 frames of 192 chirps: 960 STFT rows, 20 segments, 6 trimmed per end
    assert ref.expected_map_count(41 * 192, 192, 8, 48, 6) == 8
