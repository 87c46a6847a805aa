"""Independent references the benchmark checks the program's outputs against.

Nothing here imports spikeradar. The network reference works in integer code
units instead of dequantized floats and convolves tap by tap instead of
through a patch matrix; the radar reference builds every transform from an
explicit DFT matrix instead of an FFT. Both are slower than the package, so
the benchmark runs them outside its timed regions.
"""

from __future__ import annotations

import math

import numpy as np

# A neuron-step whose potential lies this close to the threshold may be
# decided either way by float rounding in the program; it is counted as a tie.
TIE_TOL = 1e-9


# ---------------------------------------------------------------------------
# quantizer


def requantize(w: np.ndarray, bits: int):
    """Symmetric per-tensor quantization: (codes, scale).

    scale = max|w| / (2^(bits-1) - 1); codes round w / scale to the nearest
    integer with halves rounded away from zero.
    """
    limit = 2 ** (bits - 1) - 1
    max_abs = float(np.max(np.abs(w)))
    if max_abs == 0.0:
        return np.zeros(w.shape, dtype=np.int64), 1.0
    scale = max_abs / limit
    x = w / scale
    codes = np.where(x >= 0.0, np.floor(x + 0.5), -np.floor(0.5 - x))
    return codes.astype(np.int64), scale


# ---------------------------------------------------------------------------
# network forward in integer code units


def _fire(m: np.ndarray, d: np.ndarray, scale: float, ties: np.ndarray):
    """One compare-then-integrate step of an IF layer held as integer sums.

    The spike decision reads the pre-update potential m * scale; a spiking
    neuron resets to 0 and drops its drive, a silent one integrates and is
    clamped at 0. Returns (next sums, spikes) and adds ties per example.
    """
    v = m * scale
    spikes = v >= 1.0
    ties += (np.abs(v - 1.0) <= TIE_TOL).reshape(m.shape[0], -1).sum(axis=1)
    m_next = np.where(spikes, 0, np.maximum(m + d, 0))
    return m_next, spikes


def integer_forward(codes: dict, scales: dict, bits: np.ndarray):
    """Classify spike tensors with int8 codes and one scale per tensor.

    Args:
        codes: "conv" (C1, C, kh, kw), "fc1" (hidden, flat), "fc2"
            (classes, hidden) integer codes.
        scales: the matching positive scales.
        bits: (N, T, C, H, W) binary input.

    Returns:
        dict with "accumulator" (N, classes) int64, "counts" (N, 4) int64
        spike counts of input, sigma1, sigma2, sigma3, "ties" (N,) int64
        and "predicted" (N,) argmax of the accumulator, lowest index first.
    """
    n = bits.shape[0]
    n_classes = codes["fc2"].shape[0]
    acc = np.zeros((n, n_classes), dtype=np.int64)
    counts = np.zeros((n, 4), dtype=np.int64)
    ties = np.zeros(n, dtype=np.int64)
    # a few examples per pass keep the int64 drives small next to the
    # program's own peak memory
    for start in range(0, n, 8):
        sl = slice(start, min(n, start + 8))
        a, c, t = _integer_forward_batch(codes, scales, bits[sl])
        acc[sl], counts[sl], ties[sl] = a, c, t
    return {"accumulator": acc, "counts": counts, "ties": ties,
            "predicted": np.argmax(acc, axis=1)}


def _integer_forward_batch(codes, scales, bits):
    b, t_inf, c_in, h, w = bits.shape
    k_conv = codes["conv"].astype(np.int64)
    k_fc1 = codes["fc1"].astype(np.int64)
    k_fc2 = codes["fc2"].astype(np.int64)
    c1, _, kh, kw = k_conv.shape
    oh, ow = h - kh + 1, w - kw + 1
    ph, pw = oh // 2, ow // 2
    x = bits.astype(np.int64)

    # conv drive of every neuron at every step, one kernel tap at a time
    d1 = np.zeros((b, t_inf, c1, oh, ow), dtype=np.int64)
    for ci in range(c_in):
        for dy in range(kh):
            for dx in range(kw):
                tap = k_conv[:, ci, dy, dx].reshape(1, 1, c1, 1, 1)
                d1 += tap * x[:, :, ci, None, dy:dy + oh, dx:dx + ow]

    m1 = np.zeros((b, c1, oh, ow), dtype=np.int64)
    m2 = np.zeros((b, k_fc1.shape[0]), dtype=np.int64)
    m3 = np.zeros((b, k_fc2.shape[0]), dtype=np.int64)
    acc = np.zeros((b, k_fc2.shape[0]), dtype=np.int64)
    counts = np.zeros((b, 4), dtype=np.int64)
    counts[:, 0] = x.reshape(b, -1).sum(axis=1)
    ties = np.zeros(b, dtype=np.int64)
    for k in range(t_inf):
        m1, s1 = _fire(m1, d1[:, k], scales["conv"], ties)
        pooled = s1[:, :, : 2 * ph, : 2 * pw].reshape(b, c1, ph, 2, pw, 2)
        flat = pooled.any(axis=(3, 5)).reshape(b, -1).astype(np.int64)
        m2, s2 = _fire(m2, flat @ k_fc1.T, scales["fc1"], ties)
        m3, s3 = _fire(m3, s2.astype(np.int64) @ k_fc2.T, scales["fc2"], ties)
        acc += s3
        counts[:, 1] += s1.reshape(b, -1).sum(axis=1)
        counts[:, 2] += s2.sum(axis=1)
        counts[:, 3] += s3.sum(axis=1)
    return acc, counts, ties


# ---------------------------------------------------------------------------
# radar chain from DFT matrices


def blackman(n: int) -> np.ndarray:
    m = np.arange(n)
    return (0.42 - 0.5 * np.cos(2.0 * math.pi * m / (n - 1))
            + 0.08 * np.cos(4.0 * math.pi * m / (n - 1)))


def hann(n: int) -> np.ndarray:
    m = np.arange(n)
    return 0.5 - 0.5 * np.cos(2.0 * math.pi * m / (n - 1))


def dft_rows(n_in: int, length: int, bins) -> np.ndarray:
    """Rows e^{-2 pi i k m / length} for each bin k, over m < n_in."""
    k = np.asarray(bins, dtype=np.float64)[:, None]
    m = np.arange(n_in, dtype=np.float64)[None, :]
    return np.exp(-2j * math.pi * k * m / length)


def range_bin_energies(samples: np.ndarray, fft_len: int) -> np.ndarray:
    """sum over chirps of |range DFT|^2, per bin, Blackman-windowed."""
    x = samples.astype(np.float64) * blackman(samples.shape[1])
    spectra = x @ dft_rows(samples.shape[1], fft_len, range(fft_len)).T
    return np.sum(spectra.real ** 2 + spectra.imag ** 2, axis=0)


def range_column(samples: np.ndarray, k: int, fft_len: int) -> np.ndarray:
    """Blackman-windowed range DFT of every chirp at one bin."""
    x = samples.astype(np.float64) * blackman(samples.shape[1])
    return x @ dft_rows(samples.shape[1], fft_len, [k])[0]


def stft_rows(seq: np.ndarray, window_len: int, hop: int) -> np.ndarray:
    """Hann-window STFT magnitude of fully contained windows, zero centred."""
    s = window_len
    n_rows = (len(seq) - (s - hop)) // hop
    frames = np.stack([seq[i * hop : i * hop + s] for i in range(n_rows)])
    spectra = (frames * hann(s)) @ dft_rows(s, s, range(s)).T
    out = np.empty((n_rows, s))
    out[:, (np.arange(s) + s // 2) % s] = np.abs(spectra)
    return out


def top_k_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Per row keep the k largest values, lower column first among equals."""
    out = np.zeros_like(values)
    for r, row in enumerate(values.tolist()):
        keep = sorted(range(len(row)), key=lambda j: (-row[j], j))[:k]
        out[r, keep] = values[r, keep]
    return out


def expected_map_count(n_chirps: int, window_len: int, hop: int,
                       segment_len: int, trim: int) -> int:
    """Maps a cube yields: STFT rows of the differenced sequence, cut and trimmed."""
    n_rows = (n_chirps - 1 - (window_len - hop)) // hop
    return max(0, n_rows // segment_len - 2 * trim)


def chain_maps(samples: np.ndarray, gesture_bin: int, fft_len: int,
               window_len: int = 192, hop: int = 8, segment_len: int = 48,
               trim: int = 6, band=(-0.26, 0.26), top_k: int = 48):
    """Normalized uDoppler maps of one cube at a given range bin."""
    col = range_column(samples, gesture_bin, fft_len)
    full = stft_rows(col[1:] - col[:-1], window_len, hop)
    n_seg = full.shape[0] // segment_len
    lo = int(math.floor((band[0] + 0.5) * window_len))
    hi = int(math.floor((band[1] + 0.5) * window_len))
    maps = []
    for i in range(trim, n_seg - trim):
        seg = full[i * segment_len : (i + 1) * segment_len]
        norm = (seg - seg.min()) / (seg.max() - seg.min())
        maps.append(top_k_rows(norm[:, lo : hi + 1], top_k))
    return maps


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def ttfs_mismatches(values: np.ndarray, bits: np.ndarray) -> int:
    """Pixels whose spikes break the TTFS rule.

    A pixel v > 0 must spike exactly once, at 1-based step
    max(1, T - floor(v T)); a zero pixel must not spike.
    """
    t_inf = bits.shape[0]
    spikes = bits.reshape(t_inf, *values.shape).astype(np.int64)
    per_pixel = spikes.sum(axis=0)
    step = np.maximum(1, t_inf - np.floor(values * t_inf).astype(np.int64))
    fired_at = np.argmax(spikes, axis=0) + 1
    nz = values > 0.0
    bad = (nz & ((per_pixel != 1) | (fired_at != step))) | (~nz & (per_pixel != 0))
    return int(bad.sum())
