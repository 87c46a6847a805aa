"""Integer-code forward with exact rational spike decisions, a test oracle.

Every layer is held as int64 sums of its int8 codes, the convolution runs
tap by tap, and a neuron holding m code units of a layer with scale s
spikes when m * Fraction(s) >= 1, compared as exact rationals. Nothing is
rounded anywhere, and no threshold is derived from the scale first. Slow on
purpose; run only on tiny instances.
"""

from fractions import Fraction

import numpy as np


def _fire(m, d, scale):
    """One compare-then-integrate step of an IF layer held as integer sums.

    The spike decision reads the pre-update sums; a spiking neuron resets
    to 0 and drops its drive, a silent one integrates and is clamped at 0.
    Returns (next sums, spikes).
    """
    s = Fraction(scale)
    spikes = np.array([int(x) * s >= 1 for x in m.reshape(-1)],
                      dtype=bool).reshape(m.shape)
    return np.where(spikes, 0, np.maximum(m + d, 0)), spikes


def integer_forward(codes, scales, bits):
    """Classify spike tensors with integer codes and one scale per tensor.

    Args:
        codes: "conv" (C1, C, kh, kw), "fc1" (hidden, flat), "fc2"
            (classes, hidden) integer codes.
        scales: the matching positive scales.
        bits: (N, T, C, H, W) binary input.

    Returns:
        dict with "accumulator" (N, classes) int64, "counts" (N, 4) int64
        spike counts of input, sigma1, sigma2, sigma3, and "predicted" (N,)
        argmax of the accumulator, lowest index first.
    """
    b, t_inf, c_in, h, w = bits.shape
    k_conv = np.asarray(codes["conv"], dtype=np.int64)
    k_fc1 = np.asarray(codes["fc1"], dtype=np.int64)
    k_fc2 = np.asarray(codes["fc2"], dtype=np.int64)
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
    for k in range(t_inf):
        m1, s1 = _fire(m1, d1[:, k], scales["conv"])
        pooled = s1[:, :, : 2 * ph, : 2 * pw].reshape(b, c1, ph, 2, pw, 2)
        flat = pooled.any(axis=(3, 5)).reshape(b, -1).astype(np.int64)
        m2, s2 = _fire(m2, flat @ k_fc1.T, scales["fc1"])
        m3, s3 = _fire(m3, s2.astype(np.int64) @ k_fc2.T, scales["fc2"])
        acc += s3
        counts[:, 1] += s1.reshape(b, -1).sum(axis=1)
        counts[:, 2] += s2.sum(axis=1)
        counts[:, 3] += s3.sum(axis=1)
    return {"accumulator": acc, "counts": counts,
            "predicted": np.argmax(acc, axis=1)}
