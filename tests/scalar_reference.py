"""Independent scalar-loop reference implementations used as test oracles.

Everything here is written as plain nested Python loops over explicit
state machines, with no shared code or vectorization tricks from the
package under test. Slow on purpose; run only on tiny instances.
"""

import cmath
import math

import numpy as np


def naive_stft_magnitude(samples, window_len, hop):
    """STFT magnitude via an explicit per-window, per-bin DFT sum.

    Windows are fully contained, Hanning weighted, and the frequency
    axis is rotated so the zero bin sits at index window_len // 2.
    Accepts real or complex input.
    """
    x = [complex(v) for v in samples]
    s = window_len
    n_frames = (len(x) - (s - hop)) // hop
    win = [0.5 - 0.5 * math.cos(2.0 * math.pi * n / (s - 1)) for n in range(s)]
    out = np.zeros((n_frames, s))
    for i in range(n_frames):
        start = i * hop
        seg = [x[start + n] * win[n] for n in range(s)]
        for j in range(s):
            z = 0.0 + 0.0j
            for n in range(s):
                z += seg[n] * cmath.exp(-2j * math.pi * j * n / s)
            # rotate: DFT bin j lands at centered index (j + s//2) mod s
            out[i, (j + s // 2) % s] = abs(z)
    return out


# tally of reset steps that swallowed a positive incoming drive; tests read
# and reset it to confirm the discard branch is actually exercised
DISCARDED_DRIVE_EVENTS = 0


def scalar_if_step(v, drive):
    """One neuron, one step. Returns (v_next, spike)."""
    global DISCARDED_DRIVE_EVENTS
    if v >= 1.0:
        if drive > 0.0:
            DISCARDED_DRIVE_EVENTS += 1
        return 0.0, 1
    v_next = v + drive
    if v_next < 0.0:
        v_next = 0.0
    return v_next, 0


def scalar_forward(weights, bits, n_classes, hidden):
    """Whole-network forward as explicit loops. Returns (acc, probs, counts).

    bits: (T, C, H, W) binary input for one example.
    weights: dict with conv (C1, C, kh, kw), fc1 (hidden, flat), fc2
    (n_classes, hidden).
    """
    w_conv = weights["conv"]
    w_fc1 = weights["fc1"]
    w_fc2 = weights["fc2"]
    t_inf, c_in, h, w = bits.shape
    c1, _, kh, kw = w_conv.shape
    oh, ow = h - kh + 1, w - kw + 1
    ph, pw = oh // 2, ow // 2

    v1 = [[[0.0] * ow for _ in range(oh)] for _ in range(c1)]
    v2 = [0.0] * hidden
    v3 = [0.0] * n_classes
    acc = [0.0] * n_classes
    n_s1 = 0
    n_s2 = 0
    n_s3 = 0

    for k in range(t_inf):
        frame = bits[k]
        s1 = [[[0] * ow for _ in range(oh)] for _ in range(c1)]
        for co in range(c1):
            for y in range(oh):
                for x in range(ow):
                    drive = 0.0
                    for ci in range(c_in):
                        for dy in range(kh):
                            for dx in range(kw):
                                if frame[ci, y + dy, x + dx]:
                                    drive += float(w_conv[co, ci, dy, dx])
                    v1[co][y][x], s1[co][y][x] = scalar_if_step(
                        v1[co][y][x], drive
                    )
                    n_s1 += s1[co][y][x]
        pooled = [[[0] * pw for _ in range(ph)] for _ in range(c1)]
        for co in range(c1):
            for y in range(ph):
                for x in range(pw):
                    m = 0
                    for dy in range(2):
                        for dx in range(2):
                            if s1[co][2 * y + dy][2 * x + dx]:
                                m = 1
                    pooled[co][y][x] = m
        flat = []
        for co in range(c1):
            for y in range(ph):
                for x in range(pw):
                    flat.append(pooled[co][y][x])
        s2 = [0] * hidden
        for u in range(hidden):
            drive = 0.0
            for i, bit in enumerate(flat):
                if bit:
                    drive += float(w_fc1[u, i])
            v2[u], s2[u] = scalar_if_step(v2[u], drive)
            n_s2 += s2[u]
        s3 = [0] * n_classes
        for u in range(n_classes):
            drive = 0.0
            for i in range(hidden):
                if s2[i]:
                    drive += float(w_fc2[u, i])
            v3[u], s3[u] = scalar_if_step(v3[u], drive)
            n_s3 += s3[u]
        for u in range(n_classes):
            acc[u] += s3[u]

    top = max(acc)
    exps = [math.exp(a - top) for a in acc]
    z = sum(exps)
    probs = [e / z for e in exps]
    counts = {"sigma1": n_s1, "sigma2": n_s2, "sigma3": n_s3}
    return np.array(acc), np.array(probs), counts


def scalar_adam_update(w, g, m, v, t, lr, beta1, beta2, eps):
    """One Adam step on flat Python lists. Returns (w', m', v')."""
    w2, m2, v2 = [], [], []
    for wi, gi, mi, vi in zip(w, g, m, v):
        mn = beta1 * mi + (1.0 - beta1) * gi
        vn = beta2 * vi + (1.0 - beta2) * gi * gi
        mhat = mn / (1.0 - beta1**t)
        vhat = vn / (1.0 - beta2**t)
        w2.append(wi - lr * mhat / (math.sqrt(vhat) + eps))
        m2.append(mn)
        v2.append(vn)
    return w2, m2, v2


def dyadic_weights(rng, shape, scale=0.25, grid_bits=20):
    """Random weights on the 2^-grid_bits dyadic grid.

    Every value, and every partial sum of a few hundred of them, is
    exactly representable in float64, so summation order cannot change
    the result; lets tests demand bit-equality between implementations.
    """
    step = 2.0**-grid_bits
    ticks = int(round(scale / step))
    return rng.integers(-ticks, ticks + 1, size=shape).astype(np.float64) * step


def random_tiny_model(rng, t_inf=4, shape=(1, 8, 8), n_classes=3, hidden=7,
                      dyadic=False, scale=0.6):
    """Weights + random input bits for a minimal network instance."""
    c, h, w = shape
    c1 = int(rng.integers(2, 5))
    kh = kw = 3 if h >= 5 else 2
    oh, ow = h - kh + 1, w - kw + 1
    flat = c1 * (oh // 2) * (ow // 2)
    shapes = {
        "conv": (c1, c, kh, kw),
        "fc1": (hidden, flat),
        "fc2": (n_classes, hidden),
    }
    if dyadic:
        weights = {k: dyadic_weights(rng, s, scale) for k, s in shapes.items()}
    else:
        weights = {k: rng.uniform(-scale, scale, size=s) for k, s in shapes.items()}
    bits = (rng.random((t_inf, c, h, w)) < 0.35).astype(np.uint8)
    return weights, bits, {"c1": c1, "kernel": (kh, kw)}
