"""Dense reference for the BPTT gradients, used as a test oracle.

The straightforward form of the training step's algorithm: one im2col GEMM
for the conv drive of every step of the whole batch, a full-size tape and
surrogate for sigma1, and an explicit unpool scatter of the pooled-cell
gradients back to each window's routed cell. The package computes the same
gradients without building any of those full-size arrays; tests compare
the two in both forward modes.
"""

import numpy as np

from spikeradar.snn import (
    THRESHOLD,
    WEIGHT_NAMES,
    _if_update,
    _maxpool_route,
    relaxed_spike,
    softmax,
)
from spikeradar.training import cross_entropy, surrogate_gain


def im2col(x, kh, kw):
    """(B, C, H, W) -> (B*OH*OW, C*kh*kw) float64, columns (channel, row, col)."""
    b, c, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    s0, s1, s2, s3 = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x, shape=(b, c, oh, ow, kh, kw), strides=(s0, s1, s2, s3, s2, s3)
    )
    cols = np.ascontiguousarray(patches.transpose(0, 2, 3, 1, 4, 5), dtype=np.float64)
    return cols.reshape(b * oh * ow, c * kh * kw)


def unpool(grad_pooled, route, spatial):
    """Scatter (B, C, PH, PW) gradients to each window's routed cell of a
    zero (B, C, H, W) array; truncated odd rows and columns stay zero."""
    b, c, ph, pw = grad_pooled.shape
    out = np.zeros((b, c) + tuple(spatial))
    for q in range(4):
        view = out[..., (q >> 1) :: 2, (q & 1) :: 2][..., :ph, :pw]
        np.copyto(view, grad_pooled, where=(route == q))
    return out


def dense_forward(model, bits, mode, weights):
    """Forward pass keeping every step's full state; returns (probs, tape)."""
    w_conv, w_fc1, w_fc2 = (weights[n] for n in WEIGHT_NAMES)
    b, t = bits.shape[:2]
    c1, oh, ow = model.shape_after_conv()
    kh, kw = model.kernel
    hard = mode == "hard"
    x_tb = np.ascontiguousarray(bits.transpose(1, 0, 2, 3, 4)).reshape(
        t * b, *model.input_shape
    )
    cols = im2col(x_tb, kh, kw)
    j1_steps = (cols @ w_conv.reshape(c1, -1).T).reshape(
        t, b, oh, ow, c1
    ).transpose(0, 1, 4, 2, 3)
    v = [np.zeros((b, c1, oh, ow)), np.zeros((b, model.hidden)),
         np.zeros((b, model.n_classes))]
    acc = np.zeros((b, model.n_classes))
    tape = {name: [] for name in ("v1", "s1", "route", "flat", "v2", "s2", "v3", "s3")}

    def layer(i, drive):
        tape[f"v{i + 1}"].append(v[i])
        if hard:
            v[i], s = _if_update(v[i], drive, THRESHOLD)
            s = s.astype(np.uint8)
        else:
            s = relaxed_spike(v[i])
            v[i] = v[i] + drive
        tape[f"s{i + 1}"].append(s)
        return s

    for k in range(t):
        s1 = layer(0, j1_steps[k])
        pooled, route = _maxpool_route(s1)
        flat = pooled.reshape(b, -1)
        tape["route"].append(route)
        tape["flat"].append(flat)
        s2 = layer(1, np.asarray(flat, dtype=np.float64) @ w_fc1.T)
        s3 = layer(2, np.asarray(s2, dtype=np.float64) @ w_fc2.T)
        acc += s3
    tape = {name: np.stack(values) for name, values in tape.items()}
    tape["cols"] = cols
    return softmax(acc), tape


def layer_backward(g_spikes, v_pre, spikes, relaxed):
    """Adjoint recurrence of one IF layer; returns each step's drive adjoint."""
    t = g_spikes.shape[0]
    g_drive = np.empty(g_spikes.shape)
    g_v = np.zeros(g_spikes.shape[1:])
    for k in range(t - 1, -1, -1):
        carry = np.ones_like(g_v) if relaxed else 1.0 - spikes[k]
        g_drive[k] = g_v * carry
        g_v = g_drive[k] + g_spikes[k] * surrogate_gain(v_pre[k] - 1.0)
    return g_drive


def dense_bptt(model, bits, labels, mode="hard", weights=None):
    """(grads, loss, probs) for one batch, as backprop_through_time returns."""
    bits = np.asarray(bits)
    labels = np.asarray(labels, dtype=np.int64)
    weights = model.weights if weights is None else weights
    probs, tape = dense_forward(model, bits, mode, weights)
    b, t = bits.shape[:2]
    relaxed = mode == "relaxed"
    c1, oh, ow = model.shape_after_conv()
    ph, pw = oh // 2, ow // 2

    g_acc = probs.copy()
    g_acc[np.arange(b), labels] -= 1.0
    g_acc /= b
    g_j3 = layer_backward(np.broadcast_to(g_acc, (t,) + g_acc.shape),
                          tape["v3"], tape["s3"], relaxed)
    g_s2 = (g_j3.reshape(t * b, -1) @ weights["fc2"]).reshape(t, b, -1)
    g_j2 = layer_backward(g_s2, tape["v2"], tape["s2"], relaxed)
    g_pooled = (g_j2.reshape(t * b, -1) @ weights["fc1"]).reshape(t * b, c1, ph, pw)
    g_s1 = unpool(g_pooled, tape["route"].reshape(t * b, c1, ph, pw), (oh, ow))
    g_j1 = layer_backward(g_s1.reshape(t, b, c1, oh, ow), tape["v1"],
                          tape["s1"], relaxed)

    g_j1_rows = g_j1.transpose(0, 1, 3, 4, 2).reshape(-1, c1)
    grads = {
        "conv": (g_j1_rows.T @ tape["cols"]).reshape(weights["conv"].shape),
        "fc1": g_j2.reshape(t * b, -1).T @ tape["flat"].reshape(t * b, -1),
        "fc2": g_j3.reshape(t * b, -1).T @ tape["s2"].reshape(t * b, -1),
    }
    return grads, cross_entropy(probs, labels), probs
