"""Spiking network engine vs scalar state-machine references."""

import json
import os

import numpy as np
import pytest

from integer_reference import integer_forward
from scalar_reference import dyadic_weights, random_tiny_model, scalar_forward
from spikeradar.encoding import SpikeTensor
from spikeradar.errors import InvalidInput, MissingQuantizedWeights
from spikeradar.quant import QuantizedTensor, dequantize, quantize
from spikeradar.snn import (
    THRESHOLD,
    SnnModel,
    _if_update,
    _maxpool_route,
    forward,
    forward_batch,
    init_model,
    load_model,
    relaxed_spike,
    resolve_weights,
    save_model,
    softmax,
)

def tiny_model(weights, meta, t_inf, shape, n_classes, hidden):
    return SnnModel(weights=weights, t_inf=t_inf, input_shape=shape)


# ── single-neuron dynamics ──────────────────────────────────────────────────


def test_if_step_branch_semantics():
    # sub-threshold accumulation
    v, s = _if_update(np.array([0.5]), np.array([0.3]), THRESHOLD)
    assert not s[0] and v[0] == pytest.approx(0.8)
    # above threshold: spike, reset, and the incoming drive is discarded
    v, s = _if_update(np.array([1.2]), np.array([99.0]), THRESHOLD)
    assert s[0] and v[0] == 0.0
    # negative drive clamps at zero
    v, s = _if_update(np.array([0.1]), np.array([-5.0]), THRESHOLD)
    assert not s[0] and v[0] == 0.0


def test_if_constant_drive_trace():
    # J = 0.4 from rest: potential walks 0.4, 0.8, 1.2, then the spike is
    # emitted on the NEXT step (decision reads the pre-update potential)
    v = np.zeros(1)
    trace = []
    spikes = []
    for _ in range(6):
        v, s = _if_update(v, np.array([0.4]), THRESHOLD)
        trace.append(round(float(v[0]), 10))
        spikes.append(int(s[0]))
    assert spikes == [0, 0, 0, 1, 0, 0]
    assert trace == [0.4, 0.8, 1.2, 0.0, 0.4, 0.8]


def test_relaxed_spike_anchors():
    # smooth stand-in: 1/4 at threshold, -> 0 far below, -> 1/2 far above
    assert relaxed_spike(np.array([1.0]))[0] == pytest.approx(0.25)
    assert relaxed_spike(np.array([-10.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert relaxed_spike(np.array([12.0]))[0] == pytest.approx(0.5, abs=1e-12)


# ── pooling ─────────────────────────────────────────────────────────────────


def test_maxpool_or_and_window_membership():
    bits = np.zeros((1, 1, 4, 4), dtype=np.uint8)
    out = _maxpool_route(bits, want_route=False)[0]
    assert out.shape == (1, 1, 2, 2)
    assert out.sum() == 0

    bits[0, 0, 0, 1] = 1
    out = _maxpool_route(bits, want_route=False)[0]
    assert out[0, 0, 0, 0] == 1
    assert out.sum() == 1

    ones = np.ones((1, 1, 4, 4), dtype=np.uint8)
    assert np.all(_maxpool_route(ones, want_route=False)[0] == 1)


def test_maxpool_matches_bruteforce_windows():
    rng = np.random.default_rng(60)
    for _ in range(15):
        bits = (rng.random((2, 3, 6, 6)) < 0.3).astype(np.uint8)
        out = _maxpool_route(bits, want_route=False)[0]
        for b in range(2):
            for c in range(3):
                for y in range(3):
                    for x in range(3):
                        window = bits[b, c, 2 * y:2 * y + 2, 2 * x:2 * x + 2]
                        assert out[b, c, y, x] == window.max()


def test_maxpool_truncates_odd_edges():
    bits = np.ones((1, 1, 5, 7), dtype=np.uint8)
    out = _maxpool_route(bits, want_route=False)[0]
    assert out.shape == (1, 1, 2, 3)


# ── forward equivalence ─────────────────────────────────────────────────────


def test_forward_bit_exact_vs_scalar_reference():
    """Dyadic-grid weights make every sum exact, so the vectorized pass
    and the scalar loop must agree to the last bit on 50 random models."""
    rng = np.random.default_rng(61)
    for trial in range(50):
        t_inf = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 5))
        hidden = int(rng.integers(4, 10))
        shape = (int(rng.integers(1, 3)), 8, 8)
        weights, bits, meta = random_tiny_model(
            rng, t_inf=t_inf, shape=shape, n_classes=n_classes,
            hidden=hidden, dyadic=True,
        )
        model = tiny_model(weights, meta, t_inf, shape, n_classes, hidden)
        probs, trace = forward(model, SpikeTensor(bits=bits))
        acc_ref, probs_ref, counts_ref = scalar_forward(
            weights, bits, n_classes, hidden
        )
        assert np.array_equal(trace.accumulator, acc_ref), f"trial {trial}"
        assert np.array_equal(probs, probs_ref), f"trial {trial}"
        for name in ("sigma1", "sigma2", "sigma3"):
            assert trace.spike_counts[name] == counts_ref[name], (trial, name)


def test_forward_close_vs_scalar_reference_continuous():
    # same check with generic floats; summation order may differ, so ask
    # for 1e-12 closeness instead of equality
    rng = np.random.default_rng(62)
    for trial in range(10):
        weights, bits, meta = random_tiny_model(rng, t_inf=4, dyadic=False)
        model = tiny_model(weights, meta, 4, (1, 8, 8), 3, 7)
        probs, trace = forward(model, SpikeTensor(bits=bits))
        acc_ref, probs_ref, _ = scalar_forward(weights, bits, 3, 7)
        assert np.abs(trace.accumulator - acc_ref).max() == 0.0
        assert np.abs(probs - probs_ref).max() < 1e-12


def test_zero_input_propagates_zero():
    m = init_model(input_shape=(1, 10, 10), n_classes=4, t_inf=4, seed=5)
    bits = np.zeros((4, 1, 10, 10), dtype=np.uint8)
    probs, trace = forward(m, SpikeTensor(bits=bits))
    assert sum(trace.spike_counts.values()) == 0
    assert np.all(trace.accumulator == 0)
    assert np.allclose(probs, 0.25)


def test_accumulator_bounded_by_t_inf():
    rng = np.random.default_rng(64)
    for _ in range(10):
        weights, bits, meta = random_tiny_model(rng, t_inf=5, scale=1.5)
        model = tiny_model(weights, meta, 5, (1, 8, 8), 3, 7)
        _, trace = forward(model, SpikeTensor(bits=bits))
        assert trace.accumulator.max() <= 5


def test_batch_composition_invariance():
    """An example's output may not depend on what else is in the batch."""
    rng = np.random.default_rng(65)
    m = init_model(input_shape=(1, 12, 12), n_classes=3, t_inf=4, seed=9)
    batch = (rng.random((16, 4, 1, 12, 12)) < 0.4).astype(np.uint8)
    full = forward_batch(m, batch)
    for i in (0, 5, 15):
        alone = forward_batch(m, batch[i:i + 1])
        assert np.array_equal(alone.probs[0], full.probs[i]), f"example {i}"
        assert np.array_equal(alone.accumulator[0], full.accumulator[i])
    # different company, same result
    pair = forward_batch(m, batch[[5, 15]])
    assert np.array_equal(pair.probs[0], full.probs[5])
    assert np.array_equal(pair.probs[1], full.probs[15])


def test_forward_shape_validation():
    m = init_model(input_shape=(1, 10, 10), n_classes=3, t_inf=4, seed=1)
    with pytest.raises(InvalidInput):
        forward(m, SpikeTensor(bits=np.zeros((3, 1, 10, 10), dtype=np.uint8)))
    with pytest.raises(InvalidInput):
        forward(m, SpikeTensor(bits=np.zeros((4, 1, 9, 10), dtype=np.uint8)))


def test_quantized_forward_identity_on_representable_weights():
    # weights already on the quantizer grid: the dequantized view is
    # bit-identical, so both passes must agree exactly
    rng = np.random.default_rng(66)
    m = init_model(input_shape=(1, 10, 10), n_classes=3, t_inf=4, seed=2)
    for name, w in m.weights.items():
        limit = 2 ** (4 - 1) - 1
        codes = rng.integers(-limit, limit + 1, size=w.shape)
        m.weights[name] = codes.astype(np.float64) * 0.125
    m.quantized = {k: quantize(v, bits=4) for k, v in m.weights.items()}
    for name in m.weights:
        assert np.array_equal(
            m.weights[name],
            m.quantized[name].codes.astype(np.float64) * m.quantized[name].scale,
        )
    bits = (rng.random((6, 4, 1, 10, 10)) < 0.3).astype(np.uint8)
    full = forward_batch(m, bits, use_quantized=False)
    quant = forward_batch(m, bits, use_quantized=True)
    assert np.array_equal(full.probs, quant.probs)


def test_quantized_forward_requires_quantized_weights():
    m = init_model(input_shape=(1, 10, 10), n_classes=3, t_inf=4, seed=3)
    bits = np.zeros((1, 4, 1, 10, 10), dtype=np.uint8)
    with pytest.raises(MissingQuantizedWeights):
        forward_batch(m, bits, use_quantized=True)
    m.quantized = {k: quantize(v, bits=4) for k, v in m.weights.items()}
    with pytest.raises(InvalidInput):
        forward_batch(m, bits, use_quantized=True, mode="relaxed")


# ── quantized view in code units vs the exact-rational oracle ───────────────


def assert_matches_integer_oracle(model, bits):
    """Accumulators, predictions and all four spike counts, bit for bit."""
    codes = {n: q.codes for n, q in model.quantized.items()}
    scales = {n: q.scale for n, q in model.quantized.items()}
    want = integer_forward(codes, scales, bits)
    got = forward_batch(model, bits, use_quantized=True)
    assert np.array_equal(got.accumulator, want["accumulator"])
    assert np.array_equal(np.argmax(got.probs, axis=1), want["predicted"])
    names = ("input", "sigma1", "sigma2", "sigma3")
    counts = np.stack([got.spike_counts[n] for n in names], axis=1)
    assert np.array_equal(counts, want["counts"])
    return counts


def view_dtype(model):
    return resolve_weights(model, use_quantized=True)[0]["conv"].dtype


def shrink_scale(model, name):
    """Give a layer a scale so small that its threshold, about 1e9 units,
    breaks float32's 2^24 bound and moves the whole view to float64."""
    q = model.quantized[name]
    model.quantized[name] = QuantizedTensor(codes=q.codes, scale=1e-9, bits=q.bits)
    assert model.quantized[name].threshold > 2 ** 24


@pytest.mark.parametrize("n_bits", [4, 6, 8])
def test_quantized_forward_matches_integer_oracle(n_bits):
    rng = np.random.default_rng(90 + n_bits)
    totals = np.zeros(4, dtype=np.int64)
    for _ in range(12):
        t_inf = int(rng.integers(2, 6))
        n_classes = int(rng.integers(2, 5))
        hidden = int(rng.integers(4, 10))
        shape = (int(rng.integers(1, 3)), 8, 8)
        weights, _, meta = random_tiny_model(
            rng, t_inf=t_inf, shape=shape, n_classes=n_classes, hidden=hidden,
            scale=1.5,
        )
        model = tiny_model(weights, meta, t_inf, shape, n_classes, hidden)
        model.quantized = {k: quantize(w, n_bits) for k, w in weights.items()}
        assert view_dtype(model) == np.float32
        bits = (rng.random((6, t_inf) + shape) < 0.35).astype(np.uint8)
        totals += assert_matches_integer_oracle(model, bits).sum(axis=0)
    assert (totals > 0).all(), totals


def test_quantized_all_zero_tensor_matches_integer_oracle():
    # an all-zero tensor quantizes to scale 1, so its layer fires at 1 unit
    rng = np.random.default_rng(94)
    weights, bits, meta = random_tiny_model(rng, t_inf=4, scale=1.5)
    weights["fc1"][:] = 0.0
    model = tiny_model(weights, meta, 4, (1, 8, 8), 3, 7)
    model.quantized = {k: quantize(w, 4) for k, w in weights.items()}
    fc1 = model.quantized["fc1"]
    assert fc1.scale == 1.0 and fc1.threshold == 1
    batch = (rng.random((5,) + bits.shape) < 0.35).astype(np.uint8)
    counts = assert_matches_integer_oracle(model, batch)
    assert counts[:, 1].sum() > 0 and counts[:, 2:].sum() == 0


def one_third_tie_model():
    """Three codes of scale 1/3 sum to 0.99999999999999994 exactly, short
    of the threshold; the float sum of the dequantized weights rounds to
    1.0, so a float forward fires a step early. Returns (model, bits)."""
    views = {
        "conv": QuantizedTensor(codes=np.ones((1, 1, 3, 3), dtype=np.int8),
                                scale=1 / 3, bits=4),
        "fc1": QuantizedTensor(codes=np.ones((1, 1), dtype=np.int8),
                               scale=1.0, bits=4),
        "fc2": QuantizedTensor(codes=np.array([[1], [0]], dtype=np.int8),
                               scale=1.0, bits=4),
    }
    assert views["conv"].threshold == 4
    weights = {k: dequantize(q) for k, q in views.items()}
    model = tiny_model(weights, {"c1": 1, "kernel": (3, 3)}, 4, (1, 4, 4), 2, 1)
    model.quantized = views
    # three spikes in the top-left conv cell's window at every step, two in
    # the window of the cell below it
    bits = np.zeros((1, 4, 1, 4, 4), dtype=np.uint8)
    bits[0, :, 0, 0:3, 0] = 1
    return model, bits


def test_quantized_tie_at_one_third_matches_integer_oracle():
    model, bits = one_third_tie_model()
    assert view_dtype(model) == np.float32
    counts = assert_matches_integer_oracle(model, bits)
    # 3 units after step 1 do not fire; both cells fire once, at step 3,
    # with 6 and 4 units, and sigma2 follows a step later
    assert counts[0].tolist() == [12, 2, 1, 0]


# ── the float32 code-unit view and its float64 fallback ─────────────────────


@pytest.mark.parametrize("n_bits", [4, 6, 8])
def test_float64_fallback_matches_integer_oracle(n_bits):
    rng = np.random.default_rng(190 + n_bits)
    totals = np.zeros(4, dtype=np.int64)
    for _ in range(8):
        t_inf = int(rng.integers(2, 6))
        shape = (int(rng.integers(1, 3)), 8, 8)
        weights, _, meta = random_tiny_model(rng, t_inf=t_inf, shape=shape,
                                             n_classes=3, hidden=7, scale=1.5)
        model = tiny_model(weights, meta, t_inf, shape, 3, 7)
        model.quantized = {k: quantize(w, n_bits) for k, w in weights.items()}
        shrink_scale(model, "fc2")  # sigma3 cannot fire; sigma1, sigma2 can
        assert view_dtype(model) == np.float64
        bits = (rng.random((6, t_inf) + shape) < 0.35).astype(np.uint8)
        totals += assert_matches_integer_oracle(model, bits).sum(axis=0)
    assert (totals[:3] > 0).all() and totals[3] == 0, totals


def test_tie_at_one_third_in_the_float64_fallback():
    model, bits = one_third_tie_model()
    shrink_scale(model, "fc2")  # sigma3 does not fire here either way
    assert view_dtype(model) == np.float64
    assert assert_matches_integer_oracle(model, bits)[0].tolist() == [12, 2, 1, 0]


def test_float_forward_keeps_float64_master_weights():
    m = init_model(input_shape=(1, 10, 10), n_classes=3, t_inf=4, seed=4)
    m.quantized = {k: quantize(v, bits=4) for k, v in m.weights.items()}
    assert resolve_weights(m, use_quantized=False)[0]["fc1"].dtype == np.float64
    assert view_dtype(m) == np.float32


# ── the tapeless forward against the full-length one ────────────────────────


@pytest.mark.parametrize("quantized", [False, True])
@pytest.mark.parametrize("t_inf", [1, 2, 3, 4, 5, 28])
def test_tapeless_forward_matches_full_length_forward(t_inf, quantized):
    """Without a tape a hard forward skips the steps on which a layer cannot
    fire yet and the drives and updates nothing reads; the taped forward
    runs every stage at every step, and the scalar state machine is check
    5's oracle. All three must agree bit for bit."""
    rng = np.random.default_rng(300 + t_inf)
    weights, _, meta = random_tiny_model(rng, t_inf=t_inf, n_classes=3, hidden=7,
                                         dyadic=True, scale=1.5)
    model = tiny_model(weights, meta, t_inf, (1, 8, 8), 3, 7)
    if quantized:
        model.quantized = {k: quantize(w, 4) for k, w in weights.items()}
    bits = (rng.random((8, t_inf, 1, 8, 8)) < 0.35).astype(np.uint8)
    lean = forward_batch(model, bits, use_quantized=quantized)
    full = forward_batch(model, bits, use_quantized=quantized, want_tape=True)
    assert np.array_equal(lean.probs, full.probs)
    assert np.array_equal(lean.accumulator, full.accumulator)
    assert np.array_equal(lean.per_step_spikes, full.per_step_spikes)
    for name, counts in full.spike_counts.items():
        assert np.array_equal(lean.spike_counts[name], counts), name
    # layer l cannot fire before step l
    for layer in (1, 2, 3):
        assert not full.per_step_spikes[:layer, layer].any()
    if t_inf >= 4:
        assert full.per_step_spikes[3:, 3].any()
    if not quantized:
        for i in range(len(bits)):
            acc, _, counts = scalar_forward(weights, bits[i], 3, 7)
            assert np.array_equal(lean.accumulator[i], acc), i
            for name in ("sigma1", "sigma2", "sigma3"):
                assert lean.spike_counts[name][i] == counts[name], (i, name)


# ── softmax ─────────────────────────────────────────────────────────────────


def test_softmax_rows_and_stability():
    x = np.array([[0.0, 0.0], [1000.0, 1000.0], [-3.0, 5.0]])
    p = softmax(x)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.allclose(p[0], 0.5)
    assert np.allclose(p[1], 0.5)
    assert p[2, 1] > p[2, 0]
    assert np.isfinite(p).all()


# ── init and persistence ────────────────────────────────────────────────────


def test_init_model_shapes_and_determinism():
    m = init_model(input_shape=(1, 48, 100), n_classes=5, t_inf=4, seed=0)
    assert m.weights["conv"].shape == (12, 1, 5, 5)
    assert m.weights["fc1"].shape == (128, 12 * 22 * 48)
    assert m.weights["fc2"].shape == (5, 128)
    m2 = init_model(input_shape=(1, 48, 100), n_classes=5, t_inf=4, seed=0)
    for k in m.weights:
        assert np.array_equal(m.weights[k], m2.weights[k])
    m3 = init_model(input_shape=(1, 48, 100), n_classes=5, t_inf=4, seed=1)
    assert not np.array_equal(m.weights["conv"], m3.weights["conv"])


@pytest.mark.parametrize("sizes", [
    dict(hidden=0), dict(n_classes=0), dict(conv_channels=-1),
    dict(kernel=(0, 5)), dict(input_shape=(0, 8, 8)), dict(input_shape=(1, 5, 8)),
])
def test_init_model_rejects_empty_layers(sizes):
    args = dict(input_shape=(1, 8, 8), n_classes=2, t_inf=2) | sizes
    with pytest.raises(InvalidInput):
        init_model(**args)


def test_glorot_bounds():
    m = init_model(input_shape=(1, 20, 20), n_classes=4, t_inf=4, seed=7)
    flat = 12 * 8 * 8  # 16x16 conv output, pooled to 8x8
    limits = {
        "conv": np.sqrt(6.0 / (1 * 25 + 12 * 25)),
        "fc1": np.sqrt(6.0 / (flat + 128)),
        "fc2": np.sqrt(6.0 / (128 + 4)),
    }
    for name, w in m.weights.items():
        assert np.abs(w).max() <= limits[name], name
        # a uniform draw this large should come close to its limit
        assert np.abs(w).max() > 0.8 * limits[name], name


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(67)
    m = init_model(input_shape=(1, 12, 12), n_classes=3, t_inf=4, seed=4)
    m.quantized = {k: quantize(v, bits=4) for k, v in m.weights.items()}
    m.provenance = {"trained_on": "unit-test", "fold": 2}
    path = os.path.join(tmp_path, "model.bin")
    save_model(m, path)
    back = load_model(path)
    assert back.t_inf == m.t_inf
    assert back.n_classes == m.n_classes
    assert back.input_shape == m.input_shape
    assert back.provenance == m.provenance
    for k in m.weights:
        assert np.array_equal(back.weights[k], m.weights[k]), k
        assert np.array_equal(back.quantized[k].codes, m.quantized[k].codes)
        assert back.quantized[k].scale == m.quantized[k].scale
        assert back.quantized[k].bits == 4

    bits = (rng.random((4, 1, 12, 12)) < 0.4).astype(np.uint8)
    p1, _ = forward(m, SpikeTensor(bits=bits), use_quantized=True)
    p2, _ = forward(back, SpikeTensor(bits=bits), use_quantized=True)
    assert np.array_equal(p1, p2)


def test_save_load_without_quantized(tmp_path):
    m = init_model(input_shape=(1, 8, 8), n_classes=2, t_inf=2, seed=5)
    path = os.path.join(tmp_path, "fp.bin")
    save_model(m, path)
    back = load_model(path)
    assert back.quantized is None
    for k in m.weights:
        assert np.array_equal(back.weights[k], m.weights[k])


def test_load_rejects_garbage(tmp_path):
    path = os.path.join(tmp_path, "junk.bin")
    with open(path, "wb") as f:
        f.write(b"not a model\n\x00\x01")
    with pytest.raises(InvalidInput):
        load_model(path)


def test_load_rejects_malformed_manifest(tmp_path):
    m = init_model(input_shape=(1, 8, 8), n_classes=2, t_inf=2, seed=5)
    m.quantized = {k: quantize(v, bits=4) for k, v in m.weights.items()}
    good = os.path.join(tmp_path, "good.bin")
    save_model(m, good)
    with open(good, "rb") as f:
        manifest = json.loads(f.readline())
        payload = f.read()

    def without(key):
        return {k: v for k, v in manifest.items() if k != key}

    cases = [
        {"format": "spikeradar-model"},
        without("tensors"),
        without("hidden"),
        dict(manifest, tensors=["conv", "fc1"]),
        dict(manifest, hidden="16"),
        dict(manifest, hidden=manifest["hidden"] + 1),
        dict(manifest, kernel=[3]),
        dict(manifest, quantization={"bits": 4}),
        [1, 2],
    ]
    files = [json.dumps(bad).encode() + b"\n" + payload for bad in cases]
    # fc2's codes with 3 columns where its weight has 128
    m.quantized["fc2"] = QuantizedTensor(codes=np.ones((2, 3), dtype=np.int8),
                                         scale=0.1, bits=4)
    save_model(m, good)
    with open(good, "rb") as f:
        files.append(f.read())
    # an empty hidden layer, with the manifest stating hidden 0
    m.quantized = None
    m.weights = dict(m.weights, fc1=np.zeros((0, m.weights["fc1"].shape[1])),
                     fc2=np.zeros((2, 0)))
    save_model(m, good)
    with open(good, "rb") as f:
        files.append(f.read())
    for i, content in enumerate(files):
        path = os.path.join(tmp_path, f"bad{i}.bin")
        with open(path, "wb") as f:
            f.write(content)
        with pytest.raises(InvalidInput) as exc:
            load_model(path)
        assert path in str(exc.value), i



def test_load_rejects_other_fire_mode(tmp_path):
    m = init_model(input_shape=(1, 8, 8), n_classes=2, t_inf=2, seed=5)
    good = os.path.join(tmp_path, "good.bin")
    save_model(m, good)
    with open(good, "rb") as f:
        manifest = json.loads(f.readline())
        payload = f.read()
    assert manifest["fire_mode"] == "compare_then_integrate"
    bad = os.path.join(tmp_path, "bad.bin")
    with open(bad, "wb") as f:
        f.write(json.dumps(dict(manifest, fire_mode="integrate_then_fire"))
                .encode() + b"\n" + payload)
    with pytest.raises(InvalidInput):
        load_model(bad)


def test_load_ignores_keys_of_earlier_files(tmp_path):
    """Files from earlier versions also carry the architecture as a layer
    list and Adam's constants in the training config; both are ignored."""
    rng = np.random.default_rng(68)
    m = init_model(input_shape=(1, 12, 12), n_classes=3, t_inf=4, seed=4)
    m.quantized = {k: quantize(v, bits=4) for k, v in m.weights.items()}
    m.provenance = {
        "trained_on": "fold-cv", "fold": 0, "n_examples": 60,
        "config": {"lr": 1e-3, "batch": 16, "epochs_full": 2, "epochs_qat": 1,
                   "folds": 2, "seed": 9, "bits": 4},
    }
    path = os.path.join(tmp_path, "model.bin")
    save_model(m, path)
    with open(path, "rb") as f:
        manifest = json.loads(f.readline())
        payload = f.read()
    assert "layers" not in manifest

    none = dict(out_channels=None, kernel=None, stride=1, padding=0, pool=None,
                pool_stride=None, in_features=None, out_features=None)
    old = dict(manifest, layers=[
        dict(none, kind="conv2d", out_channels=12, kernel=[5, 5]),
        dict(none, kind="maxpool", pool=[2, 2], pool_stride=2),
        dict(none, kind="flatten"),
        dict(none, kind="dense", in_features=192, out_features=128),
        dict(none, kind="dense", in_features=128, out_features=3),
        dict(none, kind="accumulator"),
    ])
    old["provenance"] = dict(manifest["provenance"])
    old["provenance"]["config"] = dict(manifest["provenance"]["config"],
                                       beta1=0.9, beta2=0.999, eps=1e-8)
    old_path = os.path.join(tmp_path, "old.bin")
    with open(old_path, "wb") as f:
        f.write(json.dumps(old, sort_keys=True).encode() + b"\n" + payload)

    new, back = load_model(path), load_model(old_path)
    bits = (rng.random((5, 4, 1, 12, 12)) < 0.4).astype(np.uint8)
    for use_quantized in (False, True):
        a = forward_batch(new, bits, use_quantized=use_quantized)
        b = forward_batch(back, bits, use_quantized=use_quantized)
        assert np.array_equal(a.probs, b.probs)
        assert np.array_equal(a.accumulator, b.accumulator)
        for name in a.spike_counts:
            assert np.array_equal(a.spike_counts[name], b.spike_counts[name])
    for k in m.weights:
        assert np.array_equal(back.weights[k], m.weights[k]), k
        assert np.array_equal(back.quantized[k].codes, m.quantized[k].codes), k
