"""Surrogate-gradient BPTT trainer: gradients, Adam, schedules, folds."""

import json
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from dense_reference import dense_bptt
from sanity_data import sanity_spike_dataset
from scalar_reference import random_tiny_model, scalar_adam_update
from spikeradar import training
from spikeradar.errors import InvalidInput, NonFiniteGradient, StratificationError
from spikeradar.snn import SnnModel, forward_batch, init_model, save_model
from spikeradar.training import (
    GAIN_AT_THRESHOLD,
    AdamState,
    FoldReport,
    TrainConfig,
    adam_step,
    backprop_through_time,
    cross_entropy,
    surrogate_gain,
    train,
)


def tiny_model(weights, meta, t_inf, shape=(1, 8, 8), n_classes=3, hidden=7):
    return SnnModel(weights=weights, t_inf=t_inf, input_shape=shape)


# ── surrogate ───────────────────────────────────────────────────────────────


def test_surrogate_gain_at_threshold():
    assert abs(GAIN_AT_THRESHOLD - 1.0 / np.sqrt(2.0 * np.pi)) < 1e-15
    assert abs(surrogate_gain(0.0) - 1.0 / np.sqrt(2.0 * np.pi)) < 1e-12


def test_surrogate_evenness_and_decay():
    # integer-scaled grid is bit-symmetric about zero, linspace is not
    x = np.arange(-200, 201) * 0.02
    g = surrogate_gain(x)
    assert np.array_equal(g, g[::-1]), "even function"
    assert g.max() == g[200], "peak at zero"
    assert surrogate_gain(4.0) < 1e-12


def test_spike_backward_scales_by_gain():
    # the backward pass's fused term: grad * surrogate(v_pre - 1)
    v_pre = np.array([1.0, 0.0, 2.0, 1.5])
    grad = np.array([1.0, 1.0, 1.0, -3.0])
    out = training._surrogate_term(v_pre, grad, np.empty(4))
    assert out[0] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi))
    assert out[1] == pytest.approx(np.exp(-2.0) / np.sqrt(2.0 * np.pi))
    assert out[1] == pytest.approx(out[2])
    assert out[3] == pytest.approx(-3.0 * surrogate_gain(0.5))
    assert np.array_equal(out, grad * surrogate_gain(v_pre - 1.0))


# ── loss ────────────────────────────────────────────────────────────────────


def test_cross_entropy_reference_values():
    probs = np.full((4, 5), 0.2)
    labels = np.array([0, 1, 2, 3])
    assert cross_entropy(probs, labels) == pytest.approx(np.log(5.0))
    sure = np.eye(3)[np.array([0, 1, 2])] * 0.999 + 0.0005
    assert cross_entropy(sure, np.array([0, 1, 2])) < 2e-3


# ── gradient check ──────────────────────────────────────────────────────────


def relaxed_loss(model, weights, bits, labels):
    out = forward_batch(replace(model, weights=weights), bits, mode="relaxed")
    return cross_entropy(out.probs, labels)


def max_grad_error(model, bits, labels, rng, n_probe=40, h=1e-5):
    grads, _, _ = backprop_through_time(model, bits, labels, mode="relaxed")
    worst = 0.0
    for name, w in model.weights.items():
        flat_idx = rng.choice(w.size, size=min(n_probe, w.size), replace=False)
        for fi in flat_idx:
            idx = np.unravel_index(fi, w.shape)
            wp = {k: v.copy() for k, v in model.weights.items()}
            wp[name][idx] += h
            up = relaxed_loss(model, wp, bits, labels)
            wp[name][idx] -= 2 * h
            down = relaxed_loss(model, wp, bits, labels)
            fd = (up - down) / (2 * h)
            an = grads[name][idx]
            denom = max(abs(an), abs(fd))
            if denom < 1e-8:
                err = 0.0 if abs(an - fd) < 1e-8 else 1.0
            else:
                err = abs(an - fd) / denom
            worst = max(worst, err)
    return worst


def test_bptt_matches_finite_differences():
    """Smoothed-dynamics gradients vs central differences, 20 models."""
    rng = np.random.default_rng(70)
    for trial in range(20):
        n_classes = int(rng.integers(2, 5))
        hidden = int(rng.integers(4, 9))
        weights, bits, meta = random_tiny_model(
            rng, t_inf=2, n_classes=n_classes, hidden=hidden, scale=0.7,
        )
        model = tiny_model(weights, meta, 2, n_classes=n_classes, hidden=hidden)
        batch = bits[None].repeat(3, axis=0)
        # vary the copies so the batch is not degenerate
        batch[1] ^= (rng.random(batch[1].shape) < 0.1).astype(np.uint8)
        batch[2] ^= (rng.random(batch[2].shape) < 0.1).astype(np.uint8)
        labels = rng.integers(0, n_classes, size=3)
        err = max_grad_error(model, batch, labels.astype(np.int64), rng)
        assert err < 1e-3, f"trial {trial}: max rel grad error {err}"


def max_rel_error(grads, ref):
    """Worst over tensors of max |a - b| relative to the reference's max |b|."""
    worst = 0.0
    for name, g in ref.items():
        scale = np.abs(g).max()
        err = np.abs(grads[name] - g).max()
        worst = max(worst, err / scale if scale > 0 else err)
    return worst


@pytest.mark.parametrize("mode", ["hard", "relaxed"])
def test_bptt_matches_dense_reference_tiny(mode):
    """Lean BPTT vs the dense im2col/full-surrogate/unpool algorithm."""
    rng = np.random.default_rng(75)
    for trial in range(12):
        t_inf = int(rng.integers(1, 6))
        n_classes = int(rng.integers(2, 5))
        hidden = int(rng.integers(4, 9))
        # 9 rows or columns give an odd conv output, so the pool truncates
        shape = [(1, 8, 8), (2, 9, 8), (1, 8, 9)][trial % 3]
        weights, bits, meta = random_tiny_model(
            rng, t_inf=t_inf, shape=shape, n_classes=n_classes, hidden=hidden,
            dyadic=True, scale=1.0,
        )
        model = tiny_model(weights, meta, t_inf, shape, n_classes, hidden)
        batch = (rng.random((5,) + bits.shape) < 0.35).astype(np.uint8)
        labels = rng.integers(0, n_classes, size=5).astype(np.int64)
        grads, loss, probs = backprop_through_time(model, batch, labels, mode=mode)
        ref, ref_loss, ref_probs = dense_bptt(model, batch, labels, mode=mode)
        assert np.allclose(probs, ref_probs, rtol=1e-13, atol=0), trial
        assert loss == pytest.approx(ref_loss, rel=1e-13), trial
        assert max_rel_error(grads, ref) < 1e-12, trial


@pytest.mark.parametrize("kernel", [(5, 5), (4, 4)])
@pytest.mark.parametrize("mode", ["hard", "relaxed"])
def test_bptt_matches_dense_reference_full_size(mode, kernel):
    """48x100 input; the 4x4 kernel leaves a 45x97 map with odd edges."""
    rng = np.random.default_rng(76)
    model = init_model(input_shape=(1, 48, 100), n_classes=5, t_inf=4,
                       seed=3, kernel=kernel)
    # louder layers so that sigma1..sigma3 all spike on random input
    model.weights["conv"] *= 3.0
    model.weights["fc1"] *= 8.0
    model.weights["fc2"] *= 8.0
    batch = (rng.random((6, 4, 1, 48, 100)) < 0.12).astype(np.uint8)
    labels = np.arange(6, dtype=np.int64) % 5
    grads, _, probs = backprop_through_time(model, batch, labels, mode=mode)
    ref, _, ref_probs = dense_bptt(model, batch, labels, mode=mode)
    if mode == "hard":
        counts = forward_batch(model, batch).spike_counts
        assert all(counts[f"sigma{i}"].sum() > 0 for i in (1, 2, 3))
    assert np.allclose(probs, ref_probs, rtol=1e-13, atol=0)
    assert max_rel_error(grads, ref) < 1e-12


def test_hard_gradients_finite_and_nonzero():
    rng = np.random.default_rng(71)
    weights, bits, meta = random_tiny_model(rng, t_inf=4, scale=0.9)
    model = tiny_model(weights, meta, 4)
    labels = np.array([1, 0], dtype=np.int64)
    batch = np.stack([bits, bits])
    grads, loss, probs = backprop_through_time(model, batch, labels)
    assert np.isfinite(loss)
    assert probs.shape == (2, 3)
    total = sum(np.abs(g).sum() for g in grads.values())
    assert np.isfinite(total) and total > 0


def test_duplicated_example_doubles_its_contribution():
    # batch-mean linearity: (n+1)*grad(batch + dup) - n*grad(batch)
    # must equal the lone example's gradient
    rng = np.random.default_rng(72)
    weights, bits, meta = random_tiny_model(rng, t_inf=3, scale=0.9)
    model = tiny_model(weights, meta, 3)
    batch = (rng.random((5,) + bits.shape) < 0.35).astype(np.uint8)
    labels = rng.integers(0, 3, size=5).astype(np.int64)
    dup_batch = np.concatenate([batch, batch[2:3]])
    dup_labels = np.concatenate([labels, labels[2:3]])

    g_n, _, _ = backprop_through_time(model, batch, labels)
    g_dup, _, _ = backprop_through_time(model, dup_batch, dup_labels)
    g_single, _, _ = backprop_through_time(model, batch[2:3], labels[2:3])
    for k in g_n:
        recovered = 6.0 * g_dup[k] - 5.0 * g_n[k]
        assert np.allclose(recovered, g_single[k], rtol=1e-9, atol=1e-12), k


def test_label_validation():
    rng = np.random.default_rng(73)
    weights, bits, meta = random_tiny_model(rng, t_inf=2)
    model = tiny_model(weights, meta, 2)
    batch = bits[None].repeat(6, axis=0)
    good = np.arange(6, dtype=np.int64) % 3
    bad_labels = [
        good.astype(np.float64),  # floats, even integer-valued ones
        np.where(good == 2, 3, good),  # class 3 of a 3-class model
        np.where(good == 0, -1, good),
        good[:, None],  # 2-D
        good[:5],  # one short
    ]
    cfg = TrainConfig(epochs_full=1, epochs_qat=0, folds=2, seed=0)
    for labels in bad_labels:
        with pytest.raises(InvalidInput):
            backprop_through_time(model, batch, labels)
        with pytest.raises(InvalidInput, match="labels"):
            train(model, (batch, labels), cfg)


# ── Adam ────────────────────────────────────────────────────────────────────


def test_adam_matches_scalar_oracle_over_steps():
    rng = np.random.default_rng(74)
    w = {"a": rng.standard_normal(6)}
    state = AdamState.for_weights(w)
    ow = list(w["a"])
    om = [0.0] * 6
    ov = [0.0] * 6
    for t in range(1, 8):
        g = {"a": rng.standard_normal(6)}
        w, state = adam_step(w, g, state, lr=3e-3)
        ow, om, ov = scalar_adam_update(
            ow, list(g["a"]), om, ov, t, 3e-3, 0.9, 0.999, 1e-8
        )
        assert np.allclose(w["a"], ow, rtol=1e-12, atol=1e-15), f"step {t}"


def test_adam_in_place_update_is_bit_identical():
    """The in-place update keeps the operation order of the plain formula."""
    rng = np.random.default_rng(77)
    w = {"a": rng.standard_normal(500), "b": rng.standard_normal((7, 9))}
    state = AdamState.for_weights(w)
    m_arrays = dict(state.m)
    ref_w = {k: v.copy() for k, v in w.items()}
    ref_m = {k: np.zeros_like(v) for k, v in w.items()}
    ref_v = {k: np.zeros_like(v) for k, v in w.items()}
    lr, beta1, beta2, eps = 2e-3, 0.9, 0.999, 1e-8
    for t in range(1, 9):
        g = {k: rng.standard_normal(v.shape) * 10.0 ** -t for k, v in w.items()}
        adam_step(w, g, state, lr=lr)
        for k in ref_w:
            ref_m[k] = beta1 * ref_m[k] + (1.0 - beta1) * g[k]
            ref_v[k] = beta2 * ref_v[k] + (1.0 - beta2) * np.square(g[k])
            m_hat = ref_m[k] / (1.0 - beta1 ** t)
            v_hat = ref_v[k] / (1.0 - beta2 ** t)
            ref_w[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert np.array_equal(w[k], ref_w[k]), (k, t)
            assert np.array_equal(state.m[k], ref_m[k]), (k, t)
            assert np.array_equal(state.v[k], ref_v[k]), (k, t)
            assert state.m[k] is m_arrays[k]


def test_adam_rejects_non_finite_gradient():
    w = {"a": np.zeros(3)}
    state = AdamState.for_weights(w)
    with pytest.raises(NonFiniteGradient):
        adam_step(w, {"a": np.array([0.0, np.inf, 0.0])}, state, lr=1e-3)


# ── config and report ───────────────────────────────────────────────────────


def test_train_config_validation():
    TrainConfig()
    with pytest.raises(InvalidInput):
        TrainConfig(lr=0.0)
    with pytest.raises(InvalidInput):
        TrainConfig(folds=1)
    with pytest.raises(InvalidInput):
        TrainConfig(batch=0)
    with pytest.raises(InvalidInput):
        TrainConfig(bits=9)
    with pytest.raises(InvalidInput):
        TrainConfig(epochs_full=-1)


def test_fold_report_json_roundtrip():
    report = FoldReport(
        fold_accuracies=[0.9, 0.8, 1.0],
        confusion=np.array([[3, 1], [0, 4]]),
        loss_curves=[[1.0, 0.5], [1.1, 0.6], [0.9, 0.4]],
        n_classes=2,
        bits=4,
        seed=7,
    )
    back = json.loads(report.to_json())
    assert back["format"] == "spikeradar-fold-report"
    assert back["version"] == 1
    assert back["fold_accuracies"] == report.fold_accuracies
    assert back["mean_accuracy"] == pytest.approx(0.9)
    assert back["std_accuracy"] == pytest.approx(report.std_accuracy)
    assert back["confusion"] == [[3, 1], [0, 4]]
    assert back["loss_curves"] == report.loss_curves
    assert (back["n_classes"], back["bits"], back["seed"]) == (2, 4, 7)


# ── training loop ───────────────────────────────────────────────────────────


def small_sanity(n_per_class=30, seed=80):
    return sanity_spike_dataset(n_per_class=n_per_class, seed=seed)


def test_untrained_model_is_at_chance():
    bits, labels = small_sanity()
    m = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=0)
    cfg = TrainConfig(epochs_full=0, epochs_qat=0, folds=3, seed=1)
    _, report = train(m, (bits, labels), cfg)
    # silent fresh network: uniform probabilities, argmax hits class 0,
    # so accuracy sits at exactly the 1/N_c chance level on balanced data
    for acc in report.fold_accuracies:
        assert 0.3 <= acc <= 0.7, report.fold_accuracies


def test_training_learns_separable_data():
    bits, labels = sanity_spike_dataset(n_per_class=100, seed=3)
    m = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=0)
    # batch sized to the 200-example dataset so each fold takes enough steps
    best, report = train(m, (bits, labels), TrainConfig(seed=1, batch=16, folds=3))
    assert report.mean_accuracy >= 0.95, report.fold_accuracies
    assert best.quantized is not None
    limit = 2 ** (4 - 1) - 1
    for name, q in best.quantized.items():
        assert q.bits == 4
        assert np.abs(q.codes.astype(int)).max() <= limit, name
    # confusion totals = number of validation examples over all folds
    assert report.confusion.sum() == len(labels)


def test_loss_decreases_for_most_seeds():
    # fresh inits start silent past the first layer, so the loss sits on the
    # ln(2) plateau for several epochs before the readout wakes; lr 5e-3
    # shortens the wait enough for 12 epochs to show a clear drop
    bits, labels = sanity_spike_dataset(n_per_class=60, seed=5)
    wins = 0
    runs = 10
    for seed in range(runs):
        m = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=seed)
        cfg = TrainConfig(lr=5e-3, epochs_full=12, epochs_qat=0, folds=2,
                          batch=16, seed=seed)
        _, report = train(m, (bits, labels), cfg)
        curve = report.loss_curves[0]
        wins += curve[-1] < curve[0] - 0.05
    assert wins >= 9, f"loss fell materially in {wins}/{runs} runs"


def test_training_determinism():
    bits, labels = small_sanity(n_per_class=20, seed=81)
    cfg = TrainConfig(epochs_full=2, epochs_qat=1, folds=2, seed=4)
    m1 = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=0)
    _, r1 = train(m1, (bits, labels), cfg)
    m2 = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=0)
    _, r2 = train(m2, (bits, labels), cfg)
    assert r1.to_json() == r2.to_json()


def test_evaluate_confusion_shape():
    """Every fold's held-out evaluation adds into one confusion matrix."""
    m = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=0)
    bits, labels = small_sanity(n_per_class=10, seed=83)
    cfg = TrainConfig(epochs_full=0, epochs_qat=0, folds=2, seed=0)
    _, report = train(m, (bits, labels), cfg)
    assert report.confusion.shape == (2, 2)
    assert report.confusion.sum() == len(labels)
    # two stratified folds of 10 examples each
    correct = sum(acc * 10 for acc in report.fold_accuracies)
    assert np.trace(report.confusion) == round(correct)


# ── fold pool ───────────────────────────────────────────────────────────────


def force_workers(monkeypatch, n):
    monkeypatch.setattr(training, "_fold_workers", lambda folds: n)


def test_stratification_error_before_any_training(monkeypatch):
    bits, labels = small_sanity(n_per_class=12, seed=84)
    keep = np.concatenate([np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)[:2]])
    calls = []

    def counting_bptt(*args, **kwargs):
        calls.append(1)
        return backprop_through_time(*args, **kwargs)

    monkeypatch.setattr(training, "backprop_through_time", counting_bptt)
    force_workers(monkeypatch, 1)  # the calls are counted in this process
    m = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=0)
    cfg = TrainConfig(epochs_full=1, epochs_qat=0, folds=3, seed=2)
    with pytest.raises(StratificationError):
        train(m, (bits[keep], labels[keep]), cfg)
    assert calls == []
    _, report = train(m, (bits, labels), cfg)  # the counter does count
    assert len(calls) > 0 and len(report.fold_accuracies) == 3


def test_worker_count_does_not_change_result(monkeypatch, tmp_path):
    # more folds than workers, so a worker trains two of them
    bits, labels = small_sanity(n_per_class=12, seed=85)
    cfg = TrainConfig(lr=1e-2, epochs_full=2, epochs_qat=1, folds=3, batch=8,
                      seed=6)
    outputs = []
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        m = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=0)
        best, report = train(m, (bits, labels), cfg)
        assert multiprocessing.active_children() == []
        path = tmp_path / f"workers{workers}.bin"
        save_model(best, str(path))
        outputs.append((path.read_bytes(), report.to_json()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_worker_error_reaches_caller_and_workers_end(monkeypatch):
    real = training.backprop_through_time

    def nan_bptt(*args, **kwargs):  # adam_step rejects the NaN gradient
        grads, loss, probs = real(*args, **kwargs)
        grads["fc2"][0, 0] = np.nan
        return grads, loss, probs

    monkeypatch.setattr(training, "backprop_through_time", nan_bptt)
    force_workers(monkeypatch, 2)
    bits, labels = small_sanity(n_per_class=12, seed=86)
    m = init_model(input_shape=(1, 12, 12), n_classes=2, t_inf=4, seed=0)
    cfg = TrainConfig(epochs_full=1, epochs_qat=0, folds=3, batch=8, seed=7)
    with pytest.raises(NonFiniteGradient) as info:
        train(m, (bits, labels), cfg)
    # raised in a worker: the pool attaches the worker's traceback
    assert type(info.value.__cause__).__name__ == "_RemoteTraceback"
    assert multiprocessing.active_children() == []
