"""Surrogate-gradient training: BPTT, Adam, QAT epoch, k-fold harness.

The hard spike has no useful derivative, so the backward pass substitutes a
Gaussian surrogate evaluated at the distance from threshold. Temporal credit
flows through the membrane carry (identity on non-spiking steps) and is
severed through the reset. The backward recurrence per IF layer, iterating
k = T..1 with gV_{T+1} = 0:

    gJ_k = gV_{k+1} * c_k
    gV_k = gV_{k+1} * c_k + gS_k * surrogate(V_k - 1)

with carry factor c_k = 1 - S_k in hard mode (c_k = 1 in the relaxed mode,
where the same recurrence is exact). Layers are processed sigma3 -> sigma2
-> sigma1, since each layer's gS comes from the next layer's gJ.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import stratified_folds
from .errors import InvalidInput, NonFiniteGradient
from .quant import dequantize, quantize
from .snn import THRESHOLD, SnnModel, forward_batch, init_model, patch_chunks

GAIN_AT_THRESHOLD = 1.0 / np.sqrt(2.0 * np.pi)

# Adam's moment decay rates and denominator offset, the usual defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def surrogate_gain(x: np.ndarray) -> np.ndarray:
    """Gaussian surrogate derivative: (1/sqrt(2 pi)) exp(-2 x^2).

    Even in x, peaks at x = 0 with value 1/sqrt(2 pi) ~= 0.398942.
    """
    return GAIN_AT_THRESHOLD * np.exp(-2.0 * np.square(x))


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true class."""
    p = probs[np.arange(probs.shape[0]), labels]
    return float(-np.mean(np.log(np.maximum(p, 1e-300))))


def _surrogate_term(v_pre, g_spikes, out):
    """out = g_spikes * gain(v_pre - 1), fused in place."""
    np.subtract(v_pre, THRESHOLD, out=out)
    np.square(out, out=out)
    out *= -2.0
    np.exp(out, out=out)
    out *= GAIN_AT_THRESHOLD
    out *= g_spikes
    return out


def _check_labels(labels, n: int, n_classes: int) -> np.ndarray:
    """labels as int64; InvalidInput unless they are n integers in
    [0, n_classes)."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise InvalidInput("labels must be 1-D, one per example")
    if labels.dtype.kind not in "iu":
        raise InvalidInput("labels must be integers")
    labels = labels.astype(np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise InvalidInput(
            f"labels outside [0, {n_classes}): [{labels.min()}, {labels.max()}]"
        )
    return labels


def _layer_time_backward(g_spikes, v_pre, spikes, relaxed: bool):
    """Run the per-layer adjoint recurrence over time.

    Args:
        g_spikes: (T, ...) adjoint of each step's spike output.
        v_pre: (T, ...) pre-update potentials.
        spikes: (T, ...) emitted spikes (ignored when relaxed).
        relaxed: carry factor 1 instead of (1 - S).

    Returns:
        g_drive: (T, ...) adjoint of each step's input drive J_k.
    """
    t = g_spikes.shape[0]
    g_drive = np.empty_like(g_spikes)
    g_v_next = np.zeros_like(g_spikes[0])
    scratch = np.empty_like(g_v_next)
    for k in range(t - 1, -1, -1):
        gd = g_drive[k]
        np.copyto(gd, g_v_next)
        if not relaxed:
            np.copyto(gd, 0.0, where=(spikes[k] != 0))
        np.add(gd, _surrogate_term(v_pre[k], g_spikes[k], scratch), out=g_v_next)
    return g_drive


def _sigma1_backward(g_routed, v1_routed, cells, spikes, relaxed: bool, bits, kernel):
    """Run sigma1's adjoint recurrence and accumulate the conv weight gradient.

    sigma1's spikes reach fc1 through the 2x2 pool, so only the cell each
    pool window routes to receives a spike adjoint, and the surrogate is
    evaluated at those cells only.

    Args:
        g_routed: (T, B, C, PH, PW) adjoint of each pooled cell's spike.
        v1_routed: (T, B, C, PH, PW) pre-update potential of the routed cell.
        cells: (T, B, C, PH, PW) flat index of the routed cell into one
            step's (B, C, OH, OW) map.
        spikes: (T, B, C, OH, OW) emitted spikes (ignored when relaxed).
        relaxed: carry factor 1 instead of (1 - S).
        bits: (B, T, C_in, H, W) input spikes, whose patches are gathered
            again for the weight gradient.
        kernel: (kh, kw).

    Returns:
        (C, C_in*kh*kw) conv weight gradient; the conv layer is first, so
        no input gradient is needed.
    """
    t, b, c1 = spikes.shape[:3]
    kh, kw = kernel
    g_w = np.zeros((c1, bits.shape[2] * kh * kw))
    # running membrane adjoint; after the reset mask, step k's drive adjoint
    g_v = np.zeros(spikes.shape[1:])
    g_v_cells = g_v.reshape(-1)
    g_v_rows = g_v.reshape(b, c1, -1)
    scratch = np.empty(g_routed.shape[1:])
    live = False  # g_v may be non-zero
    for k in range(t - 1, -1, -1):
        if live:
            if not relaxed:
                np.copyto(g_v, 0.0, where=(spikes[k] != 0))
            for i, patches in patch_chunks(bits[:, k], kh, kw):
                g_chunk = g_v_rows[i : i + len(patches)]
                g_w += np.matmul(g_chunk, patches.transpose(0, 2, 1)).sum(axis=0)
        # A spike at step k reaches the loss only through later steps, so the
        # last steps' spike adjoints are exactly zero and add nothing.
        if not g_routed[k].any():
            continue
        live = True
        g_v_cells[cells[k]] += _surrogate_term(v1_routed[k], g_routed[k], scratch)
    return g_w


def backprop_through_time(
    model: SnnModel,
    bits: np.ndarray,
    labels: np.ndarray,
    mode: str = "hard",
):
    """Gradients of the mean cross-entropy on softmax(A) for one batch.

    The forward, and the linear-map Jacobians of the backward, which must
    match the forward graph, run on model.weights. The QAT epochs hand in a
    copy of the model whose weights are the dequantized view, and apply the
    returned gradients to the master weights all the same (straight-through
    estimator for the quantizer).

    Returns:
        (grads, loss, probs) with grads keyed like model.weights.
    """
    bits = np.asarray(bits)
    labels = _check_labels(labels, bits.shape[0], model.n_classes)
    out = forward_batch(model, bits, mode=mode, want_tape=True)
    tape = out.tape
    b = bits.shape[0]
    t = model.t_inf
    relaxed = mode == "relaxed"
    w_fc1, w_fc2 = model.weights["fc1"], model.weights["fc2"]

    loss = cross_entropy(out.probs, labels)
    g_acc = out.probs.copy()
    g_acc[np.arange(b), labels] -= 1.0
    g_acc /= b

    # sigma3: the accumulator is a plain sum, so every step's spike output
    # shares the same adjoint.
    g_s3 = np.broadcast_to(g_acc, (t,) + g_acc.shape)
    g_j3 = _layer_time_backward(
        np.ascontiguousarray(g_s3, dtype=np.float64), tape.v3_pre, tape.s3, relaxed
    )

    # sigma2
    g_s2 = g_j3.reshape(t * b, -1) @ w_fc2
    g_s2 = g_s2.reshape(t, b, -1)
    g_j2 = _layer_time_backward(g_s2, tape.v2_pre, tape.s2, relaxed)

    # sigma1: the adjoint of each pooled cell is that of its routed cell's spike
    g_routed = (g_j2.reshape(t * b, -1) @ w_fc1).reshape(tape.cells.shape)
    g_w1 = _sigma1_backward(
        g_routed, tape.v1_routed, tape.cells, tape.s1, relaxed, bits, model.kernel
    )

    s2_flat = np.ascontiguousarray(tape.s2.reshape(t * b, -1), dtype=np.float64)
    g_w3 = g_j3.reshape(t * b, -1).T @ s2_flat
    flat_flat = np.ascontiguousarray(tape.flat.reshape(t * b, -1), dtype=np.float64)
    g_w2 = g_j2.reshape(t * b, -1).T @ flat_flat
    grads = {
        "conv": g_w1.reshape(model.weights["conv"].shape),
        "fc1": g_w2,
        "fc2": g_w3,
    }
    return grads, loss, out.probs


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    m: dict
    v: dict
    t: int = 0

    @staticmethod
    def for_weights(weights: dict) -> "AdamState":
        return AdamState(
            m={n: np.zeros_like(w) for n, w in weights.items()},
            v={n: np.zeros_like(w) for n, w in weights.items()},
        )


def adam_step(
    weights: dict,
    grads: dict,
    state: AdamState,
    lr: float,
):
    """Standard bias-corrected Adam update, in place on weights and state."""
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"non-finite gradient in {name!r}")
    state.t += 1
    c1 = 1.0 - ADAM_BETA1 ** state.t
    c2 = 1.0 - ADAM_BETA2 ** state.t
    for name in weights:
        g, m, v = grads[name], state.m[name], state.v[name]
        # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2,
        # then w -= lr m_hat / (sqrt(v_hat) + eps), in two scratch arrays
        step = np.multiply(g, 1.0 - ADAM_BETA1)
        m *= ADAM_BETA1
        m += step
        denom = np.square(g)
        denom *= 1.0 - ADAM_BETA2
        v *= ADAM_BETA2
        v += denom
        np.divide(m, c1, out=step)
        step *= lr
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        weights[name] -= step
    return weights, state


# ---------------------------------------------------------------------------
# cross-validation harness


@dataclass
class TrainConfig:
    """Training protocol: Adam 1e-3, batch 64, 14 full + 1 QAT epoch,
    6-fold cross-validation, 4-bit deployment weights."""

    lr: float = 1e-3
    batch: int = 64
    epochs_full: int = 14
    epochs_qat: int = 1
    folds: int = 6
    seed: int = 0
    bits: int = 4

    def __post_init__(self):
        if not self.lr > 0.0:
            raise InvalidInput("lr must be > 0")
        if self.epochs_full < 0 or self.epochs_qat < 0:
            raise InvalidInput("epoch counts must be >= 0")
        if self.folds < 2:
            raise InvalidInput("folds must be >= 2")
        if self.batch < 1:
            raise InvalidInput("batch must be >= 1")
        if not (2 <= self.bits <= 8):
            raise InvalidInput(f"bits must be in [2, 8], got {self.bits}")


@dataclass
class FoldReport:
    """Cross-validation outcome: per-fold accuracy, aggregate confusion
    matrix over all validation folds, and per-fold loss curves."""

    fold_accuracies: list
    confusion: np.ndarray
    loss_curves: list
    n_classes: int
    bits: int
    seed: int

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.fold_accuracies))

    @property
    def std_accuracy(self) -> float:
        return float(np.std(self.fold_accuracies))

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "spikeradar-fold-report",
                "version": 1,
                "fold_accuracies": self.fold_accuracies,
                "mean_accuracy": self.mean_accuracy,
                "std_accuracy": self.std_accuracy,
                "confusion": self.confusion.tolist(),
                "loss_curves": self.loss_curves,
                "n_classes": self.n_classes,
                "bits": self.bits,
                "seed": self.seed,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class _FoldJob:
    """What every fold of one train call reads."""

    model: SnnModel
    bits: np.ndarray
    labels: np.ndarray
    fold_ids: np.ndarray
    cfg: TrainConfig


def _train_fold(job: _FoldJob, fold: int):
    """Train and evaluate one fold: a fresh init seeded by (cfg.seed, fold),
    epochs_full full-precision epochs, epochs_qat QAT epochs, a final
    quantization and the quantized evaluation on the held-out fold.

    Returns:
        (accuracy, confusion, loss_curve, fold_model).
    """
    model, bits, labels, cfg = job.model, job.bits, job.labels, job.cfg
    val_mask = job.fold_ids == fold
    train_idx = np.flatnonzero(~val_mask)
    val_idx = np.flatnonzero(val_mask)

    m = init_model(input_shape=model.input_shape, n_classes=model.n_classes,
                   t_inf=model.t_inf, seed=[cfg.seed, fold, 0], hidden=model.hidden,
                   conv_channels=model.conv_channels, kernel=model.kernel)
    shuffle_rng = np.random.default_rng([cfg.seed, fold, 1])
    adam = AdamState.for_weights(m.weights)
    curve = []

    for epoch in range(cfg.epochs_full + cfg.epochs_qat):
        perm = shuffle_rng.permutation(train_idx)
        loss_sum = 0.0
        for i in range(0, len(perm), cfg.batch):
            batch_idx = perm[i : i + cfg.batch]
            view = m
            if epoch >= cfg.epochs_full:
                # QAT: the quantized view is rebuilt from the just-updated
                # master before every batch, never reused stale.
                view = replace(m, weights={
                    name: dequantize(quantize(w, cfg.bits))
                    for name, w in m.weights.items()})
            grads, loss, _ = backprop_through_time(view, bits[batch_idx],
                                                   labels[batch_idx])
            adam_step(m.weights, grads, adam, lr=cfg.lr)
            loss_sum += loss * len(batch_idx)
        curve.append(loss_sum / len(train_idx))

    m.quantized = {name: quantize(w, cfg.bits) for name, w in m.weights.items()}
    val_labels = labels[val_idx]
    preds = forward_batch(m, bits[val_idx], use_quantized=True).probs.argmax(axis=1)
    confusion = np.zeros((m.n_classes, m.n_classes), dtype=np.int64)
    np.add.at(confusion, (val_labels, preds), 1)
    acc = int((preds == val_labels).sum()) / len(val_idx)
    return acc, confusion, curve, m


# ---------------------------------------------------------------------------
# fold pool


def _blas_thread_setters() -> list:
    """The thread-count setters of the OpenBLAS libraries loaded in this
    process, found through /proc/self/maps; empty where there is none."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return []
    setters = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's and scipy's bundled builds, then a system OpenBLAS
        for name in ("scipy_openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "openblas_set_num_threads"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setters.append(setter)
                break
    return setters


def _fold_workers(folds: int) -> int:
    """Processes to train the folds on: one per CPU in this process's
    affinity mask, at most one per fold.

    Each worker must run BLAS on one thread, or the workers' BLAS threads
    outnumber the cores; where no OpenBLAS setter is found, 1.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    n = min(folds, len(cpus))
    if n > 1 and not _blas_thread_setters():
        return 1
    return n


_worker_job = None  # set in worker processes only, by _start_worker


def _start_worker(job: _FoldJob) -> None:
    """Pool initializer: keep the job the fork inherited, one BLAS thread."""
    global _worker_job
    _worker_job = job
    for setter in _blas_thread_setters():
        setter(1)


def _train_worker_fold(fold: int):
    return _train_fold(_worker_job, fold)


def _fold_results(job: _FoldJob, workers: int):
    """Yield _train_fold's result for every fold, in fold order.

    With one worker the folds run in this process. Otherwise they run on
    forked workers, which inherit the job without pickling it; the pool is
    shut down and joined before this generator ends, also on an error,
    after the folds already running finish.
    """
    folds = job.cfg.folds
    if workers == 1:
        yield from (_train_fold(job, fold) for fold in range(folds))
        return
    # imported here to keep them out of the package's import time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, so the workers share the dataset's pages instead of each
    # unpickling a copy; OpenBLAS shuts its thread pool down before a fork
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker, initargs=(job,),
    )
    try:
        yield from pool.map(_train_worker_fold, range(folds))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def train(model: SnnModel, dataset, cfg: TrainConfig):
    """k-fold cross-validation training.

    Args:
        model: architecture template; each fold trains a fresh
            reinitialization of it (seeded from cfg.seed and the fold index).
        dataset: (bits, labels) with bits of shape (N, T, C, H, W) in {0, 1}
            and integer labels in [0, n_classes).
        cfg: protocol knobs.

    Per fold: epochs_full full-precision Adam epochs, then epochs_qat epochs
    with the forward on weights re-quantized from the updated master before
    every batch; the fold model is then quantized once more from the final
    master and evaluated with the quantized forward on the held-out fold.

    The folds are independent, so they run on one forked worker process per
    CPU in the affinity mask, each with one BLAS thread. The result does not
    depend on the number of workers.

    Returns:
        (best_model, report): the fold model with the highest validation
        accuracy (ties to the lowest fold index), carrying its quantized
        view and a provenance record, plus the aggregate FoldReport.
    """
    bits, labels = dataset
    bits = np.asarray(bits)
    if bits.ndim != 5 or bits.shape[0] == 0:
        raise InvalidInput("dataset must be non-empty (N, T, C, H, W) spikes")
    labels = _check_labels(labels, bits.shape[0], model.n_classes)

    # Every class holds at least cfg.folds examples, dealt round-robin, or
    # this raises StratificationError; so every training split holds every
    # class, and nothing has trained yet when a split could not.
    fold_ids = stratified_folds(labels, folds=cfg.folds, seed=cfg.seed)
    job = _FoldJob(model, bits, labels, fold_ids, cfg)

    accuracies = []
    loss_curves = []
    confusion = np.zeros((model.n_classes, model.n_classes), dtype=np.int64)
    best = None
    results = _fold_results(job, _fold_workers(cfg.folds))
    with contextlib.closing(results):
        for fold, (acc, fold_confusion, curve, m) in enumerate(results):
            accuracies.append(acc)
            loss_curves.append(curve)
            confusion += fold_confusion
            if best is None or acc > best[0]:
                m.provenance = {
                    "trained_on": "fold-cv",
                    "fold": fold,
                    "config": asdict(cfg),
                    "n_examples": int(bits.shape[0]),
                }
                best = (acc, m)

    report = FoldReport(
        fold_accuracies=accuracies,
        confusion=confusion,
        loss_curves=loss_curves,
        n_classes=model.n_classes,
        bits=cfg.bits,
        seed=cfg.seed,
    )
    return best[1], report
