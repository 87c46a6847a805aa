"""Integrate-and-fire network engine.

Architecture (fixed order, three IF layers): conv 5x5x12 (stride 1, no
padding, no bias) -> IF sigma1 -> 2x2/2 max-pool on spikes -> flatten ->
dense -> IF sigma2 -> dense -> IF sigma3 -> per-class spike accumulator A
over T_inf steps -> softmax once at the end.

Neuron semantics are the literal compare-then-integrate state machine:

    if V_k <  1:  V_{k+1} = max(0, V_k + J_k),  S_k = 0
    if V_k >= 1:  V_{k+1} = 0 (input discarded), S_k = 1

so a neuron spikes the step AFTER its potential crossed threshold.

The quantized view runs in integer code units: each layer's weights are its
int8 codes, so every drive and membrane is a whole number of the layer's
scale, and layer l fires at the integer threshold theta_l = ceil(1/scale_l),
the smallest whole number of scale units that reaches 1.

The engine also has a "relaxed" mode where the hard spike is replaced by
the smooth map (1/4) erf(sqrt(2) (V - 1)) + 1/4 and reset/clamp are
disabled; in that mode the network is differentiable and the training
module's backward recurrence is exact, which is how the gradient machinery
is verified against finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .container import read_tensor_from, write_tensor_to
from .encoding import SpikeTensor
from .errors import InvalidInput, MissingQuantizedWeights
from .quant import QuantizedTensor

THRESHOLD = 1.0

# Weight tensor names in model order. sigma1..sigma3 are the IF layers after
# conv, fc1, and fc2 respectively.
WEIGHT_NAMES = ("conv", "fc1", "fc2")


@dataclass
class SnnModel:
    """The network is its weight tensors.

    weights maps "conv" -> (C_out, C_in, kh, kw), "fc1" -> (hidden, flat),
    "fc2" -> (n_classes, hidden), all float64, no biases anywhere; the
    layer sizes are read off those shapes. quantized, when set, holds the
    integer deployment view of each tensor.
    """

    weights: dict
    t_inf: int
    input_shape: tuple[int, int, int]
    quantized: dict | None = None
    provenance: dict | None = None

    def __post_init__(self):
        if self.t_inf < 1:
            raise InvalidInput("t_inf must be >= 1")
        for name, rank in zip(WEIGHT_NAMES, (4, 2, 2)):
            if name not in self.weights:
                raise InvalidInput(f"missing weight tensor {name!r}")
            shape = self.weights[name].shape
            if len(shape) != rank or 0 in shape:
                raise InvalidInput(
                    f"weight {name!r} has shape {shape}, expected {rank} sizes >= 1"
                )
        ph, pw = _pooled_size(self.input_shape, self.kernel)
        expected = {
            "conv": (self.conv_channels, self.input_shape[0]) + self.kernel,
            "fc1": (self.hidden, self.conv_channels * ph * pw),
            "fc2": (self.n_classes, self.hidden),
        }
        for name, want in expected.items():
            got = self.weights[name].shape
            if got != want:
                raise InvalidInput(f"weight {name!r} has shape {got}, expected {want}")
            if self.quantized and self.quantized[name].codes.shape != want:
                raise InvalidInput(f"quantized {name!r} has shape "
                                   f"{self.quantized[name].codes.shape}, expected {want}")

    @property
    def n_classes(self) -> int:
        return self.weights["fc2"].shape[0]

    @property
    def hidden(self) -> int:
        return self.weights["fc1"].shape[0]

    @property
    def conv_channels(self) -> int:
        return self.weights["conv"].shape[0]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weights["conv"].shape[2:]

    def shape_after_conv(self) -> tuple[int, int, int]:
        _, h, w = self.input_shape
        kh, kw = self.kernel
        return (self.conv_channels, h - kh + 1, w - kw + 1)


def _pooled_size(input_shape, kernel) -> tuple[int, int]:
    """(PH, PW) of the pooled conv output; InvalidInput when the conv leaves
    less than one 2x2 pool window."""
    _, h, w = input_shape
    kh, kw = kernel
    oh, ow = h - kh + 1, w - kw + 1
    if oh < 2 or ow < 2:
        raise InvalidInput(
            f"input {h}x{w} too small for {kh}x{kw} conv followed by 2x2 pool"
        )
    return oh // 2, ow // 2


def init_model(
    input_shape: tuple[int, int, int] = (1, 48, 100),
    n_classes: int = 5,
    t_inf: int = 4,
    seed: int = 0,
    hidden: int = 128,
    conv_channels: int = 12,
    kernel: tuple[int, int] = (5, 5),
) -> SnnModel:
    """Fresh model with Glorot-uniform weights: a tensor of shape
    (out, in, *k) is drawn from +-sqrt(6/(fan_in+fan_out)), with
    fan_in = in*prod(k) and fan_out = out*prod(k)."""
    c_in, _, _ = input_shape
    kh, kw = kernel
    sizes = {"n_classes": n_classes, "hidden": hidden, "conv_channels": conv_channels,
             "input channels": c_in, "kernel height": kh, "kernel width": kw}
    for name, size in sizes.items():
        if size < 1:
            raise InvalidInput(f"{name} must be >= 1, got {size}")
    ph, pw = _pooled_size(input_shape, kernel)
    shapes = {
        "conv": (conv_channels, c_in, kh, kw),
        "fc1": (hidden, conv_channels * ph * pw),
        "fc2": (n_classes, hidden),
    }
    rng = np.random.default_rng(seed)
    weights = {}
    for name in WEIGHT_NAMES:
        shape = shapes[name]
        receptive = math.prod(shape[2:])
        fan_in, fan_out = shape[1] * receptive, shape[0] * receptive
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        weights[name] = rng.uniform(-lim, lim, size=shape)
    return SnnModel(weights=weights, t_inf=t_inf, input_shape=tuple(input_shape))


# ---------------------------------------------------------------------------
# neuron update


def _if_update(v: np.ndarray, drive: np.ndarray, threshold: float, out=None):
    """One IF step. Returns (v_next, spikes) with spikes as a bool array.

    The spike decision reads the PRE-update potential against threshold;
    on a spiking step the incoming drive is discarded entirely. Negative
    potentials (possible with negative weights) are clamped to 0 after the
    update. v_next is written into out when given, which must not share
    memory with v.
    """
    spikes = v >= threshold
    v_next = np.add(v, drive, out=out)
    np.maximum(v_next, 0.0, out=v_next)
    np.copyto(v_next, 0.0, where=spikes)
    return v_next, spikes


def relaxed_spike(v: np.ndarray) -> np.ndarray:
    """Smooth stand-in for the hard threshold, used by the relaxed mode.

    (1/4) erf(sqrt(2) (v - 1)) + 1/4, whose derivative is the Gaussian
    surrogate (1/sqrt(2 pi)) exp(-2 (v - 1)^2).
    """
    # imported here: scipy.special is most of the package's import time,
    # and only this mode needs it
    from scipy.special import erf

    return 0.25 * erf(np.sqrt(2.0) * (v - THRESHOLD)) + 0.25


# ---------------------------------------------------------------------------
# linear stages


# Images per chunk of the conv patch gather. One 48x100 image's float64
# patch matrix is 0.85 MB, so a chunk stays cache-sized for any batch.
PATCH_CHUNK = 2


def patch_chunks(x: np.ndarray, kh: int, kw: int):
    """Yield (i, patches) for the images x[i : i + PATCH_CHUNK] of x (B, C, H, W).

    patches (n, C*kh*kw, OH*OW) float64 holds each image's conv patches,
    rows in (channel, kernel row, kernel col) order to match weights
    reshaped as (C_out, C_in*kh*kw). Every chunk reuses one buffer, so a
    caller is done with a chunk before it asks for the next.
    """
    b, c, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    buf = np.empty((min(PATCH_CHUNK, b), c * kh * kw, oh * ow))
    for i in range(0, b, PATCH_CHUNK):
        chunk = x[i : i + PATCH_CHUNK]
        n = chunk.shape[0]
        s0, s1, s2, s3 = chunk.strides
        windows = np.lib.stride_tricks.as_strided(
            chunk, shape=(n, c, kh, kw, oh, ow), strides=(s0, s1, s2, s3, s2, s3)
        )
        np.copyto(buf[:n].reshape(n, c, kh, kw, oh, ow), windows)
        yield i, buf[:n]


def dense_drive(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (B, in) @ w (out, in)^T -> (B, out)."""
    return np.ascontiguousarray(x, dtype=np.float64) @ w.T


def _maxpool_route(x: np.ndarray, want_route: bool = True):
    """Pool and (optionally) record which window position (row-major 0..3) won.

    Routing is first-index-wins like np.argmax, so ties (and all-zero
    windows) route to the lowest index: top-left for empty windows. Forward
    passes that will never backpropagate skip the routing computation.
    """
    h, w = x.shape[-2], x.shape[-1]
    q0 = x[..., 0 : (h // 2) * 2 : 2, 0 : (w // 2) * 2 : 2]
    q1 = x[..., 0 : (h // 2) * 2 : 2, 1 : (w // 2) * 2 : 2]
    q2 = x[..., 1 : (h // 2) * 2 : 2, 0 : (w // 2) * 2 : 2]
    q3 = x[..., 1 : (h // 2) * 2 : 2, 1 : (w // 2) * 2 : 2]
    pooled = np.maximum(np.maximum(q0, q1), np.maximum(q2, q3))
    if not want_route:
        return pooled, None
    route = np.full(pooled.shape, 3, dtype=np.int8)
    np.copyto(route, 2, where=(q2 == pooled))
    np.copyto(route, 1, where=(q1 == pooled))
    np.copyto(route, 0, where=(q0 == pooled))
    return pooled, route


def softmax(a: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    z = a - a.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# forward pass


@dataclass
class Tape:
    """Per-step forward state retained for backpropagation through time.

    Arrays are stacked over the step axis: v*_pre are the pre-update
    potentials each spike decision read, s* the emitted spikes (float in
    relaxed mode), flat the flattened pooled spikes. Only the cell each 2x2
    pool window routes to can receive a gradient through sigma1's spikes, so
    sigma1 keeps its potential at that cell alone: cells is the cell's flat
    index into a (B, C, OH, OW) array and v1_routed the potential there,
    both (T, B, C, OH//2, OW//2).
    """

    s1: np.ndarray
    cells: np.ndarray
    v1_routed: np.ndarray
    flat: np.ndarray
    v2_pre: np.ndarray
    s2: np.ndarray
    v3_pre: np.ndarray
    s3: np.ndarray


@dataclass
class BatchForward:
    """Result of a forward pass, one row per example (forward drops the row).

    spike_counts maps "input", "sigma1", "sigma2", "sigma3" to each
    example's count; pooling passes spikes through and is not counted.
    per_step_spikes (T, 4) sums the four counts over the batch per step.
    """

    probs: np.ndarray
    accumulator: np.ndarray
    spike_counts: dict
    per_step_spikes: np.ndarray
    tape: Tape | None = None


# Examples per pass when forward_batch keeps no tape, which bounds the state
# it holds for any batch size (about 1.2 MB per example at 48x100).
INFER_CHUNK = 128

_COUNT_NAMES = ("input", "sigma1", "sigma2", "sigma3")


def resolve_weights(model: SnnModel, use_quantized: bool):
    """(weights, per-layer thresholds) of a forward pass: the master weights
    at THRESHOLD, or the quantized view in code units at each layer's
    integer threshold. Float64 sums of integers below 2^53 are exact in any
    order, so that view decides every spike exactly."""
    if not use_quantized:
        return model.weights, (THRESHOLD,) * len(WEIGHT_NAMES)
    if not model.quantized:
        raise MissingQuantizedWeights(
            "model has no quantized view; quantize it or drop use_quantized"
        )
    views = [model.quantized[name] for name in WEIGHT_NAMES]
    return ({name: q.code_units for name, q in zip(WEIGHT_NAMES, views)},
            tuple(q.threshold for q in views))


def forward_batch(
    model: SnnModel,
    bits: np.ndarray,
    use_quantized: bool = False,
    mode: str = "hard",
    want_tape: bool = False,
) -> BatchForward:
    """Run the network over a batch of spike tensors.

    Args:
        bits: (B, T, C, H, W) binary input, T = model.t_inf.
        use_quantized: forward on the quantized view, in code units.
        mode: "hard" (production spiking dynamics) or "relaxed" (smooth
            spike, no reset/clamp; float weights only; for gradient checks).
        want_tape: retain per-step state for the backward pass.

    Returns:
        BatchForward; probs has shape (B, n_classes). IF states start at 0
        for every call and are never carried across inputs. Without a tape
        the batch runs INFER_CHUNK examples at a time.
    """
    bits = np.asarray(bits)
    want = (model.t_inf, *model.input_shape)
    if bits.ndim != 5 or bits.shape[1:] != want:
        raise InvalidInput(
            f"input batch has shape {bits.shape}; the model takes (batch, time, "
            f"channel, h, w) = (batch, {', '.join(map(str, want))})")
    b = bits.shape[0]
    if mode not in ("hard", "relaxed"):
        raise InvalidInput(f"unknown forward mode {mode!r}")
    if mode == "relaxed" and use_quantized:
        raise InvalidInput("the quantized view runs in hard mode only")
    weights, thresholds = resolve_weights(model, use_quantized)

    acc = np.zeros((b, model.n_classes))
    counts = np.zeros((len(_COUNT_NAMES), b), dtype=np.int64)
    per_step = np.zeros((model.t_inf, len(_COUNT_NAMES)), dtype=np.int64)
    chunk = max(b, 1) if want_tape else INFER_CHUNK
    tape = None
    for i in range(0, b, chunk):
        tape = _forward_chunk(
            model, bits[i : i + chunk], weights, thresholds, mode == "hard",
            want_tape, acc[i : i + chunk], counts[:, i : i + chunk], per_step,
        )
    return BatchForward(probs=softmax(acc), accumulator=acc,
                        spike_counts=dict(zip(_COUNT_NAMES, counts)),
                        per_step_spikes=per_step, tape=tape)


def _forward_chunk(model, bits, weights, thresholds, hard, want_tape,
                   acc, counts, per_step):
    """Run bits (B, T, C, H, W) through the network, adding into acc
    (B, n_classes), counts (4, B) and per_step (T, 4) as forward_batch
    reports them. Returns the Tape when want_tape, else None."""
    w_conv, w_fc1, w_fc2 = (weights[n] for n in WEIGHT_NAMES)
    b = bits.shape[0]
    c1, oh, ow = model.shape_after_conv()
    ph, pw = oh // 2, ow // 2
    flat_n = c1 * ph * pw
    t = model.t_inf
    spike_dtype = np.uint8 if hard else np.float64

    # Each layer's membrane alternates between two buffers: a step reads one
    # and writes the next potential into the other.
    v1, v1_spare = np.zeros((b, c1, oh, ow)), np.empty((b, c1, oh, ow))
    v2, v2_spare = np.zeros((b, model.hidden)), np.empty((b, model.hidden))
    v3, v3_spare = np.zeros((b, model.n_classes)), np.empty((b, model.n_classes))

    def fire(v, drive, out, layer):
        """(v_next, spikes) of one IF layer, v_next written into out."""
        if hard:
            v_next, s = _if_update(v, drive, thresholds[layer], out=out)
            return v_next, s.view(np.uint8)
        return np.add(v, drive, out=out), relaxed_spike(v)

    # A step's drives only feed the next step's potentials, so the last
    # step's drives feed V_T, which nothing reads, and are skipped; the
    # last step reuses the previous step's drives.
    kh, kw = model.kernel
    w_conv2 = w_conv.reshape(c1, -1)
    j1 = np.zeros((b, c1, oh, ow))
    j1_rows = j1.reshape(b, c1, oh * ow)
    j2 = np.zeros((b, model.hidden))
    j3 = np.zeros((b, model.n_classes))

    tape = None
    if want_tape:
        tape = Tape(
            s1=np.empty((t, b, c1, oh, ow), dtype=spike_dtype),
            cells=np.empty((t, b, c1, ph, pw), dtype=np.intp),
            v1_routed=np.empty((t, b, c1, ph, pw)),
            flat=np.empty((t, b, flat_n), dtype=spike_dtype),
            v2_pre=np.empty((t, b, model.hidden)),
            s2=np.empty((t, b, model.hidden), dtype=spike_dtype),
            v3_pre=np.empty((t, b, model.n_classes)),
            s3=np.empty((t, b, model.n_classes), dtype=spike_dtype),
        )
        # flat index of each pool window's top-left cell, and the offset of
        # window position 0..3 (row-major) from it
        window_origins = (
            np.arange(b * c1).reshape(b, c1, 1, 1) * (oh * ow)
            + np.arange(ph).reshape(ph, 1) * (2 * ow)
            + np.arange(pw) * 2
        )
        route_offsets = np.array([0, 1, ow, ow + 1], dtype=np.intp)

    for k in range(t):
        live = k < t - 1
        if live:
            for i, patches in patch_chunks(bits[:, k], kh, kw):
                np.matmul(w_conv2, patches, out=j1_rows[i : i + len(patches)])
        v1_next, s1 = fire(v1, j1, v1_spare, 0)
        pooled, route = _maxpool_route(s1, want_route=want_tape)
        flat = pooled.reshape(b, -1)
        if live:
            j2 = dense_drive(flat, w_fc1)
        v2_next, s2 = fire(v2, j2, v2_spare, 1)
        if live:
            j3 = dense_drive(s2, w_fc2)
        v3_next, s3 = fire(v3, j3, v3_spare, 2)
        acc += s3

        if want_tape:
            tape.s1[k] = s1
            cells = tape.cells[k]
            np.take(route_offsets, route, out=cells, mode="clip")
            cells += window_origins
            np.take(v1.reshape(-1), cells, out=tape.v1_routed[k], mode="clip")
            tape.flat[k] = flat
            tape.v2_pre[k] = v2
            tape.s2[k] = s2
            tape.v3_pre[k] = v3
            tape.s3[k] = s3
        if hard:
            for layer, s in enumerate((s1, s2, s3), start=1):
                step_counts = s.reshape(b, -1).sum(axis=1, dtype=np.int64)
                counts[layer] += step_counts
                per_step[k, layer] += step_counts.sum()
        v1, v1_spare = v1_next, v1
        v2, v2_spare = v2_next, v2
        v3, v3_spare = v3_next, v3

    n_input_steps = bits.reshape(b, t, -1).sum(axis=2, dtype=np.int64)
    if hard:
        per_step[:, 0] += n_input_steps.sum(axis=0)
    counts[0] = n_input_steps.sum(axis=1)
    return tape


def forward(model: SnnModel, tensor: SpikeTensor, use_quantized: bool = False):
    """Single-input forward: returns (probabilities, BatchForward of that
    input, each value without its batch axis and counts as ints)."""
    out = forward_batch(model, tensor.bits[None], use_quantized=use_quantized)
    counts = {name: int(c[0]) for name, c in out.spike_counts.items()}
    trace = BatchForward(probs=out.probs[0], accumulator=out.accumulator[0],
                         spike_counts=counts, per_step_spikes=out.per_step_spikes)
    return trace.probs, trace


# ---------------------------------------------------------------------------
# model file format


_MODEL_FORMAT = "spikeradar-model"
# The neuron model, written to every model file so that readers of earlier
# versions, which also knew an integrate-then-fire variant, read it.
_FIRE_MODE = "compare_then_integrate"
_AXES = {
    "conv": ["out_channel", "in_channel", "kernel_h", "kernel_w"],
    "fc1": ["out", "in"],
    "fc2": ["out", "in"],
}


def _manifest_sizes(model: SnnModel) -> dict:
    """The layer sizes a model file's manifest states, read off the tensors,
    as JSON values."""
    return {"n_classes": model.n_classes, "hidden": model.hidden,
            "conv_channels": model.conv_channels, "kernel": list(model.kernel)}


def save_model(model: SnnModel, path) -> None:
    """Write a model file: JSON manifest line, then one container-format
    record per weight tensor (float64), then quantized code records (int8)
    when a quantized view is present."""
    manifest = {
        "format": _MODEL_FORMAT,
        "version": 1,
        "t_inf": model.t_inf,
        "input_shape": list(model.input_shape),
        "fire_mode": _FIRE_MODE,
        "tensors": list(WEIGHT_NAMES),
        "quantization": None,
        "provenance": model.provenance,
        **_manifest_sizes(model),
    }
    if model.quantized:
        manifest["quantization"] = {
            "bits": model.quantized["conv"].bits,
            "scales": {n: model.quantized[n].scale for n in WEIGHT_NAMES},
        }
    with open(path, "wb") as f:
        f.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for name in WEIGHT_NAMES:
            write_tensor_to(f, model.weights[name], _AXES[name], dtype="f64")
        if model.quantized:
            for name in WEIGHT_NAMES:
                write_tensor_to(f, model.quantized[name].codes, _AXES[name], dtype="i8")


_MANIFEST_INTS = ("t_inf", "n_classes", "hidden", "conv_channels")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_manifest(manifest) -> None:
    """Raise InvalidInput unless manifest holds every field load_model reads,
    each of the type save_model writes."""
    if not isinstance(manifest, dict) or manifest.get("format") != _MODEL_FORMAT:
        raise InvalidInput("not a model file")
    required = ("tensors", "input_shape", "kernel", "fire_mode") + _MANIFEST_INTS
    missing = [key for key in required if key not in manifest]
    if missing:
        raise InvalidInput(f"model manifest lacks {', '.join(missing)}")
    if manifest["tensors"] != list(WEIGHT_NAMES):
        raise InvalidInput(f"model tensors must be {list(WEIGHT_NAMES)}")
    for key in _MANIFEST_INTS:
        if not _is_int(manifest[key]):
            raise InvalidInput(f"model field {key!r} must be an integer")
    for key, rank in (("input_shape", 3), ("kernel", 2)):
        value = manifest[key]
        if not (isinstance(value, list) and len(value) == rank
                and all(_is_int(n) for n in value)):
            raise InvalidInput(f"model field {key!r} must be {rank} integers")
    if manifest["fire_mode"] != _FIRE_MODE:
        raise InvalidInput(f"fire_mode must be {_FIRE_MODE!r}")
    qmeta = manifest.get("quantization")
    if qmeta:
        scales = qmeta.get("scales") if isinstance(qmeta, dict) else None
        if not (isinstance(scales, dict) and _is_int(qmeta.get("bits"))
                and all(isinstance(scales.get(n), float) or _is_int(scales.get(n))
                        for n in WEIGHT_NAMES)):
            raise InvalidInput("malformed quantization in model manifest")


def load_model(path) -> SnnModel:
    """Read a model file written by save_model; every InvalidInput names path.

    Manifest keys that save_model does not write, such as the "layers" list
    of files from earlier versions, are ignored.
    """
    try:
        with open(path, "rb") as f:
            line = f.readline(1 << 20)
            if not line.endswith(b"\n"):
                raise InvalidInput("model manifest line missing")
            try:
                manifest = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # not UTF-8 or not JSON
                raise InvalidInput("model manifest is not valid JSON") from exc
            _check_manifest(manifest)
            weights = {}
            for name in manifest["tensors"]:
                values, header = read_tensor_from(f)
                if header["dtype"] != "f64":
                    raise InvalidInput(f"weight {name!r} is not f64")
                weights[name] = values
            quantized = None
            qmeta = manifest.get("quantization")
            if qmeta:
                quantized = {}
                for name in manifest["tensors"]:
                    codes, header = read_tensor_from(f)
                    if header["dtype"] != "i8":
                        raise InvalidInput(f"codes for {name!r} are not i8")
                    quantized[name] = QuantizedTensor(
                        codes=codes, scale=qmeta["scales"][name], bits=qmeta["bits"]
                    )
            if f.read(1):
                raise InvalidInput("trailing bytes after model payload")
        model = SnnModel(weights=weights, t_inf=manifest["t_inf"],
                         input_shape=tuple(manifest["input_shape"]),
                         quantized=quantized, provenance=manifest.get("provenance"))
        for key, actual in _manifest_sizes(model).items():
            if manifest[key] != actual:
                raise InvalidInput(
                    f"model field {key!r} is {manifest[key]}, its tensors give {actual}"
                )
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
    return model
