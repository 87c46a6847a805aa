"""Dataset plumbing: ingestion, export, fold splits, and the synthetic
gesture generator.

A dataset directory holds container-format payload files plus a
manifest.json:

    {
      "format": "spikeradar-dataset", "version": 1,
      "pipeline": "udoppler" | "rangedoppler" | "spikes",
      "classes": ["wave", ...],
      "balanced": true,
      "provenance": {"kind": "synthetic", "seed": 7, ...},
      "examples": [
        {"file": "ex00000.bin", "label": 0,
         "acquisition_id": "synth-c0-0000", "segment_index": 0},
        ...
      ]
    }

Payload files by pipeline (the _PAYLOAD_FILES table, read and written only
through read_payload and write_payload): udoppler -> f32 2-D normalized
maps; rangedoppler -> f32 3-D magnitude sequences (variable T_fr) or u1 3-D
binary sequences; spikes -> u1 4-D pre-encoded spike tensors.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .container import read_tensor, write_tensor
from .encoding import SpikeTensor, ttfs_bits, ttfs_encode, wrap_binary
from .errors import CorruptDataset, InvalidInput, StratificationError
from .rangedoppler import BinaryRdSequence, RangeDopplerSequence, binarize, temporal_subsample
from .udoppler import MicroDopplerMap, keep_top_k_rows

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "spikeradar-dataset"

PIPELINES = ("udoppler", "rangedoppler", "spikes")


@dataclass(frozen=True)
class LabeledExample:
    """One example: a payload (map, sequence, or spike tensor) plus label.

    segment_index preserves the temporal order of segments cut from the
    same acquisition.
    """

    payload: object
    label: int
    acquisition_id: str = ""
    segment_index: int = 0

    def __post_init__(self):
        if self.label < 0:
            raise InvalidInput(f"label must be >= 0, got {self.label}")


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed manifest: class names, pipeline kind, file index, provenance."""

    pipeline: str
    class_names: list
    entries: list
    provenance: dict
    balanced: bool = False

    def per_class_counts(self) -> dict:
        counts = {i: 0 for i in range(len(self.class_names))}
        for e in self.entries:
            counts[e["label"]] = counts.get(e["label"], 0) + 1
        return counts


# ---------------------------------------------------------------------------
# export / ingest


# Payload type -> (pipeline, array field, axes, container dtype) of its file.
_PAYLOAD_FILES = {
    MicroDopplerMap: ("udoppler", "values", ["time", "doppler"], "f32"),
    RangeDopplerSequence: ("rangedoppler", "frames", ["frame", "range", "doppler"], "f32"),
    BinaryRdSequence: ("rangedoppler", "frames", ["step", "range", "doppler"], "u1"),
    SpikeTensor: ("spikes", "bits", ["time", "channel", "height", "width"], "u1"),
}


def _payload_file(payload) -> tuple:
    """(pipeline, array field, axes, dtype) under which payload is written."""
    try:
        return _PAYLOAD_FILES[type(payload)]
    except KeyError:
        raise InvalidInput(
            f"unsupported payload type {type(payload).__name__}"
        ) from None


def write_payload(path, payload) -> None:
    """Write a map, sequence or spike tensor as its kind's container file."""
    _, field, axes, dtype = _payload_file(payload)
    write_tensor(path, getattr(payload, field), axes, dtype=dtype)


def read_payload(path, *kinds):
    """Read a container file as the first of the payload types kinds whose
    dtype and rank it has; maps are read as normalized.

    Raises:
        InvalidInput: the file fits none of kinds, or its header is bad.
        FileNotFoundError: path does not exist.
    """
    values, header = read_tensor(path)
    for kind in kinds:
        _, field, axes, dtype = _PAYLOAD_FILES[kind]
        if header["dtype"] == dtype and values.ndim == len(axes):
            extra = {"normalized": True} if kind is MicroDopplerMap else {}
            return kind(**{field: values}, **extra)
    wanted = " or ".join(
        f"a {len(_PAYLOAD_FILES[k][2])}-D {_PAYLOAD_FILES[k][3]} {k.__name__}"
        for k in kinds
    )
    raise InvalidInput(
        f"{path}: expected {wanted}, got {header['dtype']} rank {values.ndim}"
    )


def export_dataset(examples, out_dir, class_names=None, provenance=None) -> None:
    """Write examples plus manifest.json into a directory."""
    if not examples:
        raise InvalidInput("cannot export an empty dataset")
    pipeline = _payload_file(examples[0].payload)[0]
    labels = [ex.label for ex in examples]
    n_classes = max(labels) + 1
    if class_names is None:
        class_names = [f"class{i}" for i in range(n_classes)]
    if len(class_names) < n_classes:
        raise InvalidInput(
            f"{len(class_names)} class names for labels up to {n_classes - 1}"
        )
    balanced = len({labels.count(i) for i in range(n_classes)}) == 1
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for i, ex in enumerate(examples):
        if _payload_file(ex.payload)[0] != pipeline:
            raise InvalidInput("mixed payload kinds in one dataset")
        fname = f"ex{i:05d}.bin"
        write_payload(os.path.join(out_dir, fname), ex.payload)
        entries.append(
            {
                "file": fname,
                "label": int(ex.label),
                "acquisition_id": ex.acquisition_id,
                "segment_index": int(ex.segment_index),
            }
        )
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": 1,
        "pipeline": pipeline,
        "classes": list(class_names),
        "balanced": balanced,
        "provenance": provenance or {"kind": "unknown"},
        "examples": entries,
    }
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as f:
        json.dump(manifest, f, sort_keys=True, indent=1)
        f.write("\n")


def read_manifest(dataset_dir) -> DatasetManifest:
    """Load and schema-check manifest.json; CorruptDataset on any problem."""
    path = os.path.join(dataset_dir, MANIFEST_NAME)
    if not os.path.isdir(dataset_dir):
        raise CorruptDataset(f"dataset directory {dataset_dir} does not exist")
    if not os.path.isfile(path):
        raise CorruptDataset(f"{dataset_dir} has no {MANIFEST_NAME}")
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise CorruptDataset(f"unreadable manifest in {dataset_dir}: {exc}") from exc
    if not isinstance(raw, dict) or raw.get("format") != _MANIFEST_FORMAT:
        raise CorruptDataset(f"{path} is not a dataset manifest")
    pipeline = raw.get("pipeline")
    if pipeline not in PIPELINES:
        raise CorruptDataset(f"unknown pipeline kind {pipeline!r} in manifest")
    entries = raw.get("examples")
    classes = raw.get("classes")
    if not isinstance(entries, list) or not isinstance(classes, list) or not entries:
        raise CorruptDataset(f"manifest in {dataset_dir} lists no examples")
    for e in entries:
        if (not isinstance(e, dict) or not isinstance(e.get("file"), str)
                or "label" not in e):
            raise CorruptDataset(f"malformed example entry in {path}: {e!r}")
        for key in ("label", "segment_index"):  # JSON integers, not bools
            if type(e.get(key, 0)) is not int:
                raise CorruptDataset(f"{key} {e[key]!r} in {path} is not an integer")
        if not (0 <= e["label"] < len(classes)):
            raise CorruptDataset(
                f"label {e['label']} outside class list of length {len(classes)}"
            )
    provenance = raw.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise CorruptDataset(f"provenance {provenance!r} in {path} is not an object")
    return DatasetManifest(
        pipeline=pipeline,
        class_names=classes,
        entries=entries,
        provenance=provenance or {},
        balanced=bool(raw.get("balanced", False)),
    )


def _entry_path(dataset_dir, entry) -> str:
    """The path of the payload file a manifest entry lists; CorruptDataset
    unless it names a regular file inside dataset_dir."""
    name = entry["file"]
    norm = os.path.normpath(name)
    if os.path.isabs(name) or norm == os.pardir or norm.startswith(os.pardir + os.sep):
        raise CorruptDataset(f"file {name!r} listed in manifest is outside {dataset_dir}")
    path = os.path.join(dataset_dir, name)
    if not os.path.isfile(path):
        raise CorruptDataset(f"file {name!r} listed in manifest is missing or not a file")
    return path


def ingest_external(dataset_dir, t_inf: int | None = None):
    """Load a dataset directory into LabeledExamples.

    Args:
        dataset_dir: directory with manifest.json plus container files.
        t_inf: when given, range-Doppler magnitude sequences shorter than
            t_inf frames are rejected (no padding semantics).

    Returns:
        (examples, manifest).

    Raises:
        CorruptDataset: missing/malformed manifest, or a listed file that
            is missing, not a regular file or outside dataset_dir.
        InvalidInput: payload shape/dtype violations, T_fr < t_inf.
    """
    manifest = read_manifest(dataset_dir)
    kinds = [k for k, f in _PAYLOAD_FILES.items() if f[0] == manifest.pipeline]
    examples = []
    for entry in manifest.entries:
        payload = read_payload(_entry_path(dataset_dir, entry), *kinds)
        if (
            t_inf is not None
            and isinstance(payload, RangeDopplerSequence)
            and payload.t_fr < t_inf
        ):
            who = entry.get("acquisition_id") or entry["file"]
            raise InvalidInput(
                f"acquisition {who}: T_fr = {payload.t_fr} shorter than "
                f"t_inf = {t_inf}"
            )
        examples.append(
            LabeledExample(
                payload=payload,
                label=entry["label"],
                acquisition_id=entry.get("acquisition_id", entry["file"]),
                segment_index=entry.get("segment_index", 0),
            )
        )
    return examples, manifest


def dataset_info(dataset_dir) -> DatasetManifest:
    """Manifest summary with every listed file checked by _entry_path."""
    manifest = read_manifest(dataset_dir)
    for entry in manifest.entries:
        _entry_path(dataset_dir, entry)
    return manifest


# ---------------------------------------------------------------------------
# folds


def stratified_folds(labels, folds: int = 6, seed: int = 0) -> np.ndarray:
    """Seeded stratified fold assignment; per-class counts differ by <= 1.

    Within each class the examples are shuffled and dealt round-robin; the
    starting fold rotates with the class index so the "extra" examples of
    uneven classes spread across folds.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise InvalidInput("labels must be a non-empty 1-D array")
    if folds < 2:
        raise InvalidInput("folds must be >= 2")
    rng = np.random.default_rng(seed)
    fold_ids = np.empty(labels.shape[0], dtype=np.int64)
    for ci, c in enumerate(np.unique(labels)):
        idx = np.flatnonzero(labels == c)
        if idx.shape[0] < folds:
            raise StratificationError(
                f"class {c} has only {idx.shape[0]} examples for {folds} folds"
            )
        perm = rng.permutation(idx)
        fold_ids[perm] = (np.arange(perm.shape[0]) + ci) % folds
    return fold_ids


# ---------------------------------------------------------------------------
# encoding to batches


def encode_examples(examples, t_inf: int):
    """Encode payloads into a stacked spike batch.

    Maps are TTFS-encoded; raw range-Doppler sequences are temporally
    subsampled to t_inf and binarized; binary sequences and spike tensors
    are wrapped/validated as-is.

    Returns:
        (bits, labels): bits of shape (N, t_inf, C, H, W) uint8.
    """
    if not examples:
        raise InvalidInput("no examples to encode")
    labels = np.asarray([ex.label for ex in examples], dtype=np.int64)
    maps = [ex.payload.values for ex in examples if isinstance(ex.payload, MicroDopplerMap)]
    if len(maps) == len(examples) and len({m.shape for m in maps}) == 1:
        # maps of one shape are TTFS-encoded in one pass
        return ttfs_bits(np.stack(maps), t_inf), labels
    tensors = []
    for ex in examples:
        p = ex.payload
        if isinstance(p, MicroDopplerMap):
            t = ttfs_encode(p, t_inf=t_inf)
        elif isinstance(p, RangeDopplerSequence):
            t = wrap_binary(binarize(temporal_subsample(p, t_inf)))
        elif isinstance(p, BinaryRdSequence):
            t = wrap_binary(p)
        elif isinstance(p, SpikeTensor):
            t = p
        else:
            raise InvalidInput(f"cannot encode payload {type(p).__name__}")
        if t.t_inf != t_inf:
            raise InvalidInput(
                f"{ex.acquisition_id or 'example'}: tensor has "
                f"{t.t_inf} steps, expected {t_inf}"
            )
        tensors.append(t.bits)
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise InvalidInput(f"inconsistent example shapes: {sorted(shapes)}")
    return np.stack(tensors), labels


# ---------------------------------------------------------------------------
# synthetic generators

# Peak of u*(u-0.5)*(u-1) on [0,1] is sqrt(3)/36; dividing by it gives a
# unit-amplitude wave.
_WAVE_GAIN = 36.0 / np.sqrt(3.0)


def _wave(phase):
    """Smooth sine-like wave with period 1, amplitude 1, zero at phase 0.

    Cubic in the fractional phase, so it uses only exactly-rounded
    IEEE 754 operations (floor, multiply, subtract); libm sin is not
    pinned down to the last ulp across platforms, this is.
    """
    u = phase - np.floor(phase)
    return _WAVE_GAIN * u * (u - 0.5) * (u - 1.0)


def _bump(distance, half_width):
    """Biweight ridge profile (1 - (d/w)^2)^2 on |d| < w, else 0.

    Compactly supported stand-in for a Gaussian cross-section, again
    built from exactly-rounded arithmetic only.
    """
    x = distance / half_width
    return np.maximum(0.0, 1.0 - x * x) ** 2


# Per-class Doppler-track parameters: amplitude (columns), frequency
# (cycles per map), phase offset (turns), ridge half-width (columns),
# mirrored-component weight, gating frequency (None = continuous track).
_CLASS_PARAMS = (
    {"name": "slow-wave", "amp": 30.0, "freq": 1.0, "phase": 0.0,
     "width": 9.0, "mirror": 0.55, "gate_freq": None},
    {"name": "fast-wave", "amp": 30.0, "freq": 2.5, "phase": 0.13,
     "width": 9.0, "mirror": 0.55, "gate_freq": None},
    {"name": "narrow-wave", "amp": 11.0, "freq": 1.0, "phase": 0.0,
     "width": 9.0, "mirror": 0.0, "gate_freq": None},
    {"name": "chirp", "amp": 30.0, "freq": (0.5, 3.0), "phase": 0.0,
     "width": 9.0, "mirror": 0.55, "gate_freq": None},
    {"name": "pulsed-wave", "amp": 30.0, "freq": 1.0, "phase": 0.0,
     "width": 9.0, "mirror": 0.0, "gate_freq": 2.0},
)


# The protocol's map: 48 time rows by 100 retained Doppler bins, top 48 per row
_SYNTH_SHAPE = (48, 100)
_SYNTH_TOP_K = 48


def _synth_map(params, rng, noise_amp) -> np.ndarray:
    rows, cols = _SYNTH_SHAPE
    u = (np.arange(rows) + 0.5) / rows
    col_axis = np.arange(cols, dtype=np.float64)
    center = (cols - 1) / 2.0 + rng.uniform(-3.0, 3.0)
    phase_jitter = rng.uniform(-0.05, 0.05)
    amp = params["amp"] * (1.0 + rng.uniform(-0.08, 0.08))
    width = params["width"] + rng.uniform(-0.9, 0.9)
    freq = params["freq"]
    if isinstance(freq, tuple):
        f0, f1 = freq
        phase = f0 * u + 0.5 * (f1 - f0) * u * u
    else:
        phase = freq * u
    phase = phase + params["phase"] + phase_jitter
    track = center + amp * _wave(phase)
    if params["gate_freq"] is not None:
        gate = (_wave(params["gate_freq"] * u + phase_jitter) >= 0.0)
        gate = gate.astype(np.float64)
    else:
        gate = np.ones(rows)
    d = col_axis[None, :] - track[:, None]
    ridge = gate[:, None] * _bump(d, width)
    if params["mirror"] > 0.0:
        d2 = col_axis[None, :] - (2.0 * center - track)[:, None]
        ridge = np.maximum(
            ridge, params["mirror"] * gate[:, None] * _bump(d2, width)
        )
    noise = rng.uniform(0.0, noise_amp, size=(rows, cols))
    # Blend by max, not sum: the ridge crest then survives min-max
    # normalization close to 1, keeping the bright-pixel skeleton intact.
    raw = np.maximum(ridge, noise)
    lo, hi = raw.min(), raw.max()
    norm = (raw - lo) / (hi - lo)
    return keep_top_k_rows(norm, _SYNTH_TOP_K)


def synth_class_names(n_classes: int):
    return [p["name"] for p in _CLASS_PARAMS[:n_classes]]


def synth_udoppler(
    n_per_class: int,
    n_classes: int = 5,
    seed: int = 0,
    noise_amp: float = 0.4,
):
    """Synthetic uDoppler dataset: class-specific sinusoidal Doppler tracks.

    Each map is the protocol's 48 x 100 segment: a bright ridge along a
    class-dependent oscillating track (slow, fast, narrow, chirped, or
    burst-gated) over uniform noise, max-blended, min-max normalized, and
    per-row top-48 thresholded just as the real pipeline output would be. Per-example jitter: track center,
    phase, amplitude, ridge width.

    All randomness comes from one seeded PCG64 stream and all template
    math uses only exactly-rounded IEEE 754 operations (add, multiply,
    divide, sqrt, floor, compare), so a fixed seed reproduces the dataset
    bit-for-bit across platforms.

    Returns:
        LabeledExample list with normalized MicroDopplerMap payloads, in
        class-major order.
    """
    if not (2 <= n_classes <= len(_CLASS_PARAMS)):
        raise InvalidInput(
            f"n_classes must be in [2, {len(_CLASS_PARAMS)}], got {n_classes}"
        )
    if n_per_class < 1:
        raise InvalidInput("n_per_class must be >= 1")
    if not (np.isfinite(noise_amp) and noise_amp >= 0):
        raise InvalidInput(f"noise_amp must be finite and >= 0, got {noise_amp}")
    rng = np.random.default_rng(seed)
    examples = []
    for c in range(n_classes):
        for i in range(n_per_class):
            values = _synth_map(_CLASS_PARAMS[c], rng, noise_amp)
            examples.append(
                LabeledExample(
                    payload=MicroDopplerMap(values=values, normalized=True),
                    label=c,
                    acquisition_id=f"synth-c{c}-{i:04d}",
                    segment_index=0,
                )
            )
    return examples

