"""File-based visual exports: grayscale PGM images and loss-curve CSV.

PGM (P5, maxval 255) keeps the library dependency-free; value 0 maps to
black, value 1 to white, recoverable to 1/255.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .errors import InvalidInput


def write_pgm(path, values: np.ndarray) -> None:
    """Write a 2-D array with values in [0, 1] as a binary PGM."""
    values = np.asarray(values)
    if values.ndim != 2:
        raise InvalidInput("PGM export needs a 2-D array")
    if not np.isfinite(values).all():
        raise InvalidInput("PGM export got non-finite values")
    if values.size and (values.min() < 0.0 or values.max() > 1.0):
        raise InvalidInput("PGM export needs values in [0, 1]")
    h, w = values.shape
    gray = np.rint(values * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def write_loss_csv(loss_curves, path) -> None:
    """Per-fold, per-epoch mean training loss as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["fold", "epoch", "mean_loss"])
        for fold, curve in enumerate(loss_curves):
            for epoch, loss in enumerate(curve):
                writer.writerow([fold, epoch, repr(float(loss))])


def export_map_pgm(values: np.ndarray, out_dir, stem: str) -> list:
    """One 2-D map -> one PGM; returns written paths."""
    path = os.path.join(out_dir, f"{stem}.pgm")
    write_pgm(path, values)
    return [path]


def export_spike_pgms(bits: np.ndarray, out_dir, stem: str) -> list:
    """A (T, C, H, W) spike tensor -> one PGM per step (channels OR-ed)."""
    if bits.ndim != 4:
        raise InvalidInput("spike tensor export needs a 4-D array")
    paths = []
    for k in range(bits.shape[0]):
        frame = bits[k].max(axis=0).astype(np.float64)
        path = os.path.join(out_dir, f"{stem}_t{k + 1:02d}.pgm")
        write_pgm(path, frame)
        paths.append(path)
    return paths


def export_sequence_pgms(frames: np.ndarray, out_dir, stem: str) -> list:
    """A (T, H, W) real or binary sequence -> one PGM per frame.

    Real frames are scaled per sequence by the global max so relative
    intensity is preserved across frames.
    """
    if frames.ndim != 3:
        raise InvalidInput("sequence export needs a 3-D array")
    frames = frames.astype(np.float64)
    top = frames.max()
    if top > 1.0:
        frames = frames / top
    paths = []
    for k in range(frames.shape[0]):
        path = os.path.join(out_dir, f"{stem}_t{k + 1:02d}.pgm")
        write_pgm(path, frames[k])
        paths.append(path)
    return paths
