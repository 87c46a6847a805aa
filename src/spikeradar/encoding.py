"""Time-to-first-spike encoding of normalized maps into spike tensors.

Brighter pixels spike earlier: a pixel with value v in (0, 1] emits exactly
one spike at step T_inf - floor(v * T_inf) (1-based, clamped to step 1 for
v = 1); v = 0 emits nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .rangedoppler import BinaryRdSequence
from .udoppler import MicroDopplerMap


@dataclass(frozen=True)
class SpikeTensor:
    """Binary spike trains over (time step, channel, height, width)."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits)
        if bits.ndim != 4 or bits.shape[0] < 1:
            raise InvalidInput(
                "spike tensor must be 4-D (time, channel, height, width) "
                "with at least one step"
            )
        if not np.isin(bits, (0, 1)).all():
            raise InvalidInput("spike tensor entries must be 0 or 1")
        object.__setattr__(self, "bits", bits.astype(np.uint8))

    @property
    def t_inf(self) -> int:
        return self.bits.shape[0]

    def total_spikes(self) -> int:
        return int(self.bits.sum())


def ttfs_step(v: float, t_inf: int) -> int:
    """Spike step for a single pixel value: 0 means no spike.

    Evaluates t = t_inf - floor(v * t_inf) with 1-based steps; the v = 1
    boundary (formula gives 0) is clamped to step 1 so the brightest pixels
    spike earliest. Bin edges are assigned by the exact floor, no epsilon.
    """
    if t_inf < 1:
        raise InvalidInput("t_inf must be >= 1")
    if not (0.0 <= v <= 1.0):
        raise InvalidInput(f"pixel value {v} outside [0, 1]")
    if v == 0.0:
        return 0
    return max(1, t_inf - int(np.floor(v * t_inf)))


def ttfs_encode(m: MicroDopplerMap, t_inf: int = 4) -> SpikeTensor:
    """Encode a normalized map as a single-channel TTFS spike tensor.

    Args:
        m: map with values in [0, 1].
        t_inf: spike train length (4 for the 8-GHz pipeline).

    Returns:
        SpikeTensor of shape (t_inf, 1, H, W) with at most one spike per
        pixel across time; zero pixels emit no spike.
    """
    return SpikeTensor(bits=ttfs_bits(m.values, t_inf))


def ttfs_bits(v: np.ndarray, t_inf: int) -> np.ndarray:
    """The TTFS spikes of maps v (..., H, W) as uint8 bits (..., t_inf, 1, H, W)."""
    if t_inf < 1:
        raise InvalidInput("t_inf must be >= 1")
    if v.size and (v.min() < 0.0 or v.max() > 1.0):
        raise InvalidInput("TTFS encoding requires map values in [0, 1]")
    steps = np.maximum(t_inf - np.floor(v * t_inf), 1.0)
    steps[v == 0.0] = 0.0  # no spike
    step_of_bit = np.arange(1.0, t_inf + 1.0)[:, None, None, None]
    return (steps[..., None, None, :, :] == step_of_bit).view(np.uint8)


def wrap_binary(seq: BinaryRdSequence) -> SpikeTensor:
    """Reinterpret a binary range-Doppler sequence as a spike tensor.

    Time index n becomes step k, (range, Doppler) becomes (height, width)
    under a single channel; the payload is bit-identical.
    """
    return SpikeTensor(bits=seq.frames[:, None, :, :])

