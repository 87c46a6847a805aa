"""Per-tensor symmetric uniform weight quantization.

The deployment view of a weight tensor: signed integer codes sharing one
positive scale, code range [-(2^(b-1) - 1), 2^(b-1) - 1] (the extra negative
code of two's complement is never used, keeping the grid symmetric around 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class QuantizedTensor:
    """Integer codes plus a shared positive scale for one weight tensor."""

    codes: np.ndarray
    scale: float
    bits: int

    def __post_init__(self):
        if not (2 <= self.bits <= 8):
            raise InvalidInput(f"bits must be in [2, 8], got {self.bits}")
        codes = np.asarray(self.codes)
        if codes.dtype.kind != "i":
            raise InvalidInput("quantized codes must be a signed integer array")
        object.__setattr__(self, "codes", codes.astype(np.int8))
        limit = (1 << (self.bits - 1)) - 1
        if codes.size and (codes.min() < -limit or codes.max() > limit):
            raise InvalidInput(
                f"codes outside the symmetric {self.bits}-bit range "
                f"[-{limit}, {limit}]"
            )
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise InvalidInput("scale must be positive and finite")

    @cached_property
    def code_units(self) -> np.ndarray:
        """The codes as read-only float32, which holds every code exactly:
        the tensor in units of its scale."""
        units = self.codes.astype(np.float32)
        units.flags.writeable = False
        return units

    @property
    def threshold(self) -> float:
        """ceil(1/scale), exact: m units reach 1 exactly when m >= it. No
        membrane in code units nears 2^53, so larger values are held there."""
        from fractions import Fraction  # here: only quantized inference needs it

        return float(min(math.ceil(1 / Fraction(self.scale)), 2 ** 53))

    def __getstate__(self):
        # pickles leave out the float32 cache; a copy rebuilds it when read
        return {k: v for k, v in self.__dict__.items() if k != "code_units"}


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # np.round rounds half to even; the codes here must round half away
    # from zero for cross-platform determinism.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize(weights: np.ndarray, bits: int) -> QuantizedTensor:
    """Quantize a weight tensor to b-bit symmetric integer codes.

    scale = max|w| / (2^(b-1) - 1); codes = round(w / scale) with halves
    rounded away from zero. An all-zero tensor gets scale 1 and zero codes.
    """
    if not (2 <= bits <= 8):
        raise InvalidInput(f"bits must be in [2, 8], got {bits}")
    weights = np.asarray(weights, dtype=np.float64)
    if not np.isfinite(weights).all():
        raise InvalidInput("cannot quantize non-finite weights")
    limit = (1 << (bits - 1)) - 1
    max_abs = np.abs(weights).max() if weights.size else 0.0
    if max_abs == 0.0:
        return QuantizedTensor(
            codes=np.zeros(weights.shape, dtype=np.int8), scale=1.0, bits=bits
        )
    scale = max_abs / limit
    codes = _round_half_away(weights / scale).astype(np.int8)
    return QuantizedTensor(codes=codes, scale=float(scale), bits=bits)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct real weights: codes * scale, as float64."""
    return q.codes.astype(np.float64) * q.scale
