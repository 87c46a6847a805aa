"""Hardware energy estimate from spike counts.

E_c = N_spikes * E_dyn + delta_T * P_stat, with defaults matching a small
digital SNN accelerator: 2.1 pJ per spike, 73 uW static power, and an
inference window of 1 ms per time step (4 ms at T_inf = 4, 28 ms at
T_inf = 28).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .snn import SnnModel, forward_batch

MS_PER_STEP = 1e-3


@dataclass(frozen=True)
class HardwareProfile:
    """Per-spike energy, static power, and inference duration."""

    e_dyn: float = 2.1e-12
    p_stat: float = 73e-6
    delta_t: float = 4e-3

    def __post_init__(self):
        for name in ("e_dyn", "p_stat", "delta_t"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise InvalidInput(f"{name} must be strictly positive, got {v}")

    @staticmethod
    def for_t_inf(t_inf: int, e_dyn: float = 2.1e-12,
                  p_stat: float = 73e-6) -> "HardwareProfile":
        """Profile with delta_t = t_inf steps at 1 ms per step."""
        if t_inf < 1:
            raise InvalidInput("t_inf must be >= 1")
        return HardwareProfile(e_dyn=e_dyn, p_stat=p_stat,
                               delta_t=t_inf * MS_PER_STEP)

    @property
    def static_floor(self) -> float:
        """Energy burned with zero spikes: delta_t * p_stat."""
        return self.delta_t * self.p_stat


def energy_per_classification(n_spikes: int, hw: HardwareProfile) -> float:
    """E_c = n_spikes * e_dyn + delta_t * p_stat, in joules."""
    if n_spikes < 0:
        raise InvalidInput(f"n_spikes must be >= 0, got {n_spikes}")
    return n_spikes * hw.e_dyn + hw.delta_t * hw.p_stat


@dataclass(frozen=True)
class EnergyReport:
    """Spike-count and energy aggregates over an evaluated example set."""

    n_spikes_max: int
    n_spikes_mean: float
    e_c_max: float
    e_c_mean: float
    static_floor: float
    n_examples: int
    include_input_spikes: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": "spikeradar-energy-report",
                "version": 1,
                "n_spikes_max": self.n_spikes_max,
                "n_spikes_mean": self.n_spikes_mean,
                "e_c_max_joules": self.e_c_max,
                "e_c_mean_joules": self.e_c_mean,
                "static_floor_joules": self.static_floor,
                "n_examples": self.n_examples,
                "include_input_spikes": self.include_input_spikes,
            },
            sort_keys=True,
        )


def report_for_dataset(
    model: SnnModel,
    tensors,
    hw: HardwareProfile,
    use_quantized: bool = True,
    include_input_spikes: bool = True,
) -> EnergyReport:
    """Energy report over a list of SpikeTensors (or a stacked bit array).

    Runs the quantized forward on every tensor, aggregates the max and mean
    spike count (max as the upper-bound operating point), and converts both
    through energy_per_classification. An example's count is its spikes of
    all three IF layers, plus its input spikes when include_input_spikes;
    pooling passes spikes through and emits nothing of its own.
    """
    if isinstance(tensors, np.ndarray):
        bits = tensors
    else:
        tensors = list(tensors)
        if not tensors:
            raise InvalidInput("empty tensor list")
        bits = np.stack([t.bits for t in tensors])
    if bits.ndim != 5 or bits.shape[0] == 0:
        raise InvalidInput("expected a non-empty (N, T, C, H, W) spike batch")
    counts = forward_batch(model, bits, use_quantized=use_quantized).spike_counts
    totals = counts["sigma1"] + counts["sigma2"] + counts["sigma3"]
    if include_input_spikes:
        totals += counts["input"]
    n_max = int(totals.max())
    n_mean = float(totals.mean())
    return EnergyReport(
        n_spikes_max=n_max,
        n_spikes_mean=n_mean,
        e_c_max=energy_per_classification(n_max, hw),
        e_c_mean=n_mean * hw.e_dyn + hw.static_floor,
        static_floor=hw.static_floor,
        n_examples=int(bits.shape[0]),
        include_input_spikes=include_input_spikes,
    )
