"""Radar gesture recognition with quantized spiking neural networks.

The package covers the full chain: FMCW radar preprocessing into
micro-Doppler or range-Doppler representations, time-to-first-spike
encoding, a quantized integrate-and-fire network trained with
surrogate-gradient backpropagation through time, and an energy model
for spike-driven hardware.

The top level holds the dataset-to-trained-model path; everything else is
imported from its module (spikeradar.udoppler, spikeradar.snn, ...).
"""

__version__ = "0.1.0"

from .data import encode_examples, ingest_external, synth_udoppler
from .quant import dequantize, quantize
from .snn import init_model
from .training import TrainConfig, surrogate_gain, train

__all__ = [
    "__version__",
    "TrainConfig",
    "dequantize",
    "encode_examples",
    "ingest_external",
    "init_model",
    "quantize",
    "surrogate_gain",
    "synth_udoppler",
    "train",
]
