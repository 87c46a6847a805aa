#!/usr/bin/env python3
"""Time-to-first-spike encoding and a step-by-step network trace.

Encodes one synthetic uDoppler map per gesture class into spike tensors
(bright pixels fire early, dim pixels late, zeros never), then pushes one
tensor through a freshly initialized network and prints the per-step spike
counts flowing through each layer.
"""

import numpy as np

from spikeradar.data import synth_class_names, synth_udoppler
from spikeradar.encoding import ttfs_encode, ttfs_step
from spikeradar.snn import forward, init_model

T_INF = 4


def main():
    examples = synth_udoppler(n_per_class=1, n_classes=5, seed=42)
    names = synth_class_names(5)

    print(f"TTFS at T_inf = {T_INF}: step = max(1, T - floor(v T))")
    for v in (1.0, 0.8, 0.6, 0.3, 0.1):
        print(f"  intensity {v:.1f} -> spike at step {ttfs_step(v, T_INF)}")
    print("  intensity 0.0 -> no spike ever\n")

    tensors = []
    for ex in examples:
        t = ttfs_encode(ex.payload, t_inf=T_INF)
        tensors.append(t)
        per_step = t.bits.sum(axis=(1, 2, 3))
        active = ex.payload.values > 0
        print(f"{names[ex.label]:>12s}: {int(active.sum())} bright pixels -> "
              f"{t.total_spikes()} spikes, per step {per_step.tolist()}")

    print("\nforward pass, untrained weights (seed 0):")
    model = init_model(input_shape=(1, 48, 100), n_classes=5, t_inf=T_INF, seed=0)
    probs, trace = forward(model, tensors[0])
    print("  per-step spike counts (rows: step, cols: input sigma1 sigma2 sigma3)")
    for k, row in enumerate(trace.per_step_spikes):
        print(f"    step {k + 1}: {row[0]:5d} {row[1]:5d} {row[2]:5d} {row[3]:5d}")
    print(f"  accumulator: {trace.accumulator.tolist()}")
    print(f"  probabilities: {np.round(probs, 4).tolist()}")
    print("  an untrained net rarely drives the deep layers above threshold;")
    print("  training exists precisely to wake sigma2 and sigma3 up")


if __name__ == "__main__":
    main()
