#!/usr/bin/env python3
"""Small end-to-end training run on synthetic gestures.

Three classes, 24 examples each, short schedule. Prints the loss falling
as the deep layers wake up, per-fold accuracies, and what 4-bit weight
quantization does to the scores. A few minutes of CPU; shrink PER_CLASS
or EPOCHS for a quicker look.
"""

import time

import numpy as np

from spikeradar.data import encode_examples, synth_udoppler
from spikeradar.snn import forward_batch, init_model
from spikeradar.training import TrainConfig, train

PER_CLASS = 24
EPOCHS = 8


def main():
    examples = synth_udoppler(n_per_class=PER_CLASS, n_classes=3, seed=1)
    bits, labels = encode_examples(examples, t_inf=4)
    print(f"dataset: {bits.shape[0]} examples, spike tensors {bits.shape[1:]}")

    template = init_model(input_shape=(1, 48, 100), n_classes=3, t_inf=4, seed=0)
    # small dataset, so small batches and a hot lr shorten the silent phase
    cfg = TrainConfig(lr=5e-3, epochs_full=EPOCHS, epochs_qat=1, folds=3,
                      batch=12, seed=0)
    t0 = time.monotonic()
    model, report = train(template, (bits, labels), cfg)
    dt = time.monotonic() - t0

    print(f"\ntrained {cfg.folds} folds x {EPOCHS}+1 epochs in {dt:.0f} s")
    for f, curve in enumerate(report.loss_curves):
        arrow = " -> ".join(f"{x:.3f}" for x in curve[:: max(1, len(curve) // 5)])
        print(f"  fold {f}: loss {arrow}, accuracy {report.fold_accuracies[f]:.3f}")
    print(f"mean accuracy: {report.mean_accuracy:.3f} "
          f"+- {report.std_accuracy:.3f}")
    print(f"(chance would be {1 / 3:.3f}; loss starts near ln(3) = "
          f"{np.log(3):.3f} while the deep layers are still silent)")

    # the shipped model runs on 4-bit integer weights; compare both forwards
    acc_q, acc_f = (
        np.mean(forward_batch(model, bits, use_quantized=q).probs.argmax(axis=1)
                == labels)
        for q in (True, False)
    )
    scale = model.quantized["fc1"].scale
    print(f"\nbest fold model on the full set: "
          f"float {acc_f:.3f}, 4-bit quantized {acc_q:.3f}")
    print(f"fc1 quantization scale {scale:.5f} "
          f"(codes in [-7, 7], max round-trip error {scale / 2:.5f})")


if __name__ == "__main__":
    main()
