"""Small datasets and baselines that the tests train and check against."""

import numpy as np


def nearest_centroid_accuracy(examples) -> float:
    """Accuracy of a nearest-centroid classifier on map payloads.

    Sanity floor for the synthetic generator: the classes must be
    separable enough that this trivial baseline already does well.
    """
    maps = np.stack([ex.payload.values for ex in examples])
    labels = np.asarray([ex.label for ex in examples])
    classes = np.unique(labels)
    centroids = np.stack([maps[labels == c].mean(axis=0) for c in classes])
    flat = maps.reshape(maps.shape[0], -1)
    cflat = centroids.reshape(centroids.shape[0], -1)
    d2 = ((flat[:, None, :] - cflat[None, :, :]) ** 2).sum(axis=2)
    preds = classes[np.argmin(d2, axis=1)]
    return float((preds == labels).mean())


def sanity_spike_dataset(
    n_per_class: int = 100,
    seed: int = 0,
    t_inf: int = 4,
    shape: tuple[int, int, int] = (1, 12, 12),
):
    """Two-class, linearly separable spike dataset for trainer sanity tests.

    Class 0 fills the left half of the frame with dense spikes at every
    step, class 1 the right half; the other half carries sparse noise.
    Dense input at every step keeps membrane drive high enough that the
    network fires from the first forward pass, so a short schedule is
    enough to learn the split.

    Returns:
        (bits, labels) ready for train().
    """
    c, h, w = shape
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    bits = np.zeros((n, t_inf, c, h, w), dtype=np.uint8)
    labels = np.repeat(np.arange(2), n_per_class).astype(np.int64)
    left = np.arange(w)[None, None, :] < w // 2
    for i in range(n):
        for k in range(t_inf):
            dense = rng.random((c, h, w)) < 0.9
            sparse = rng.random((c, h, w)) < 0.05
            frame = np.where(left == (labels[i] == 0), dense, sparse)
            bits[i, k] = frame.astype(np.uint8)
    return bits, labels
