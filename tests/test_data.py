"""Dataset export/ingest, folds, and synthetic generation."""

import json
import os

import numpy as np
import pytest

from sanity_data import nearest_centroid_accuracy, sanity_spike_dataset
from spikeradar.data import (
    LabeledExample,
    dataset_info,
    encode_examples,
    export_dataset,
    ingest_external,
    read_manifest,
    read_payload,
    stratified_folds,
    synth_class_names,
    synth_udoppler,
    write_payload,
)
from spikeradar.encoding import SpikeTensor
from spikeradar.errors import CorruptDataset, InvalidInput, StratificationError
from spikeradar.rangedoppler import BinaryRdSequence, RangeDopplerSequence
from spikeradar.udoppler import MicroDopplerMap


def map_example(rng, label=0, shape=(6, 10), aid=""):
    values = rng.random(shape)
    values[0, 0], values[-1, -1] = 0.0, 1.0
    return LabeledExample(
        payload=MicroDopplerMap(values=values, normalized=True),
        label=label,
        acquisition_id=aid,
    )


# ── export / ingest ─────────────────────────────────────────────────────────


def test_udoppler_roundtrip_is_f32_exact(tmp_path):
    rng = np.random.default_rng(0)
    examples = [map_example(rng, label=i % 2, aid=f"a{i}") for i in range(6)]
    export_dataset(examples, tmp_path)
    back, manifest = ingest_external(tmp_path)
    assert manifest.pipeline == "udoppler"
    assert len(back) == 6
    for orig, got in zip(examples, back):
        # container payloads are f32; the narrowed values round-trip exactly
        want = orig.payload.values.astype(np.float32).astype(np.float64)
        assert np.array_equal(got.payload.values, want)
        assert got.label == orig.label
        assert got.acquisition_id == orig.acquisition_id


def test_spike_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(1)
    examples = [
        LabeledExample(
            payload=SpikeTensor(bits=(rng.random((3, 1, 5, 7)) < 0.3).astype(np.uint8)),
            label=i % 3,
        )
        for i in range(9)
    ]
    export_dataset(examples, tmp_path)
    back, manifest = ingest_external(tmp_path)
    assert manifest.pipeline == "spikes"
    for orig, got in zip(examples, back):
        assert np.array_equal(got.payload.bits, orig.payload.bits)
        assert got.payload.bits.dtype == np.uint8


def test_rangedoppler_roundtrips_both_dtypes(tmp_path):
    rng = np.random.default_rng(2)
    raw = [
        LabeledExample(
            payload=RangeDopplerSequence(frames=rng.random((30, 4, 6))), label=0
        ),
        LabeledExample(
            payload=RangeDopplerSequence(frames=rng.random((30, 4, 6))), label=1
        ),
    ]
    export_dataset(raw, tmp_path / "raw")
    back, manifest = ingest_external(tmp_path / "raw")
    assert manifest.pipeline == "rangedoppler"
    assert isinstance(back[0].payload, RangeDopplerSequence)
    assert np.array_equal(
        back[0].payload.frames, raw[0].payload.frames.astype(np.float32)
    )

    binary = [
        LabeledExample(
            payload=BinaryRdSequence(
                frames=(rng.random((8, 4, 6)) < 0.4).astype(np.uint8)
            ),
            label=0,
        )
    ]
    export_dataset(binary, tmp_path / "bin")
    back2, manifest2 = ingest_external(tmp_path / "bin")
    assert manifest2.pipeline == "rangedoppler"
    assert isinstance(back2[0].payload, BinaryRdSequence)
    assert np.array_equal(back2[0].payload.frames, binary[0].payload.frames)


def test_read_payload_picks_the_kind_by_dtype_and_rank(tmp_path):
    rng = np.random.default_rng(7)
    raw = RangeDopplerSequence(frames=rng.random((5, 4, 6)))
    binary = BinaryRdSequence(frames=(rng.random((5, 4, 6)) < 0.5).astype(np.uint8))
    kinds = (RangeDopplerSequence, BinaryRdSequence)
    for payload in (raw, binary):
        write_payload(tmp_path / "seq.bin", payload)
        got = read_payload(tmp_path / "seq.bin", *kinds)
        assert type(got) is type(payload)
    with pytest.raises(InvalidInput, match="seq.bin"):
        read_payload(tmp_path / "seq.bin", SpikeTensor)
    with pytest.raises(InvalidInput, match="seq.bin"):
        read_payload(tmp_path / "seq.bin", RangeDopplerSequence)


def test_short_acquisition_rejected_by_name(tmp_path):
    frames = np.random.default_rng(3).random((27, 4, 6))
    ex = LabeledExample(
        payload=RangeDopplerSequence(frames=frames),
        label=0,
        acquisition_id="seq-short",
    )
    export_dataset([ex], tmp_path)
    back, _ = ingest_external(tmp_path, t_inf=27)
    assert back[0].payload.t_fr == 27
    with pytest.raises(InvalidInput, match="seq-short"):
        ingest_external(tmp_path, t_inf=28)


def test_missing_dir_and_missing_manifest(tmp_path):
    with pytest.raises(CorruptDataset):
        ingest_external(tmp_path / "nope")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(CorruptDataset):
        ingest_external(empty)


def test_manifest_corruption_cases(tmp_path):
    rng = np.random.default_rng(4)
    export_dataset([map_example(rng), map_example(rng, label=1)], tmp_path)
    mpath = tmp_path / "manifest.json"

    good = json.loads(mpath.read_text())

    for raw in (b"{ not json", b'{"format": "\xff"}'):  # not JSON; not UTF-8
        mpath.write_bytes(raw)
        with pytest.raises(CorruptDataset):
            read_manifest(tmp_path)

    bad = dict(good, format="something-else")
    mpath.write_text(json.dumps(bad))
    with pytest.raises(CorruptDataset):
        read_manifest(tmp_path)

    bad = dict(good, pipeline="holograms")
    mpath.write_text(json.dumps(bad))
    with pytest.raises(CorruptDataset):
        read_manifest(tmp_path)

    bad = dict(good, examples=[])
    mpath.write_text(json.dumps(bad))
    with pytest.raises(CorruptDataset):
        read_manifest(tmp_path)

    bad = dict(good)
    bad["examples"] = [dict(good["examples"][0], label=9)]
    mpath.write_text(json.dumps(bad))
    with pytest.raises(CorruptDataset):
        read_manifest(tmp_path)

    mpath.write_text(json.dumps(good))
    os.remove(tmp_path / good["examples"][0]["file"])
    with pytest.raises(CorruptDataset):
        ingest_external(tmp_path)
    with pytest.raises(CorruptDataset):
        dataset_info(tmp_path)


def test_export_rejects_empty_and_mixed(tmp_path):
    rng = np.random.default_rng(5)
    with pytest.raises(InvalidInput):
        export_dataset([], tmp_path)
    mixed = [
        map_example(rng),
        LabeledExample(
            payload=SpikeTensor(bits=np.zeros((2, 1, 4, 4), dtype=np.uint8)), label=0
        ),
    ]
    with pytest.raises(InvalidInput):
        export_dataset(mixed, tmp_path / "mixed")


def test_dataset_info_counts(tmp_path):
    rng = np.random.default_rng(6)
    examples = [map_example(rng, label=l) for l in (0, 0, 0, 1, 1)]
    export_dataset(examples, tmp_path, class_names=["wave", "push"])
    info = dataset_info(tmp_path)
    assert info.class_names == ["wave", "push"]
    assert info.per_class_counts() == {0: 3, 1: 2}
    assert info.balanced is False


# ── stratified folds ────────────────────────────────────────────────────────


def test_folds_even_split():
    labels = np.repeat(np.arange(5), 12)
    ids = stratified_folds(labels, folds=6, seed=0)
    assert ids.shape == labels.shape
    for c in range(5):
        counts = np.bincount(ids[labels == c], minlength=6)
        assert np.array_equal(counts, np.full(6, 2)), (c, counts)


def test_folds_uneven_extra_spread():
    labels = np.concatenate([np.repeat(np.arange(5), 12), [0]])
    ids = stratified_folds(labels, folds=6, seed=0)
    counts0 = np.bincount(ids[labels == 0], minlength=6)
    assert counts0.sum() == 13
    assert counts0.max() == 3 and counts0.min() == 2
    assert (counts0 == 3).sum() == 1


def test_folds_partition_and_determinism():
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 4, size=97)
    labels = np.concatenate([np.arange(4).repeat(6), labels])
    ids = stratified_folds(labels, folds=6, seed=5)
    assert ids.min() >= 0 and ids.max() < 6
    assert np.array_equal(ids, stratified_folds(labels, folds=6, seed=5))
    assert not np.array_equal(ids, stratified_folds(labels, folds=6, seed=6))
    # per class, fold sizes differ by at most one
    for c in np.unique(labels):
        counts = np.bincount(ids[labels == c], minlength=6)
        assert counts.max() - counts.min() <= 1


def test_folds_errors():
    with pytest.raises(StratificationError):
        stratified_folds(np.array([0, 0, 0, 1, 1, 1]), folds=4)
    with pytest.raises(InvalidInput):
        stratified_folds(np.array([]), folds=2)
    with pytest.raises(InvalidInput):
        stratified_folds(np.array([0, 1]), folds=1)


# ── synthetic generator ─────────────────────────────────────────────────────


def test_synth_shapes_names_and_range():
    examples = synth_udoppler(n_per_class=3, n_classes=5, seed=0)
    assert len(examples) == 15
    assert synth_class_names(5) == [
        "slow-wave", "fast-wave", "narrow-wave", "chirp", "pulsed-wave",
    ]
    for ex in examples:
        v = ex.payload.values
        assert v.shape == (48, 100)
        assert ex.payload.normalized
        assert v.min() >= 0.0 and v.max() <= 1.0
        # per-row top-k thresholding leaves at most 48 survivors per row
        assert (np.count_nonzero(v, axis=1) <= 48).all()


def test_synth_deterministic_and_seed_sensitive():
    a = synth_udoppler(n_per_class=2, n_classes=3, seed=11)
    b = synth_udoppler(n_per_class=2, n_classes=3, seed=11)
    c = synth_udoppler(n_per_class=2, n_classes=3, seed=12)
    for x, y in zip(a, b):
        assert np.array_equal(x.payload.values, y.payload.values)
    assert not np.array_equal(a[0].payload.values, c[0].payload.values)


def test_synth_noiseless_classes_distinct():
    examples = synth_udoppler(n_per_class=1, n_classes=5, seed=0, noise_amp=0.0)
    for i in range(5):
        for j in range(i + 1, 5):
            vi, vj = examples[i].payload.values, examples[j].payload.values
            assert np.abs(vi - vj).max() > 0.2, (i, j)


def test_synth_centroid_separability_floor():
    examples = synth_udoppler(n_per_class=20, n_classes=5, seed=7)
    assert nearest_centroid_accuracy(examples) >= 0.8


def test_synth_validation():
    with pytest.raises(InvalidInput):
        synth_udoppler(n_per_class=0)
    with pytest.raises(InvalidInput):
        synth_udoppler(n_per_class=1, n_classes=1)
    with pytest.raises(InvalidInput):
        synth_udoppler(n_per_class=1, n_classes=6)


# ── batch encoding ──────────────────────────────────────────────────────────


def test_encode_examples_map_batch():
    examples = synth_udoppler(n_per_class=2, n_classes=2, seed=0)
    bits, labels = encode_examples(examples, t_inf=4)
    assert bits.shape == (4, 4, 1, 48, 100)
    assert bits.dtype == np.uint8
    assert np.array_equal(labels, [0, 0, 1, 1])


def test_encode_examples_passthrough_and_mismatch():
    tensor = SpikeTensor(bits=np.ones((3, 1, 4, 4), dtype=np.uint8))
    ex = LabeledExample(payload=tensor, label=0)
    bits, _ = encode_examples([ex], t_inf=3)
    assert np.array_equal(bits[0], tensor.bits)
    with pytest.raises(InvalidInput):
        encode_examples([ex], t_inf=4)
    with pytest.raises(InvalidInput):
        encode_examples([], t_inf=4)


def test_encode_examples_shape_consistency():
    a = SpikeTensor(bits=np.zeros((2, 1, 4, 4), dtype=np.uint8))
    b = SpikeTensor(bits=np.zeros((2, 1, 4, 6), dtype=np.uint8))
    pair = [LabeledExample(payload=a, label=0), LabeledExample(payload=b, label=1)]
    with pytest.raises(InvalidInput):
        encode_examples(pair, t_inf=2)


def test_encode_examples_rangedoppler_path():
    frames = np.zeros((8, 4, 4), dtype=np.float64)
    frames[:, 1, 2] = 1.0
    ex = LabeledExample(payload=RangeDopplerSequence(frames=frames), label=1)
    bits, labels = encode_examples([ex], t_inf=4)
    assert bits.shape == (1, 4, 1, 4, 4)
    assert bits[0, :, 0, 1, 2].all()
    assert labels[0] == 1


# ── trainer sanity dataset ──────────────────────────────────────────────────


def test_sanity_dataset_contract():
    bits, labels = sanity_spike_dataset(n_per_class=5, seed=0)
    assert bits.shape == (10, 4, 1, 12, 12)
    assert set(np.unique(bits)) <= {0, 1}
    assert np.bincount(labels).tolist() == [5, 5]
    left = bits[..., :6].mean(axis=(1, 2, 3, 4))
    right = bits[..., 6:].mean(axis=(1, 2, 3, 4))
    assert (left[labels == 0] > right[labels == 0]).all()
    assert (right[labels == 1] > left[labels == 1]).all()
    again, _ = sanity_spike_dataset(n_per_class=5, seed=0)
    assert np.array_equal(bits, again)
