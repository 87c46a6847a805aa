"""Seeded mutation fuzzing of the files the command line reads.

Each case damages a good model file, spike tensor file or dataset manifest
(truncation, bit flips, inserted bytes, edited header characters) and runs
the commands that read it. Every run must end with exit 0, 2 (invalid input)
or 3 (corrupt dataset): never exit 1 and never an uncaught exception. A
structured pass points a manifest entry at paths that are not a payload file
inside the dataset, which byte edits cannot reach.
"""

import json
import shutil

import numpy as np
import pytest

from spikeradar.cli import main
from spikeradar.data import LabeledExample, export_dataset, write_payload
from spikeradar.encoding import SpikeTensor
from spikeradar.quant import quantize
from spikeradar.snn import init_model, save_model

N_MUTATIONS = 300
# characters an edit writes into a header: JSON syntax, digits, letters
_HEADER_CHARS = b'0123456789-.,:[]{}" eftnrua'


def mutate(raw: bytes, rng) -> bytes:
    """One seeded mutation of raw: truncate it, flip 1-8 bits, insert 1-8
    random bytes, or replace one character of its first line."""
    data = bytearray(raw)
    kind = rng.integers(4)
    if kind == 0:
        return bytes(data[: rng.integers(len(data))])
    if kind == 1:
        for _ in range(rng.integers(1, 9)):
            data[rng.integers(len(data))] ^= 1 << int(rng.integers(8))
        return bytes(data)
    if kind == 2:
        i = rng.integers(len(data) + 1)
        return bytes(data[:i]) + rng.bytes(int(rng.integers(1, 9))) + bytes(data[i:])
    header_len = data.find(b"\n")
    data[rng.integers(header_len if header_len > 0 else len(data))] = (
        _HEADER_CHARS[rng.integers(len(_HEADER_CHARS))]
    )
    return bytes(data)


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    """A quantized model, a spike tensor it takes and a spikes dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(0)
    model = init_model(input_shape=(1, 8, 8), n_classes=2, t_inf=2, seed=0,
                       hidden=8, conv_channels=2, kernel=(3, 3))
    model.quantized = {k: quantize(v, bits=4) for k, v in model.weights.items()}
    save_model(model, root / "model.bin")
    tensors = [SpikeTensor(bits=(rng.random((2, 1, 8, 8)) < 0.3).astype(np.uint8))
               for _ in range(4)]
    write_payload(root / "tensor.bin", tensors[0])
    export_dataset([LabeledExample(payload=t, label=i % 2)
                    for i, t in enumerate(tensors)], root / "ds")
    return root


def commands(target, root, bad):
    """The commands that read the damaged copy bad of target."""
    model, tensor = str(root / "model.bin"), str(root / "tensor.bin")
    if target == "model.bin":
        return [["infer", "--model", bad, "--input", tensor],
                ["infer", "--model", bad, "--input", tensor, "--quantized"]]
    if target == "tensor.bin":
        return [["infer", "--model", model, "--input", bad, "--quantized"],
                ["plot", "--input", bad, "--out", str(root / "plots")]]
    ds = str(root / "ds")
    return [["dataset", "info", ds],
            ["energy", "--model", model, "--dataset", ds,
             "--out", str(root / "energy.json")]]


@pytest.mark.parametrize("target", ["model.bin", "tensor.bin", "ds/manifest.json"])
def test_mutated_file_exits_0_2_or_3(target, good, capsys):
    src = good / target
    raw = src.read_bytes()
    # the manifest is damaged in place; the other files beside the good one
    bad = src if target.endswith(".json") else good / f"bad-{target}"
    rng = np.random.default_rng(1729)
    try:
        for i in range(N_MUTATIONS):
            bad.write_bytes(mutate(raw, rng))
            for argv in commands(target, good, str(bad)):
                rc = main(argv)
                err = capsys.readouterr().err
                assert rc in (0, 2, 3), (i, argv, err)
    finally:
        src.write_bytes(raw)


def not_payload_files(root):
    """Manifest file values that name no payload file inside root/ds: the
    directory itself, its parent, good payloads outside it (relative and
    absolute), a subdirectory and a file that is not a container."""
    shutil.copy(root / "tensor.bin", root / "x.bin")
    (root / "ds" / "sub").mkdir(exist_ok=True)
    (root / "ds" / "junk.bin").write_bytes(b"junk")
    return [".", "..", "../x.bin", str(root / "tensor.bin"), "sub", "junk.bin"]


def test_entry_not_a_payload_file_exits_2_or_3(good, capsys):
    manifest_path = good / "ds" / "manifest.json"
    raw = manifest_path.read_text()
    manifest = json.loads(raw)
    rng = np.random.default_rng(4099)
    model, ds = str(good / "model.bin"), str(good / "ds")
    argvs = [["dataset", "info", ds],
             ["encode", "ttfs", "--input", ds, "--tinf", "2",
              "--out", str(good / "spikes")],
             ["energy", "--model", model, "--dataset", ds,
              "--out", str(good / "energy.json")]]
    try:
        for name in not_payload_files(good):
            entries = [dict(e) for e in manifest["examples"]]
            entries[rng.integers(len(entries))]["file"] = name
            manifest_path.write_text(json.dumps({**manifest, "examples": entries}))
            for argv in argvs:
                rc = main(argv)
                err = capsys.readouterr().err
                # dataset info checks that each listed file is a regular file
                # inside the dataset, but parses no payload
                parsed = argv[0] != "dataset" or name != "junk.bin"
                assert rc in ((2, 3) if parsed else (0, 2, 3)), (name, argv, err)
    finally:
        manifest_path.write_text(raw)
