"""Command-line interface: subcommand smokes, exit codes, run records."""

import json
import os
import shutil

import numpy as np
import pytest

from spikeradar import training
from spikeradar.cli import main
from spikeradar.container import read_tensor, write_tensor
from spikeradar.data import (
    LabeledExample,
    export_dataset,
    ingest_external,
    read_manifest,
)
from spikeradar.encoding import ttfs_encode
from spikeradar.rangedoppler import RangeDopplerSequence


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "maps"
    assert main(["synth", "--classes", "2", "--per-class", "6",
                 "--seed", "3", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def spikes_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("ds") / "spikes"
    assert main(["encode", "ttfs", "--input", str(synth_dir),
                 "--tinf", "4", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("model") / "model.bin"
    rc = main([
        "train", "--dataset", str(synth_dir), "--tinf", "4",
        "--epochs", "1", "--qat-epochs", "1", "--folds", "2",
        "--batch", "8", "--seed", "1", "--hidden", "16",
        "--out", str(out),
    ])
    assert rc == 0
    return out


def test_synth_writes_dataset_and_record(synth_dir):
    manifest = read_manifest(synth_dir)
    assert manifest.pipeline == "udoppler"
    assert len(manifest.entries) == 12
    assert manifest.class_names == ["slow-wave", "fast-wave"]
    record = json.loads((synth_dir / "run_record.json").read_text())
    assert record["format"] == "spikeradar-run-record"
    assert record["subcommand"] == "synth"
    assert record["seed"] == 3
    assert record["resolved_args"]["per_class"] == 6


def test_dataset_info_output(synth_dir, capsys):
    assert main(["dataset", "info", str(synth_dir)]) == 0
    out = capsys.readouterr().out
    assert "pipeline: udoppler" in out
    assert "slow-wave: 6 examples" in out
    assert "total examples: 12" in out


def test_encode_dataset_mode(spikes_dir, synth_dir):
    manifest = read_manifest(spikes_dir)
    assert manifest.pipeline == "spikes"
    assert manifest.provenance["encoded_from"] == "udoppler"
    maps, _ = ingest_external(synth_dir)
    encoded, _ = ingest_external(spikes_dir)
    want = ttfs_encode(maps[0].payload, t_inf=4)
    assert np.array_equal(encoded[0].payload.bits, want.bits)


def test_encode_single_file_mode(tmp_path, synth_dir):
    examples, _ = ingest_external(synth_dir)
    src = tmp_path / "one_map.bin"
    write_tensor(src, examples[0].payload.values, ["time", "doppler"], dtype="f32")
    dst = tmp_path / "one_map_spikes.bin"
    assert main(["encode", "ttfs", "--input", str(src),
                 "--tinf", "4", "--out", str(dst)]) == 0
    bits, header = read_tensor(dst)
    assert header["dtype"] == "u1" and bits.ndim == 4
    want = ttfs_encode(examples[0].payload, t_inf=4)
    assert np.array_equal(bits, want.bits)
    assert (tmp_path / "one_map_spikes.bin.run.json").is_file()


def test_train_artifacts(model_path):
    with open(str(model_path) + ".report.json") as f:
        report = json.load(f)
    assert report["format"] == "spikeradar-fold-report"
    assert len(report["fold_accuracies"]) == 2
    assert os.path.isfile(str(model_path) + ".losses.csv")
    with open(str(model_path) + ".run.json") as f:
        record = json.load(f)
    assert record["subcommand"] == "train"
    assert record["resolved_args"]["bits"] == 4


def test_infer_and_trace(model_path, spikes_dir, tmp_path, capsys):
    encoded, _ = ingest_external(spikes_dir)
    src = tmp_path / "tensor.bin"
    write_tensor(src, encoded[0].payload.bits,
                 ["time", "channel", "height", "width"], dtype="u1")
    trace_path = tmp_path / "trace.json"
    rc = main(["infer", "--model", str(model_path), "--input", str(src),
               "--quantized", "--trace", str(trace_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "predicted class:" in out and "probabilities:" in out
    trace = json.loads(trace_path.read_text())
    assert trace["format"] == "spikeradar-trace"
    assert len(trace["probabilities"]) == 2
    assert trace["quantized"] is True
    assert set(trace["spike_counts"]) == {"input", "sigma1", "sigma2", "sigma3"}


def test_energy_report(model_path, spikes_dir, tmp_path, capsys):
    out = tmp_path / "energy.json"
    rc = main(["energy", "--model", str(model_path),
               "--dataset", str(spikes_dir), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["format"] == "spikeradar-energy-report"
    # model default window: t_inf=4 at 1 ms/step on 73 uW static power
    assert report["static_floor_joules"] == pytest.approx(292e-9)
    assert "nJ" in capsys.readouterr().out


def test_plot_map_and_spikes(tmp_path, synth_dir, spikes_dir):
    examples, _ = ingest_external(synth_dir)
    src = tmp_path / "amap.bin"
    write_tensor(src, examples[0].payload.values, ["time", "doppler"], dtype="f32")
    out = tmp_path / "plots"
    assert main(["plot", "--input", str(src), "--out", str(out)]) == 0
    assert (out / "amap.pgm").is_file()

    encoded, _ = ingest_external(spikes_dir)
    src2 = tmp_path / "spk.bin"
    write_tensor(src2, encoded[0].payload.bits,
                 ["time", "channel", "height", "width"], dtype="u1")
    assert main(["plot", "--input", str(src2), "--out", str(out)]) == 0
    assert (out / "spk_t01.pgm").is_file() and (out / "spk_t04.pgm").is_file()


def test_plot_loss_curves(tmp_path, model_path):
    out = tmp_path / "plots"
    report_path = str(model_path) + ".report.json"
    assert main(["plot", "--input", report_path, "--out", str(out)]) == 0
    csvs = [p for p in os.listdir(out) if p.endswith("_losses.csv")]
    assert len(csvs) == 1


def test_exit_code_corrupt_dataset(tmp_path, capsys):
    rc = main(["dataset", "info", str(tmp_path / "missing")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def with_entry(src, dst, key, value):
    """A copy of dataset src at dst whose first example has key set to value."""
    shutil.copytree(src, dst)
    manifest = json.loads((dst / "manifest.json").read_text())
    manifest["examples"][0][key] = value
    (dst / "manifest.json").write_text(json.dumps(manifest))
    return dst


@pytest.mark.parametrize("label", ["x", None, 1.7, True])
def test_exit_code_non_integer_label(synth_dir, tmp_path, capsys, label):
    bad = with_entry(synth_dir, tmp_path / "ds", "label", label)
    assert main(["dataset", "info", str(bad)]) == 3
    assert "label" in capsys.readouterr().err


def test_exit_code_non_integer_segment_index(model_path, spikes_dir, tmp_path,
                                             capsys):
    bad = with_entry(spikes_dir, tmp_path / "ds", "segment_index", "q")
    rc = main(["energy", "--model", str(model_path), "--dataset", str(bad),
               "--out", str(tmp_path / "energy.json")])
    assert rc == 3
    assert "segment_index" in capsys.readouterr().err


def test_exit_code_invalid_input(tmp_path, capsys):
    rc = main(["synth", "--classes", "9", "--per-class", "1",
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_malformed_headers(tmp_path, capsys):
    tensor = tmp_path / "huge.bin"
    header = {"dtype": "f32", "shape": [2**40] * 3, "axes": ["a", "b", "c"],
              "endian": "little"}
    tensor.write_bytes(json.dumps(header).encode() + b"\n")
    assert main(["plot", "--input", str(tensor), "--out", str(tmp_path / "p")]) == 2
    model = tmp_path / "model.bin"
    model.write_bytes(b'{"format": "spikeradar-model"}\n')
    assert main(["infer", "--model", str(model), "--input", str(tensor)]) == 2
    capsys.readouterr()


def test_exit_code_training_error_in_worker(synth_dir, tmp_path, monkeypatch,
                                            capsys):
    real = training.backprop_through_time

    def nan_bptt(*args, **kwargs):
        grads, loss, probs = real(*args, **kwargs)
        grads["conv"][0, 0, 0, 0] = np.inf
        return grads, loss, probs

    monkeypatch.setattr(training, "backprop_through_time", nan_bptt)
    monkeypatch.setattr(training, "_fold_workers", lambda folds: 2)
    rc = main(["train", "--dataset", str(synth_dir), "--tinf", "4",
               "--epochs", "1", "--qat-epochs", "0", "--folds", "2",
               "--batch", "8", "--hidden", "16",
               "--out", str(tmp_path / "model.bin")])
    assert rc == 1
    assert "non-finite gradient" in capsys.readouterr().err


@pytest.mark.parametrize("hidden", ["0", "-1"])
def test_exit_code_empty_hidden_layer(hidden, synth_dir, tmp_path, capsys):
    rc = main(["train", "--dataset", str(synth_dir), "--tinf", "4",
               "--epochs", "0", "--qat-epochs", "0", "--folds", "2",
               "--hidden", hidden, "--out", str(tmp_path / "model.bin")])
    assert rc == 2
    assert f"hidden must be >= 1, got {hidden}" in capsys.readouterr().err
    assert not (tmp_path / "model.bin").exists()


def test_exit_code_missing_file(tmp_path, capsys):
    rc = main(["infer", "--model", str(tmp_path / "no_model.bin"),
               "--input", str(tmp_path / "no_tensor.bin")])
    assert rc == 2
    capsys.readouterr()


def test_train_takes_the_pipeline_from_the_manifest(tmp_path, capsys):
    rng = np.random.default_rng(0)
    examples = [
        LabeledExample(payload=RangeDopplerSequence(frames=rng.random((6, 8, 8))),
                       label=i % 2, acquisition_id=f"seq{i}")
        for i in range(4)
    ]
    export_dataset(examples, tmp_path / "rd")
    argv = ["train", "--dataset", str(tmp_path / "rd"), "--epochs", "0",
            "--qat-epochs", "0", "--folds", "2", "--hidden", "8",
            "--out", str(tmp_path / "m.bin")]
    assert main(argv + ["--tinf", "4"]) == 0
    # the length check on range-Doppler sequences still applies
    assert main(argv + ["--tinf", "8"]) == 2
    assert "seq0" in capsys.readouterr().err


@pytest.mark.parametrize("command",
                         ["infer", "encode ttfs", "dsp rangedoppler", "energy"])
def test_exit_code_payload_of_wrong_kind(command, model_path, synth_dir,
                                         spikes_dir, tmp_path, capsys):
    map_file = synth_dir / "ex00000.bin"  # 2-D f32 map
    spike_file = spikes_dir / "ex00000.bin"  # 4-D u1 spike tensor
    bad_ds = tmp_path / "ds"  # spike dataset whose first payload is f32
    shutil.copytree(spikes_dir, bad_ds)
    bits, _ = read_tensor(spike_file)
    write_tensor(bad_ds / "ex00000.bin", bits,
                 ["time", "channel", "height", "width"], dtype="f32")
    out = str(tmp_path / "out")
    argv = {
        "infer": ["infer", "--model", str(model_path), "--input", str(map_file)],
        "encode ttfs": ["encode", "ttfs", "--input", str(spike_file), "--out", out],
        "dsp rangedoppler": ["dsp", "rangedoppler", "--input", str(map_file),
                             "--out", out],
        "energy": ["energy", "--model", str(model_path), "--dataset", str(bad_ds),
                   "--out", out],
    }[command]
    assert main(argv) == 2
    assert "ex00000.bin" in capsys.readouterr().err


@pytest.fixture()
def cube_file(tmp_path):
    path = tmp_path / "cube.bin"
    samples = np.random.default_rng(0).standard_normal((192, 8))
    write_tensor(path, samples, ["chirp", "fast_time"], dtype="f32")
    return path


def test_exit_code_range_bin_not_an_integer(cube_file, tmp_path, capsys):
    rc = main(["dsp", "udoppler", "--input", str(cube_file), "--range-bin", "foo",
               "--out", str(tmp_path / "maps")])
    assert rc == 2
    assert "--range-bin" in capsys.readouterr().err


def test_exit_code_zero_chirps_per_frame(cube_file, tmp_path, capsys):
    rc = main(["dsp", "udoppler", "--input", str(cube_file),
               "--chirps-per-frame", "0", "--out", str(tmp_path / "maps")])
    assert rc == 2
    assert "--chirps-per-frame" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [
    ("--noise", "nan"), ("--noise", "inf"), ("--noise", "-1"),
    ("--topk", "0"), ("--topk", "-1"), ("--band", "0.3 0.2"),
])
def test_exit_code_bad_value(flag, value, tmp_path, capsys):
    if flag == "--noise":
        runs = [["synth", "--per-class", "1", "--noise", value]]
    else:
        # four frames of 192 chirps: one segment untrimmed, none after the
        # default --trim 6, so the check cannot wait for a segment
        cube = tmp_path / "cube.bin"
        samples = np.random.default_rng(0).standard_normal((4 * 192, 8))
        write_tensor(cube, samples, ["chirp", "fast_time"], dtype="f32")
        dsp = ["dsp", "udoppler", "--input", str(cube), flag, *value.split()]
        runs = [dsp + ["--trim", "0"], dsp]
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert f"got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "{ not json",
    '{"loss_curves": 5}',
    '{"loss_curves": [[0.5, "x"]]}',
    '{"loss_curves": [[0.5], 2]}',
    '{"loss_curves": [[true]]}',
    "[[0.5]]",
])
def test_exit_code_plot_bad_json(text, tmp_path, capsys):
    src = tmp_path / "report.json"
    src.write_text(text)
    assert main(["plot", "--input", str(src), "--out", str(tmp_path / "p")]) == 2
    assert "report.json" in capsys.readouterr().err


@pytest.mark.parametrize("shape,dtype", [
    ((0, 5), "f32"), ((0, 4, 3), "f32"), ((2, 4, 3), "c64"),
], ids=["empty-2d-f32", "empty-3d-f32", "3d-c64"])
def test_exit_code_plot_unplottable_tensor(shape, dtype, tmp_path, capsys):
    src = tmp_path / "tensor.bin"
    values = np.ones(shape, dtype=np.complex64 if dtype == "c64" else np.float32)
    write_tensor(src, values, ["a", "b", "c"][: len(shape)], dtype=dtype)
    assert main(["plot", "--input", str(src), "--out", str(tmp_path / "p")]) == 2
    assert "tensor.bin" in capsys.readouterr().err


def test_exit_code_provenance_not_an_object(synth_dir, tmp_path, capsys):
    bad = tmp_path / "ds"
    shutil.copytree(synth_dir, bad)
    manifest = json.loads((bad / "manifest.json").read_text())
    manifest["provenance"] = [1]
    (bad / "manifest.json").write_text(json.dumps(manifest))
    assert main(["dataset", "info", str(bad)]) == 3
    assert main(["encode", "ttfs", "--input", str(bad),
                 "--out", str(tmp_path / "spikes")]) == 3
    assert "provenance" in capsys.readouterr().err


def test_exit_code_file_not_a_string(synth_dir, tmp_path, capsys):
    bad = with_entry(synth_dir, tmp_path / "ds", "file", 5)
    assert main(["dataset", "info", str(bad)]) == 3
    assert "malformed example entry" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
