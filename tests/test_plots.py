"""PGM image export and loss CSV."""

import csv

import numpy as np
import pytest

from spikeradar.errors import InvalidInput
from spikeradar.plots import (
    export_map_pgm,
    export_sequence_pgms,
    export_spike_pgms,
    write_loss_csv,
    write_pgm,
)


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM written by write_pgm back to values in [0, 1]."""
    with open(path, "rb") as f:
        assert f.readline() == b"P5\n"
        w, h = map(int, f.readline().split())
        maxval = int(f.readline())
        raw = f.read()
    assert len(raw) == w * h
    return np.frombuffer(raw, dtype=np.uint8).reshape(h, w) / float(maxval)


def test_pgm_roundtrip_quantized_to_255(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.random((9, 13))
    path = tmp_path / "map.pgm"
    write_pgm(path, values)
    back = read_pgm(path)
    assert back.shape == (9, 13)
    # 8-bit quantization: recoverable to half a gray level
    assert np.abs(back - values).max() <= 0.5 / 255 + 1e-12


def test_pgm_exact_for_8bit_grid(tmp_path):
    values = np.arange(256).reshape(16, 16) / 255.0
    path = tmp_path / "grid.pgm"
    write_pgm(path, values)
    assert np.array_equal(read_pgm(path), values)


def test_pgm_header(tmp_path):
    path = tmp_path / "tiny.pgm"
    write_pgm(path, np.array([[0.0, 1.0]]))
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 1\n255\n")
    assert raw[-2:] == bytes([0, 255])


def test_pgm_validation(tmp_path):
    with pytest.raises(InvalidInput):
        write_pgm(tmp_path / "x.pgm", np.zeros(4))
    with pytest.raises(InvalidInput):
        write_pgm(tmp_path / "x.pgm", np.array([[1.5]]))
    with pytest.raises(InvalidInput):
        write_pgm(tmp_path / "x.pgm", np.array([[np.nan]]))


def test_spike_export_one_file_per_step(tmp_path):
    bits = np.zeros((3, 2, 4, 5), dtype=np.uint8)
    bits[1, 0, 2, 2] = 1
    bits[1, 1, 0, 0] = 1
    paths = export_spike_pgms(bits, tmp_path, "spikes")
    assert [p.split("/")[-1] for p in paths] == [
        "spikes_t01.pgm", "spikes_t02.pgm", "spikes_t03.pgm",
    ]
    middle = read_pgm(paths[1])
    # channels are OR-ed into one frame
    assert middle[2, 2] == 1.0 and middle[0, 0] == 1.0
    assert middle.sum() == 2.0
    assert read_pgm(paths[0]).sum() == 0.0


def test_sequence_export_scales_by_global_max(tmp_path):
    frames = np.zeros((2, 3, 3))
    frames[0, 0, 0] = 2.0
    frames[1, 1, 1] = 4.0
    paths = export_sequence_pgms(frames, tmp_path, "seq")
    first, second = read_pgm(paths[0]), read_pgm(paths[1])
    assert second[1, 1] == 1.0
    assert first[0, 0] == pytest.approx(0.5, abs=1 / 255)


def test_map_export(tmp_path):
    values = np.linspace(0, 1, 12).reshape(3, 4)
    (path,) = export_map_pgm(values, tmp_path, "map")
    assert path.endswith("map.pgm")
    assert np.abs(read_pgm(path) - values).max() <= 0.5 / 255 + 1e-12


def test_loss_csv_roundtrip(tmp_path):
    curves = [[1.5, 0.75, 0.5], [1.25, 1.0]]
    path = tmp_path / "losses.csv"
    write_loss_csv(curves, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["fold", "epoch", "mean_loss"]
    assert len(rows) == 1 + 5
    assert rows[1] == ["0", "0", "1.5"]
    assert rows[4] == ["1", "0", "1.25"]
    # repr round-trips the float exactly
    assert float(rows[3][2]) == 0.5
