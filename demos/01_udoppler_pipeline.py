#!/usr/bin/env python3
"""Walk a raw FMCW radar cube through every preprocessing stage.

Builds a small synthetic cube (two scatterers: a static wall and a target
whose radial velocity oscillates like a waving hand), then prints what each
stage of the uDoppler pipeline does to it: range DFT, gesture-bin pick,
slow-time DC removal, STFT, segment cutting, and per-segment normalize +
band crop + top-k denoising.
"""

import numpy as np

from spikeradar.udoppler import (
    RadarCube,
    StftConfig,
    band_column_range,
    compute_range_profiles,
    count_stft_frames,
    cut_maps,
    dc_removed_sequence,
    normalize_and_denoise,
    stft_magnitude,
    suggested_top_k,
)

SAMPLES_PER_CHIRP = 64
CHIRPS_PER_FRAME = 192
N_FRAMES = 30


def synth_cube(seed=0):
    """IQ cube with two scatterers, one modulated in slow-time."""
    rng = np.random.default_rng(seed)
    n_chirps = CHIRPS_PER_FRAME * N_FRAMES
    t_fast = np.arange(SAMPLES_PER_CHIRP) / SAMPLES_PER_CHIRP
    t_slow = np.arange(n_chirps, dtype=np.float64)

    # wall: strong, static, range bin 5
    wall = 2.0 * np.exp(2j * np.pi * 5 * t_fast)[None, :] * np.ones((n_chirps, 1))

    # hand: range bin 11, radial velocity swinging +-0.18 cycles/chirp
    doppler = 0.18 * np.sin(2 * np.pi * t_slow / 700.0)
    phase = 2 * np.pi * np.cumsum(doppler)
    hand = (np.exp(2j * np.pi * 11 * t_fast)[None, :]
            * np.exp(1j * phase)[:, None])

    noise = 0.05 * (rng.standard_normal((n_chirps, SAMPLES_PER_CHIRP))
                    + 1j * rng.standard_normal((n_chirps, SAMPLES_PER_CHIRP)))
    return RadarCube(
        samples=wall + hand + noise,
        n_chirps_per_frame=CHIRPS_PER_FRAME,
        n_frames=N_FRAMES,
    )


def main():
    cube = synth_cube()
    n_chirps = cube.samples.shape[0]
    print(f"cube: {n_chirps} chirps x {cube.samples.shape[1]} fast-time "
          f"samples ({N_FRAMES} frames of {CHIRPS_PER_FRAME})")

    profiles = compute_range_profiles(cube)
    print(f"range profiles: {profiles.profiles.shape} (chirp x range bin), "
          f"Blackman window, FFT length {profiles.profiles.shape[1]}")

    picked = profiles.gesture_bin
    print(f"max-energy range bin: {picked} "
          f"(the static wall in bin 5 dominates raw energy)")

    # the wall never moves, so the moving target is recovered by DC removal
    # even though the auto-picked bin sits on the wall
    profiles = compute_range_profiles(cube, gesture_bin=11)
    seq = dc_removed_sequence(profiles)
    print(f"slow-time first difference at bin 11: {seq.shape[0]} samples "
          f"(one fewer than {n_chirps} chirps)")

    cfg = StftConfig(window_len=192, hop=8)
    n_rows = count_stft_frames(seq.shape[0], cfg)
    m = stft_magnitude(seq, cfg)
    print(f"STFT: window {cfg.window_len}, hop {cfg.hop} -> "
          f"{m.values.shape[0]} x {m.values.shape[1]} map "
          f"(closed form: (N - (s - R)) / R = {n_rows})")

    cuts = cut_maps(m, segment_len=48, head_tail_trim=6)
    total = m.time_len // 48
    print(f"cut into {total} segments of 48 rows, trim 6 head + 6 tail "
          f"-> {len(cuts)} kept")

    lo, hi = band_column_range(cfg.window_len, -0.26, 0.26)
    k = suggested_top_k(cfg.window_len)
    print(f"per-segment finish: min-max normalize, crop Doppler columns "
          f"[{lo}, {hi}], keep top-{k} per row")

    for i, seg in enumerate(cuts):
        out = normalize_and_denoise(seg, top_k=k)
        half = out.values.shape[1] // 2
        neg = out.values[:, :half].sum()
        pos = out.values[:, half:].sum()
        balance = (pos - neg) / (pos + neg)
        nz = np.count_nonzero(out.values, axis=1)
        print(f"  segment {i}: {out.values.shape[0]}x{out.values.shape[1]}, "
              f"{nz.min()}..{nz.max()} survivors/row, "
              f"Doppler balance {balance:+.3f}")


if __name__ == "__main__":
    main()
