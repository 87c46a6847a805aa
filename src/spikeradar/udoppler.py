"""FMCW radar processing chain from raw ADC cubes to normalized uDoppler maps.

The chain: per-chirp Blackman-windowed range DFT, slow-time first differencing
at the gesture range bin (DC removal), Hanning-window STFT over slow time,
cutting into fixed-length segments, then per-segment min-max normalization,
Doppler band-limiting, and per-row top-k denoising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput


@dataclass(frozen=True)
class RadarCube:
    """Raw slow-time by fast-time ADC samples.

    Attributes:
        samples: 2-D real array, one row per chirp (n = 1..N_tot), columns are
            fast-time samples within the chirp.
        n_chirps_per_frame: chirps per frame (192 for the 8-GHz sensor).
        n_frames: number of frames in the acquisition.
    """

    samples: np.ndarray
    n_chirps_per_frame: int = 192
    n_frames: int = 1

    def __post_init__(self):
        samples = np.asarray(self.samples)
        # real ADC data or complex IQ baseband, both in double precision
        target = np.complex128 if np.iscomplexobj(samples) else np.float64
        samples = samples.astype(target)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 2 or samples.size == 0:
            raise InvalidInput("radar cube must be a non-empty 2-D array")
        if self.n_chirps_per_frame < 1 or self.n_frames < 1:
            raise InvalidInput("n_chirps_per_frame and n_frames must be >= 1")
        if samples.shape[0] != self.n_frames * self.n_chirps_per_frame:
            raise InvalidInput(
                f"cube has {samples.shape[0]} chirps, expected "
                f"n_frames * n_chirps_per_frame = "
                f"{self.n_frames * self.n_chirps_per_frame}"
            )
        if not np.isfinite(samples).all():
            raise InvalidInput("radar cube contains non-finite samples")


@dataclass(frozen=True)
class RangeProfileSequence:
    """Complex range profiles R_n[k], one row per chirp.

    gesture_bin is the range bin k* the gesture occupies; it is normally known
    a priori from the measurement geometry (fixed target distance).
    """

    profiles: np.ndarray
    gesture_bin: int

    def __post_init__(self):
        profiles = np.asarray(self.profiles)
        if profiles.ndim != 2 or profiles.size == 0:
            raise InvalidInput("range profiles must be a non-empty 2-D array")
        object.__setattr__(self, "profiles", profiles)
        if not (0 <= self.gesture_bin < profiles.shape[1]):
            raise InvalidInput(
                f"gesture_bin {self.gesture_bin} outside range-bin axis "
                f"[0, {profiles.shape[1]})"
            )


@dataclass(frozen=True)
class StftConfig:
    """Short-time Fourier transform geometry: window length s and hop R."""

    window_len: int = 192
    hop: int = 8

    def __post_init__(self):
        if not (1 <= self.hop <= self.window_len):
            raise InvalidInput(
                f"hop must satisfy 1 <= hop <= window_len, got "
                f"hop={self.hop}, window_len={self.window_len}"
            )

    @property
    def n_overlap(self) -> int:
        return self.window_len - self.hop


@dataclass(frozen=True)
class MicroDopplerMap:
    """Time-by-Doppler magnitude map.

    The Doppler axis is zero-centered: column j holds normalized frequency
    (j - s/2) / s for an s-bin axis, covering [-0.5, 0.5).
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise InvalidInput("uDoppler map must be 2-D (time x Doppler)")
        if not np.isfinite(values).all():
            raise InvalidInput("uDoppler map contains non-finite values")
        if self.normalized and values.size and (
            values.min() < 0.0 or values.max() > 1.0
        ):
            raise InvalidInput("normalized map has values outside [0, 1]")

    @property
    def time_len(self) -> int:
        return self.values.shape[0]


def default_fft_len(n_fast: int) -> int:
    """Next power of two >= the fast-time sample count."""
    return 1 << max(0, (n_fast - 1).bit_length())


def compute_range_profiles(
    cube: RadarCube,
    fft_len: int | None = None,
    gesture_bin: int | None = None,
) -> RangeProfileSequence:
    """DFT each chirp's fast-time samples into a range profile.

    Each chirp is multiplied by a Blackman window (0.42, 0.5, 0.08
    coefficients), zero-padded to fft_len, and DFT'd.

    Args:
        cube: input acquisition.
        fft_len: DFT length; defaults to the next power of two >= the
            fast-time sample count. Must be >= that count.
        gesture_bin: range bin the gesture occupies. When None, the
            max-energy bin is picked automatically; that auto-pick is an
            auxiliary convenience, not part of the measurement protocol,
            which fixes the bin from the known target distance.

    Returns:
        RangeProfileSequence with one row per chirp.
    """
    n_fast = cube.samples.shape[1]
    if fft_len is None:
        fft_len = default_fft_len(n_fast)
    if fft_len < n_fast:
        raise InvalidInput(
            f"fft_len {fft_len} shorter than fast-time sample count {n_fast}"
        )
    profiles = np.fft.fft(cube.samples * np.blackman(n_fast), n=fft_len, axis=1)
    if gesture_bin is None:
        # the DFT of real samples puts the same energy in bin k and its mirror
        # fft_len - k in exact arithmetic, and rounding would pick between
        # them; searching bins 0..fft_len//2 only lets the lower bin win
        searched = profiles[:, : fft_len // 2 + 1] if np.isrealobj(cube.samples) else profiles
        gesture_bin = pick_gesture_bin(searched)
    return RangeProfileSequence(profiles=profiles, gesture_bin=gesture_bin)


def pick_gesture_bin(profiles: np.ndarray) -> int:
    """Max-energy range bin: argmax_k of sum_n |R_n[k]|^2 (first index wins).

    Takes a (chirp x bin) complex array. Auxiliary helper: in a measurement
    the gesture bin is usually known from the geometry instead of estimated.
    """
    energy = np.sum(np.abs(profiles) ** 2, axis=0)
    return int(np.argmax(energy))


def dc_removed_sequence(profiles: RangeProfileSequence) -> np.ndarray:
    """Slow-time first difference at the gesture bin.

    Returns R_n[k*] - R_{n-1}[k*] for n = 2..N_tot, length N_tot - 1. Kills
    the static (DC) clutter return, keeping only moving scatterers.
    """
    col = profiles.profiles[:, profiles.gesture_bin]
    if col.shape[0] < 2:
        raise InvalidInput("DC removal needs at least 2 chirps")
    return np.diff(col)


def count_stft_frames(total_chirps: int, cfg: StftConfig) -> int:
    """Number of fully contained STFT windows: floor((N - (s - R)) / R)."""
    if total_chirps < cfg.window_len:
        raise InvalidInput(
            f"sequence length {total_chirps} shorter than window "
            f"{cfg.window_len}"
        )
    return (total_chirps - cfg.n_overlap) // cfg.hop


def stft_magnitude(seq: np.ndarray, cfg: StftConfig) -> MicroDopplerMap:
    """Hanning-window STFT magnitude over slow time.

    Emits one row per fully contained window (starts 0, R, 2R, ...; no
    zero-padded partial windows). Each row is |FFT(g_s * segment)| with the
    Doppler axis rearranged zero-centered (fftshift layout).
    """
    seq = np.asarray(seq).ravel()
    n_rows = count_stft_frames(seq.shape[0], cfg)
    s = cfg.window_len
    starts = np.arange(n_rows) * cfg.hop
    segments = seq[starts[:, None] + np.arange(s)[None, :]]
    g = np.hanning(s)
    spectra = np.fft.fftshift(np.fft.fft(segments * g, axis=1), axes=1)
    return MicroDopplerMap(values=np.abs(spectra), normalized=False)


def band_column_range(window_len: int, low: float, high: float) -> tuple[int, int]:
    """Inclusive column index range [j_lo, j_hi] for a frequency band.

    Band edges map to columns by flooring: j_lo = floor((low + 1/2) * s),
    j_hi = floor((high + 1/2) * s), clamped to the axis. For the default
    band [-0.26, 0.26] on 192 bins this keeps columns 46..145, i.e. 100
    columns.
    """
    if not (-0.5 <= low < high <= 0.5):
        raise InvalidInput(
            f"band must satisfy -0.5 <= low < high <= 0.5, got {low} {high}"
        )
    j_lo = int(math.floor((low + 0.5) * window_len))
    j_hi = int(math.floor((high + 0.5) * window_len))
    j_lo = max(0, min(j_lo, window_len - 1))
    j_hi = max(0, min(j_hi, window_len - 1))
    return j_lo, j_hi


def suggested_top_k(window_len: int, low: float = -0.26, high: float = 0.26) -> int:
    """Denoising k for a band: floor(s * (high - low) / 2) - 1.

    Defaults reproduce k = floor(192 * 0.52 / 2) - 1 = 48.
    """
    return int(math.floor(window_len * (high - low) / 2)) - 1


def cut_maps(
    m: MicroDopplerMap, segment_len: int = 48, head_tail_trim: int = 6
) -> list[MicroDopplerMap]:
    """Cut a pre-cut map into fixed-length time segments.

    Splits into floor(time_len / segment_len) non-overlapping segments
    (remainder rows dropped), then removes the first and last
    head_tail_trim segments, which carry acquisition start/stop artefacts.
    May return an empty list.
    """
    if segment_len < 1:
        raise InvalidInput("segment_len must be >= 1")
    if head_tail_trim < 0:
        raise InvalidInput("head_tail_trim must be >= 0")
    n_segments = m.time_len // segment_len
    segments = [
        MicroDopplerMap(
            values=m.values[i * segment_len : (i + 1) * segment_len],
            normalized=m.normalized,
        )
        for i in range(n_segments)
    ]
    return segments[head_tail_trim : n_segments - head_tail_trim]


def keep_top_k_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Per row, keep the k largest values and zero the rest.

    Ties are broken toward the lower column index (stable selection), so the
    result is deterministic.
    """
    out = np.zeros_like(values)
    n = values.shape[1]
    if k <= 0:
        return out
    if k >= n:
        np.copyto(out, values)
        return out
    # Keep every value above the row's k-th largest, then the values equal
    # to it from the lowest column up, until the row holds k.
    kth = np.partition(values, n - k, axis=1)[:, n - k : n - k + 1]
    above, ties = values > kth, values == kth
    room = k - above.sum(axis=1, keepdims=True)
    keep = above | (ties & (np.cumsum(ties, axis=1) <= room))
    np.copyto(out, values, where=keep)
    return out


def _check_band_and_top_k(window_len: int, band: tuple, top_k: int) -> tuple[int, int]:
    """Band columns [j_lo, j_hi] of an s-bin Doppler axis, after checking
    that top_k lies in [1, retained bins]."""
    j_lo, j_hi = band_column_range(window_len, band[0], band[1])
    n_retained = j_hi - j_lo + 1
    if not 1 <= top_k <= n_retained:
        raise InvalidInput(
            f"top_k must be in [1, {n_retained}] (the retained Doppler bins), "
            f"got {top_k}"
        )
    return j_lo, j_hi


def normalize_and_denoise(
    m: MicroDopplerMap,
    band: tuple[float, float] = (-0.26, 0.26),
    top_k: int = 48,
) -> MicroDopplerMap:
    """Min-max normalize a segment, band-limit Doppler, keep top-k per row.

    Steps, in order: (a) min-max normalize the whole segment to [0, 1];
    (b) keep only Doppler columns inside the band (see band_column_range);
    (c) per time row, keep the top_k largest values and zero the rest.

    A constant segment (max == min) yields an all-zeros map rather than a
    0/0 error.
    """
    if m.normalized:
        raise InvalidInput("map is already normalized")
    j_lo, j_hi = _check_band_and_top_k(m.values.shape[1], band, top_k)
    vmin = m.values.min()
    vmax = m.values.max()
    if vmax == vmin:
        return MicroDopplerMap(
            values=np.zeros((m.time_len, j_hi - j_lo + 1)), normalized=True
        )
    norm = (m.values - vmin) / (vmax - vmin)
    banded = norm[:, j_lo : j_hi + 1]
    return MicroDopplerMap(values=keep_top_k_rows(banded, top_k), normalized=True)


def process_cube(
    cube: RadarCube,
    cfg: StftConfig | None = None,
    gesture_bin: int | None = None,
    fft_len: int | None = None,
    band: tuple[float, float] = (-0.26, 0.26),
    top_k: int = 48,
    segment_len: int = 48,
    head_tail_trim: int = 6,
) -> list[MicroDopplerMap]:
    """Full chain: range DFT -> DC removal -> STFT -> cut -> normalize/denoise.

    Returns the list of normalized segment maps (possibly empty for short
    acquisitions). Deterministic: identical cube + config give bit-identical
    maps.
    """
    cfg = cfg or StftConfig()
    _check_band_and_top_k(cfg.window_len, band, top_k)
    profiles = compute_range_profiles(cube, fft_len=fft_len, gesture_bin=gesture_bin)
    seq = dc_removed_sequence(profiles)
    full_map = stft_magnitude(seq, cfg)
    segments = cut_maps(full_map, segment_len=segment_len, head_tail_trim=head_tail_trim)
    return [normalize_and_denoise(seg, band=band, top_k=top_k) for seg in segments]
