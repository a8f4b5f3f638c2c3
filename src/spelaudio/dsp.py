"""Waveform to normalized mel-spectrogram frontend.

Pipeline: fix the clip length, short-time Fourier transform, squared
magnitude, projection onto triangular mel filters, decibel scaling, and
min-max normalization onto [-1, 1]. The chain computes in float64; its
last step rounds the image once to IMAGE_DTYPE, the dtype every image
store holds. Everything here is a pure function of its inputs, so the
whole chain is deterministic and thread-safe.

The transform's clip-independent constants (the Hann window and the
absolute-time phase rotation) depend only on the geometry and the frame
count, so they are computed once per geometry and reused. The cache holds
one geometry: one rotation, the size of one spectrum.

Mel filters are banded (1,019 of 131,328 weights are non-zero at the default
1024/256 geometry), so a MelFilterbank projects each block of consecutive
filters onto only the bins that block covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "Signal",
    "StftConfig",
    "MelFilterbank",
    "MelImage",
    "IMAGE_DTYPE",
    "fix_length",
    "frame_count",
    "stft",
    "power_to_db",
    "hz_to_mel",
    "mel_to_hz",
    "mel_filterbank",
    "normalize_minmax",
    "preprocess",
]

# Consecutive filters projected together. At the default 1024/256 geometry the
# 16 blocks span 541 bins in all: 8,656 weights multiplied, not 131,328.
_BLOCK_MELS = 16
# power_to_db floors power at DB_EPS, then dB at TOP_DB below the image's peak.
DB_EPS, TOP_DB = 1e-10, 80.0
# The dtype of the images preprocess returns and every store holds.
IMAGE_DTYPE = np.float32


@dataclass(frozen=True)
class Signal:
    """A finite discrete-time waveform with its sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if samples.ndim != 1 or samples.size < 1:
            raise ValueError("signal needs at least one sample in a 1-D array")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal contains non-finite samples")
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class StftConfig:
    """Short-time transform geometry: transform length, hop, window length.

    The window kind is fixed to a periodic Hann window; n_fft must be a
    power of two so the transform stays fast.
    """

    n_fft: int = 1024
    hop: int = 64
    win_length: int = 512

    def __post_init__(self):
        if self.n_fft < 1 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise ValueError(f"n_fft must be a positive power of two, got {self.n_fft}")
        if not (1 <= self.hop <= self.win_length <= self.n_fft):
            raise ValueError(
                f"need 1 <= hop <= win_length <= n_fft, got hop={self.hop}, "
                f"win_length={self.win_length}, n_fft={self.n_fft}"
            )

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters as a (n_mels, n_fft//2 + 1) weight matrix, with
    the sample rate their bin frequencies assume. The weights' shape is the
    one record of n_mels and of the transform's bin count.

    The weights are a read-only copy. Each block of _BLOCK_MELS filters keeps
    the bin range its non-zero weights span and a contiguous copy of the
    weights in it. The range holds every non-zero weight, so project() equals
    the dense product up to summation order for any valid weights; weights
    that are not banded only make it slower.
    """

    weights: np.ndarray
    sample_rate: int
    _blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        if np.any(weights < 0):
            raise ValueError("filter weights must be non-negative")
        if np.any(weights.max(axis=1) == 0):
            raise ValueError("every filter must have at least one nonzero weight")
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        blocks = []
        for start in range(0, len(weights), _BLOCK_MELS):
            rows = weights[start : start + _BLOCK_MELS]
            nonzero = np.flatnonzero(rows.any(axis=0))
            lo, hi = int(nonzero[0]), int(nonzero[-1]) + 1
            band = np.ascontiguousarray(rows[:, lo:hi].T)
            blocks.append((slice(start, start + rows.shape[0]), slice(lo, hi), band))
        object.__setattr__(self, "_blocks", tuple(blocks))

    @property
    def n_mels(self) -> int:
        return self.weights.shape[0]

    def project(self, power: np.ndarray) -> np.ndarray:
        """(frames, n_fft//2 + 1) power to (frames, n_mels) mel power: power @
        weights.T, computed one block of filters at a time over its band."""
        mel = np.empty((power.shape[0], self.n_mels))
        for filters, bins, band in self._blocks:
            np.matmul(power[:, bins], band, out=mel[:, filters])
        return mel

    def check_input(self, sample_rate: int, n_fft: int) -> None:
        """Raise ValueError unless audio at sample_rate, transformed at n_fft,
        has the bins these filters were laid out for."""
        if sample_rate != self.sample_rate:
            raise ValueError(
                f"signal sample rate {sample_rate} Hz differs from the filterbank's "
                f"{self.sample_rate} Hz"
            )
        if n_fft // 2 + 1 != self.weights.shape[1]:
            raise ValueError(
                f"n_fft {n_fft} differs from the filterbank's: it gives {n_fft // 2 + 1} bins, "
                f"the weights have {self.weights.shape[1]}"
            )


@dataclass(frozen=True)
class MelImage:
    """Normalized (frames, n_mels) IMAGE_DTYPE matrix in [-1, 1], as
    preprocess makes it: normalize_minmax refuses non-finite dB and maps the
    rest into [-1, 1], rounding once to IMAGE_DTYPE."""

    values: np.ndarray


def fix_length(signal: Signal, target_samples: int) -> Signal:
    """Right-pad with zeros or center-crop so the clip has exactly target_samples.

    When cropping an odd surplus, the extra sample comes off the end.
    """
    if target_samples < 1:
        raise ValueError("target_samples must be positive")
    x = signal.samples
    n = x.size
    if n == target_samples:
        return signal
    if n < target_samples:
        out = np.zeros(target_samples, dtype=np.float64)
        out[:n] = x
    else:
        start = (n - target_samples) // 2
        out = x[start : start + target_samples].copy()
    return Signal(out, signal.sample_rate)


def frame_count(n_samples: int, config: StftConfig) -> int:
    """Number of analysis frames fully inside a signal of n_samples samples."""
    if n_samples < config.win_length:
        raise ValueError(
            f"signal of {n_samples} samples is shorter than the {config.win_length}-sample window"
        )
    return (n_samples - config.win_length) // config.hop + 1


def _hann_periodic(length: int) -> np.ndarray:
    # Periodic form: denominator is the window length, not length - 1.
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(length) / length))


@lru_cache(maxsize=1)
def _frame_constants(n_frames: int, config: StftConfig) -> tuple[np.ndarray, np.ndarray]:
    """The window and the (frames, bins) phase rotation of one geometry, read-only."""
    window = _hann_periodic(config.win_length)
    starts = config.hop * np.arange(n_frames)
    bins = np.arange(config.n_bins)
    rotation = np.exp(-2j * np.pi * np.outer(starts, bins) / config.n_fft)
    window.flags.writeable = False
    rotation.flags.writeable = False
    return window, rotation


def stft(signal: Signal, config: StftConfig) -> np.ndarray:
    """Short-time Fourier transform with an absolute-time phase reference.

    Frame m covers samples [m*hop, m*hop + win_length); the windowed frame
    is zero-padded to n_fft and transformed. The phase exponential runs over
    absolute sample indices, so frame m's rfft output is rotated by
    exp(-2j*pi*k*m*hop/n_fft). Only the n_fft//2 + 1 non-negative-frequency
    bins are kept (the input is real), so the result is a complex
    (frames, n_fft//2 + 1) array. The window and the rotation are
    computed once per geometry and frame count; the cache holds one
    rotation, so alternating geometries recompute it.
    """
    x = signal.samples
    n_frames = frame_count(x.size, config)
    window, rotation = _frame_constants(n_frames, config)
    frames = sliding_window_view(x, config.win_length)[:: config.hop] * window
    spec = np.fft.rfft(frames, n=config.n_fft, axis=1)
    spec *= rotation
    return spec


def power_to_db(power: np.ndarray) -> np.ndarray:
    """10*log10(max(power, DB_EPS)), then floored at (global max - TOP_DB) dB."""
    p = np.asarray(power, dtype=np.float64)
    if p.size == 0:
        raise ValueError("power matrix is empty")
    if np.any(p < 0):
        raise ValueError("power entries must be non-negative")
    db = 10.0 * np.log10(np.maximum(p, DB_EPS))
    return np.maximum(db, db.max() - TOP_DB)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    n_mels: int,
    n_fft: int,
    sample_rate: int,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> MelFilterbank:
    """Triangular filters with centers equally spaced on the mel axis.

    Each filter is peak-normalized to 1. Filters whose triangle is narrower
    than one FFT bin (dense filterbanks at low frequencies) would otherwise
    sample to all zeros; those get their full weight at the bin nearest the
    center frequency.
    """
    if n_mels < 1:
        raise ValueError("n_mels must be >= 1")
    nyquist = sample_rate / 2.0
    top = f"fmax={fmax}" if fmax is not None else f"the Nyquist frequency {nyquist}"
    fmax = nyquist if fmax is None else fmax
    if fmax > nyquist:
        raise ValueError(f"fmax={fmax} exceeds the Nyquist frequency {nyquist}")
    if not 0 <= fmin < fmax:
        raise ValueError(f"need 0 <= fmin < {top}, got fmin={fmin}")

    n_bins = n_fft // 2 + 1
    bin_hz = np.arange(n_bins) * (sample_rate / n_fft)
    points = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    lo, center, hi = points[:-2], points[1:-1], points[2:]

    rising = (bin_hz[None, :] - lo[:, None]) / (center - lo)[:, None]
    falling = (hi[:, None] - bin_hz[None, :]) / (hi - center)[:, None]
    weights = np.clip(np.minimum(rising, falling), 0.0, None)

    empty = weights.max(axis=1) == 0.0
    if np.any(empty):
        nearest = np.clip(
            np.rint(center[empty] / (sample_rate / n_fft)).astype(int), 0, n_bins - 1
        )
        weights[np.nonzero(empty)[0], nearest] = 1.0
    weights /= weights.max(axis=1, keepdims=True)

    return MelFilterbank(weights, sample_rate)


def normalize_minmax(matrix: np.ndarray) -> np.ndarray:
    """Affinely map [min, max] onto [-1, 1] in float64, rounded once to an
    IMAGE_DTYPE array as the last subtraction writes it; a constant matrix
    maps to zeros."""
    m = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    lo = m.min()
    hi = m.max()
    if hi == lo:
        return np.zeros(m.shape, IMAGE_DTYPE)
    out = np.empty(m.shape, IMAGE_DTYPE)
    return np.subtract(2.0 * (m - lo) / (hi - lo), 1.0, out=out, casting="same_kind")


def preprocess(
    signal: Signal,
    config: StftConfig,
    fb: MelFilterbank,
    target_samples: int,
) -> MelImage:
    """Full frontend: fixed-length clip to normalized mel image of shape
    (L, n_mels), computed in float64 and rounded once to IMAGE_DTYPE, so
    its values are exactly the row a store holds.

    Raises ValueError when the signal's rate or the config's bin count
    differs from the filterbank's, and when the power overflows (Signal
    checked the samples finite; normalize_minmax refuses non-finite dB).
    """
    fb.check_input(signal.sample_rate, config.n_fft)
    clip = fix_length(signal, target_samples)
    power = np.abs(stft(clip, config))
    power *= power
    return MelImage(normalize_minmax(power_to_db(fb.project(power))))
