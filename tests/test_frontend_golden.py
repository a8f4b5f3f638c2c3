"""Golden digests of the mel frontend, so a rewrite of the short-time
transform can prove it computes the same bytes: preprocess at the library's
default 1024/64/512/256 geometry and at the synthetic benchmark's
256/128/256/32, stft at two lengths and at the edge geometries, and the
scores of a sliding-window scan under a small seeded ensemble."""

import hashlib

import numpy as np
import pytest

from spelaudio.dsp import Signal, StftConfig, frame_count, mel_filterbank, preprocess, stft
from spelaudio.ensemble import Ensemble
from spelaudio.experiment import sliding_window_predict
from spelaudio.learner import LearnerSpec, init_params


def _digest(arr):
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


# name: (geometry, n_mels, sample rate, clip samples)
PREPROCESS_CASES = {
    "default-16k-1s": (StftConfig(1024, 64, 512), 256, 16000, 16000),
    "benchmark-8k-0.3s": (StftConfig(256, 128, 256), 32, 8000, 2400),
}

# preprocess returns float32 images and the digest hashes the dtype: each
# value is _digest(images.astype(np.float32)) of the float64 images the
# frontend returned before it rounded them itself, so the bytes are those
# every store held.
PREPROCESS_GOLDEN = {
    "default-16k-1s": "dedf2d4ada3c4555",
    "benchmark-8k-0.3s": "1d83627297e8208f",
}


@pytest.mark.parametrize("name", sorted(PREPROCESS_CASES))
def test_preprocess_golden(name):
    config, n_mels, rate, target = PREPROCESS_CASES[name]
    fb = mel_filterbank(n_mels, config.n_fft, rate)
    rng = np.random.default_rng(17)
    # One clip of the exact length, one padded, one cropped.
    lengths = (target, target - 3 * config.hop - 5, target + 2 * config.hop + 7)
    images = np.stack(
        [preprocess(Signal(rng.normal(size=n), rate), config, fb, target).values for n in lengths]
    )
    assert _digest(images) == PREPROCESS_GOLDEN[name]


# name: (geometry, samples, frames)
STFT_CASES = {
    "default-1s": (StftConfig(1024, 64, 512), 16000, 243),
    "default-0.5s": (StftConfig(1024, 64, 512), 8000, 118),
    "length-not-a-hop-multiple": (StftConfig(64, 16, 48), 203, 10),
    "hop-equals-window": (StftConfig(64, 32, 32), 200, 6),
    "window-equals-n_fft": (StftConfig(64, 16, 64), 200, 9),
    "single-frame": (StftConfig(64, 16, 48), 63, 1),
}

STFT_GOLDEN = {
    "default-1s": "d888d48cb0ade162",
    "default-0.5s": "e5264a61a5f8f4fb",
    "length-not-a-hop-multiple": "e937d7b31123c3d6",
    "hop-equals-window": "bebbb9da6e1b770a",
    "window-equals-n_fft": "53713f46bd1fbefc",
    "single-frame": "2aa121128b4cb172",
}


@pytest.mark.parametrize("name", list(STFT_CASES))
def test_stft_golden(name):
    config, n, frames = STFT_CASES[name]
    x = np.random.default_rng(n).normal(size=n)
    spectrum = stft(Signal(x, 16000), config)
    assert spectrum.shape[0] == frame_count(n, config) == frames
    assert _digest(spectrum) == STFT_GOLDEN[name]


SCAN_GOLDEN = "db50d7468298a5cb"


def test_sliding_window_scores_golden():
    config = StftConfig(1024, 64, 512)
    fb = mel_filterbank(256, config.n_fft, 16000)
    shape = (frame_count(16000, config), 256)
    ensemble = Ensemble(
        (
            init_params(LearnerSpec(shape, 4, hidden_layers=(16,), conv_stem=((4, 8, 8),)), 3),
            init_params(LearnerSpec(shape, 4, hidden_layers=(8,)), 4),
        )
    )
    t = np.arange(48000) / 16000
    rng = np.random.default_rng(23)
    recording = Signal(np.sin(2 * np.pi * 700 * t) + rng.normal(0, 0.3, size=t.size), 16000)
    scores = sliding_window_predict(ensemble, recording, 1.0, 0.5, config, fb)
    assert _digest(scores) == SCAN_GOLDEN
