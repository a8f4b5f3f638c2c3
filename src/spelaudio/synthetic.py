"""Synthetic tone-classification data with a source/target domain gap.

Each class is a harmonic tone at its own base frequency; target-domain
clips shift every class frequency by a fixed offset and carry heavier
additive noise. This exercises the full audio frontend and produces a
genuine adaptation gap between the domains. ``gen_synthetic`` returns
the splits as one ``ExperimentData``, the type the WAV-directory source
builds too; the unlabeled pool's ground truth rides in its
``unlabeled_truth`` field, beside the pool rather than in it, so the
training path never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Signal, StftConfig, frame_count, mel_filterbank, preprocess
from .engine import ExperimentData
from .metrics import TASK_METRICS

__all__ = ["SyntheticSpec", "gen_synthetic"]

DOMAINS = ("source", "target")


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 6
    n_source: int = 1200
    n_val: int = 300
    n_unlabeled: int = 600
    n_test: int = 600
    base_freq: float = 400.0
    freq_step: float = 180.0
    freq_jitter: float = 0.0
    n_harmonics: int = 2
    source_noise: float = 0.05
    target_freq_offset: float = 60.0
    target_noise: float = 0.30
    amp_min: float = 0.85
    amp_max: float = 1.0
    sample_rate: int = 8000
    duration: float = 4.0
    task: str = "multiclass"
    label_density: float = 0.3
    val_domain: str = "target"

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if min(self.n_source, self.n_unlabeled, self.n_test) < 1 or self.n_val < 0:
            raise ValueError("split sizes must be positive (validation may be 0)")
        if self.freq_step <= 0 or self.base_freq <= 0:
            raise ValueError("class frequencies must be distinct and positive")
        if self.source_noise < 0 or self.target_noise < 0:
            raise ValueError("noise levels must be >= 0")
        if self.freq_jitter < 0:
            raise ValueError("freq_jitter must be >= 0")
        if not 0 < self.amp_min <= self.amp_max:
            raise ValueError("need 0 < amp_min <= amp_max")
        if self.n_harmonics < 1:
            raise ValueError("need at least the fundamental")
        if self.task not in TASK_METRICS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.val_domain not in DOMAINS:
            raise ValueError(f"val_domain must be source or target, got {self.val_domain!r}")
        if not 0 < self.label_density <= 1:
            raise ValueError("label_density must lie in (0, 1]")
        top = (self.base_freq + (self.n_classes - 1) * self.freq_step
               + max(self.target_freq_offset, 0.0)) * self.n_harmonics
        if top >= self.sample_rate / 2:
            raise ValueError(
                f"highest harmonic {top:.0f} Hz reaches the Nyquist frequency"
            )
        if round(self.duration * self.sample_rate) < 1:
            raise ValueError("duration too short for one sample")

    @property
    def clip_samples(self) -> int:
        return int(round(self.duration * self.sample_rate))

    def class_frequency(self, c: int, domain: str) -> float:
        f = self.base_freq + c * self.freq_step
        if domain == "target":
            f += self.target_freq_offset
        return f


def _tone(rng, spec: SyntheticSpec, classes, domain: str) -> np.ndarray:
    n = spec.clip_samples
    t = np.arange(n) / spec.sample_rate
    x = np.zeros(n)
    for c in classes:
        f = spec.class_frequency(c, domain)
        if spec.freq_jitter > 0:
            # Bounded per-clip spread around the class center: intra-class
            # variability without unbounded tails (a clip can never land on a
            # neighboring class's center). Clamped below Nyquist per harmonic.
            f = f + rng.uniform(-spec.freq_jitter, spec.freq_jitter)
            f = min(max(f, 1.0), (spec.sample_rate / 2.0 - 1.0) / spec.n_harmonics)
        for h in range(1, spec.n_harmonics + 1):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x += np.sin(2.0 * np.pi * h * f * t + phase) / h
    x *= rng.uniform(spec.amp_min, spec.amp_max) / max(np.abs(x).max(), 1e-12)
    noise = spec.source_noise if domain == "source" else spec.target_noise
    if noise > 0:
        x = x + rng.normal(0.0, noise, size=n)
    return x


def _balanced_classes(rng, n: int, n_classes: int) -> np.ndarray:
    labels = np.resize(np.arange(n_classes), n)
    rng.shuffle(labels)
    return labels


def _multilabel_targets(rng, n: int, spec: SyntheticSpec) -> np.ndarray:
    targets = (rng.uniform(size=(n, spec.n_classes)) < spec.label_density).astype(np.int64)
    for row in np.nonzero(targets.sum(axis=1) == 0)[0]:
        targets[row, rng.integers(0, spec.n_classes)] = 1
    return targets


def _render_split(rng, spec, stft_config, fb, images, domain):
    """Draw a split's targets, then render its clips' images into images."""
    n = len(images)
    if spec.task == "multiclass":
        targets = _balanced_classes(rng, n, spec.n_classes)
        actives = [[c] for c in targets]
    else:
        targets = _multilabel_targets(rng, n, spec)
        actives = [np.nonzero(row)[0] for row in targets]
    for i in range(n):
        clip = Signal(_tone(rng, spec, actives[i], domain), spec.sample_rate)
        images[i] = preprocess(clip, stft_config, fb, spec.clip_samples).values
    return targets


def gen_synthetic(
    spec: SyntheticSpec,
    stft_config: StftConfig,
    n_mels: int,
    seed: int,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> ExperimentData:
    """Deterministically generate all splits as preprocessed mel images,
    rendered in the order source, validation, unlabeled, test into one
    float32 store; each image is computed in float64 and rounded once."""
    rng = np.random.default_rng(seed)
    fb = mel_filterbank(n_mels, stft_config.n_fft, spec.sample_rate, fmin, fmax)
    sizes = (spec.n_source, spec.n_val, spec.n_unlabeled, spec.n_test)
    shape = (sum(sizes), frame_count(spec.clip_samples, stft_config), fb.n_mels)
    images = np.empty(shape, dtype=np.float32)
    src, val, unl, test = np.split(images, np.cumsum(sizes)[:-1])

    src_y = _render_split(rng, spec, stft_config, fb, src, "source")
    val_y = _render_split(rng, spec, stft_config, fb, val, spec.val_domain) if spec.n_val else None
    unl_y = _render_split(rng, spec, stft_config, fb, unl, "target")
    test_y = _render_split(rng, spec, stft_config, fb, test, "target")
    return ExperimentData.from_store(
        images, src_y, val_y, spec.n_unlabeled, test_y, spec.n_classes, unlabeled_truth=unl_y
    )
