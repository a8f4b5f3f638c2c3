"""Synthetic tone-classification data with a source/target domain gap.

Each class is a harmonic tone at its own base frequency; target-domain
clips shift every class frequency by a fixed offset and carry heavier
additive noise. This exercises the full audio frontend and produces a
genuine adaptation gap between the domains. Ground truth for the
unlabeled target pool is returned separately so the training path never
sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Signal, StftConfig, frame_count, mel_filterbank, preprocess
from .engine import LabeledSet, UnlabeledSet
from .metrics import TASK_METRICS

__all__ = ["SyntheticSpec", "SyntheticBundle", "gen_synthetic"]

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
    duration: float = 0.3
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


@dataclass(frozen=True)
class SyntheticBundle:
    """Generated splits. unlabeled_truth and test_truth exist for evaluation
    only; the unlabeled set itself carries no labels."""

    source: LabeledSet
    validation: LabeledSet | None
    unlabeled: UnlabeledSet
    unlabeled_truth: np.ndarray
    test_inputs: np.ndarray
    test_truth: np.ndarray


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


def _render_split(rng, spec, stft_config, fb, n, domain):
    if spec.task == "multiclass":
        targets = _balanced_classes(rng, n, spec.n_classes)
        actives = [[c] for c in targets]
    else:
        targets = _multilabel_targets(rng, n, spec)
        actives = [np.nonzero(row)[0] for row in targets]
    shape = (n, frame_count(spec.clip_samples, stft_config), fb.n_mels)
    images = np.empty(shape, dtype=np.float64)
    for i in range(n):
        clip = Signal(_tone(rng, spec, actives[i], domain), spec.sample_rate)
        images[i] = preprocess(clip, stft_config, fb, spec.clip_samples).values
    return images, targets


def gen_synthetic(
    spec: SyntheticSpec,
    stft_config: StftConfig,
    n_mels: int,
    seed: int,
    fmin: float = 0.0,
    fmax: float | None = None,
) -> SyntheticBundle:
    """Deterministically generate all splits as preprocessed mel images."""
    if spec.clip_samples < stft_config.win_length:
        raise ValueError("clip shorter than the analysis window")
    rng = np.random.default_rng(seed)
    fb = mel_filterbank(n_mels, stft_config.n_fft, spec.sample_rate, fmin, fmax)

    src_x, src_y = _render_split(rng, spec, stft_config, fb, spec.n_source, "source")
    validation = None
    if spec.n_val > 0:
        val_x, val_y = _render_split(rng, spec, stft_config, fb, spec.n_val, spec.val_domain)
        validation = LabeledSet(inputs=val_x, targets=val_y)
    unl_x, unl_y = _render_split(rng, spec, stft_config, fb, spec.n_unlabeled, "target")
    test_x, test_y = _render_split(rng, spec, stft_config, fb, spec.n_test, "target")

    return SyntheticBundle(
        source=LabeledSet(inputs=src_x, targets=src_y),
        validation=validation,
        unlabeled=UnlabeledSet(inputs=unl_x, ids=np.arange(spec.n_unlabeled)),
        unlabeled_truth=unl_y,
        test_inputs=test_x,
        test_truth=test_y,
    )
