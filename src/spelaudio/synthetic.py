"""Synthetic tone-classification data with a source/target domain gap.

Each class is a harmonic tone at its own base frequency; target-domain
clips shift every class frequency by a fixed offset and carry heavier
additive noise. This exercises the full audio frontend and produces a
genuine adaptation gap between the domains. ``gen_synthetic`` returns
the splits as one ``ExperimentData``, built, as the WAV-directory source
builds it, from the store and each split's targets; the unlabeled pool's
ground truth rides in its ``unlabeled_truth`` field, beside the pool
rather than in it, so the training path never sees it.

Each clip's random draws (``_draw_tone``) are kept apart from its
synthesis (``_synthesize``), so that a process rendering a block of the
store can replay the one generator's draws up to its block without
synthesizing the clips before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import Signal, StftConfig, frame_count, mel_filterbank, preprocess
from .engine import ExperimentData, fill_store
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


def _draw_tone(rng, spec: SyntheticSpec, classes, domain: str):
    """One clip's draws, in the generator's order: each active class's
    frequency and harmonic phases, then the amplitude and the noise."""
    tones = []
    for c in classes:
        f = spec.class_frequency(c, domain)
        if spec.freq_jitter > 0:
            # Bounded per-clip spread around the class center: intra-class
            # variability without unbounded tails (a clip can never land on a
            # neighboring class's center). Clamped below Nyquist per harmonic.
            f = f + rng.uniform(-spec.freq_jitter, spec.freq_jitter)
            f = min(max(f, 1.0), (spec.sample_rate / 2.0 - 1.0) / spec.n_harmonics)
        tones.append((f, [rng.uniform(0.0, 2.0 * np.pi) for _ in range(spec.n_harmonics)]))
    amplitude = rng.uniform(spec.amp_min, spec.amp_max)
    noise = spec.source_noise if domain == "source" else spec.target_noise
    return tones, amplitude, rng.normal(0.0, noise, size=spec.clip_samples) if noise > 0 else None


def _synthesize(spec: SyntheticSpec, draws) -> np.ndarray:
    """The clip that _draw_tone's draws make."""
    tones, amplitude, noise = draws
    t = np.arange(spec.clip_samples) / spec.sample_rate
    x = np.zeros(spec.clip_samples)
    for f, phases in tones:
        for h, phase in enumerate(phases, 1):
            x += np.sin(2.0 * np.pi * h * f * t + phase) / h
    x *= amplitude / max(np.abs(x).max(), 1e-12)
    return x if noise is None else x + noise


def _balanced_classes(rng, n: int, n_classes: int) -> np.ndarray:
    labels = np.resize(np.arange(n_classes), n)
    rng.shuffle(labels)
    return labels


def _multilabel_targets(rng, n: int, spec: SyntheticSpec) -> np.ndarray:
    targets = (rng.uniform(size=(n, spec.n_classes)) < spec.label_density).astype(np.int64)
    for row in np.nonzero(targets.sum(axis=1) == 0)[0]:
        targets[row, rng.integers(0, spec.n_classes)] = 1
    return targets


def _draws(rng, spec: SyntheticSpec, splits, targets):
    """Every clip's draws, in store order. Each split of splits, (size,
    domain) pairs, draws its targets before its clips and appends them to
    targets; an empty split draws nothing and appends None."""
    for n, domain in splits:
        if n == 0:
            targets.append(None)
            continue
        if spec.task == "multiclass":
            split_targets = _balanced_classes(rng, n, spec.n_classes)
            actives = [[c] for c in split_targets]
        else:
            split_targets = _multilabel_targets(rng, n, spec)
            actives = [np.nonzero(row)[0] for row in split_targets]
        targets.append(split_targets)
        for active in actives:
            yield _draw_tone(rng, spec, active, domain)


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
    store of the float32 images preprocess returns.

    The store is filled in contiguous blocks of rows, one process each
    (``engine.fill_store``). Every clip draws from one generator in store
    order, so each block's process first makes, and drops, the draws of
    every clip before its block; the first block's, this process, draws on
    to the end for every split's targets.
    """
    fb = mel_filterbank(n_mels, stft_config.n_fft, spec.sample_rate, fmin, fmax)
    splits = ((spec.n_source, "source"), (spec.n_val, spec.val_domain),
              (spec.n_unlabeled, "target"), (spec.n_test, "target"))
    targets = []  # each split's, as the first block draws them

    def render(store, rows):
        draws = _draws(np.random.default_rng(seed), spec, splits, targets)
        for row, tone in zip(range(rows.stop), draws):
            if row >= rows.start:
                clip = Signal(_synthesize(spec, tone), spec.sample_rate)
                store[row] = preprocess(clip, stft_config, fb, spec.clip_samples).values
                yield
        if rows.start == 0:  # this process returns every split's targets
            for _ in draws:
                pass

    shape = (sum(n for n, _ in splits), frame_count(spec.clip_samples, stft_config), fb.n_mels)
    images = fill_store(shape, render, lambda row: f"synthetic clip {row}")
    src_y, val_y, unl_y, test_y = targets
    return ExperimentData(
        images, src_y, val_y, spec.n_unlabeled, test_y, spec.n_classes, unlabeled_truth=unl_y
    )
