"""The benchmark's three workloads: set-up, the timed phase, and checks.

Why each workload exists, and which per-layer figure should move which
end-to-end figure on it, is written down in README.md beside this file.

Every workload offers the same four steps to the runner:

- ``setup(seed)`` builds the inputs from the seed alone (not timed as
  ``run_s``; it is what ``setup_s`` measures);
- ``prepare(state)`` clears what the previous timed phase left (not timed);
- ``run(state)`` is the timed phase and returns an ``Outcome``;
- ``extras(state, layer, last)`` computes per-layer figures that need
  ground truth or geometry the trace cannot see, outside the timed phase.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spelaudio.experiment
import spelaudio.learner
from spelaudio import (
    Ensemble,
    LearnerSpec,
    Signal,
    StftConfig,
    benchmark_config,
    config_from_text,
    init_adam,
    init_params,
    mel_filterbank,
    preprocess,
    save_params,
    train,
    write_wav,
)


@dataclass
class Outcome:
    """One timed phase: per-operation latencies, failures and checked output."""

    latencies_ms: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    accuracy: float = 0.0
    baseline_accuracy: float = 0.0
    pseudo_counts: dict[int, int] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)


# --- tone corpus shared by wav-corpus and window-scan -----------------------

RATE = 16000
N_CLASSES = 6
BASE_HZ = 300.0
STEP_HZ = 220.0
JITTER_HZ = 60.0
HARMONICS = 3
# Target domain: every class moves up by a fixed offset and gets more noise.
TARGET_OFFSET_HZ = 20.0
NOISE = {"source": 0.05, "target": 0.1}


def render_tone(rng, cls: int, domain: str, seconds: float) -> np.ndarray:
    n = int(round(seconds * RATE))
    t = np.arange(n) / RATE
    f = BASE_HZ + cls * STEP_HZ + rng.uniform(-JITTER_HZ, JITTER_HZ)
    if domain == "target":
        f += TARGET_OFFSET_HZ
    x = np.zeros(n)
    for h in range(1, HARMONICS + 1):
        x += np.sin(2.0 * np.pi * h * f * t + rng.uniform(0.0, 2.0 * np.pi)) / h
    x *= rng.uniform(0.3, 0.7) / np.abs(x).max()
    x += rng.normal(0.0, NOISE[domain], size=n)
    return np.clip(x, -1.0, 1.0)


def balanced_labels(rng, n: int) -> np.ndarray:
    labels = np.resize(np.arange(N_CLASSES), n)
    rng.shuffle(labels)
    return labels


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _failed(outcome: Outcome, what: str) -> Outcome:
    outcome.problems.append(f"{what}: {traceback.format_exc(limit=3)}")
    return outcome


# --- experiment workloads (one operation = one run_experiment) --------------


def check_experiment_output(output_dir: Path, record, per_step: int, steps: int, pool: int):
    """Problems with one experiment's persisted results; empty when sound."""
    problems = []
    csv_bytes = (output_dir / "results.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    if [int(r["round"]) for r in rows] != list(range(steps + 1)):
        problems.append(f"results.csv rounds {[r['round'] for r in rows]} != 0..{steps}")
    else:
        for j, row in enumerate(rows):
            want = min(per_step * j, pool)
            if int(row["pseudo_count"]) != want:
                problems.append(f"round {j}: pseudo_count {row['pseudo_count']} != {want}")
    summary = json.loads((output_dir / "summary.json").read_text())
    for key in ("final", "baseline"):
        value = summary[key]["accuracy"]
        if not 0.0 <= value <= 1.0 or value != getattr(record, f"{key}_metrics")["accuracy"]:
            problems.append(f"summary.json {key} accuracy {value} disagrees with the run")
    return problems, hashlib.sha256(csv_bytes).hexdigest()


class _ExperimentWorkload:
    """Shared timed phase: one run_experiment into a fresh output directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def prepare(self, state) -> None:
        shutil.rmtree(state["config"].output_dir, ignore_errors=True)

    def run(self, state) -> Outcome:
        config = state["config"]
        outcome = Outcome()
        t0 = time.perf_counter()
        try:
            record = spelaudio.experiment.run_experiment(config)
        except Exception:
            outcome.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            outcome.failed = 1
            return _failed(outcome, "run_experiment")
        outcome.latencies_ms.append((time.perf_counter() - t0) * 1e3)
        spel = config.spel
        try:
            problems, outcome.digest = check_experiment_output(
                config.output_dir, record, spel.per_step, spel.n_steps, state["pool"]
            )
        except Exception:
            outcome.failed = 1
            return _failed(outcome, "reading the results")
        outcome.problems += problems
        outcome.failed = int(bool(problems))
        outcome.accuracy = record.final_metrics["accuracy"]
        outcome.baseline_accuracy = record.baseline_metrics["accuracy"]
        outcome.pseudo_counts = {r.round_index: r.pseudo_count for r in record.reports[1:]}
        return outcome

    def extras(self, state, layer, last: Outcome) -> dict[str, float]:
        out = {
            # Every clip is a separate recording, so no frame is computed twice.
            "dsp.frames_unique": layer["dsp.frames_computed"],
            "engine.accuracy_gain": last.accuracy - last.baseline_accuracy,
        }
        truth = self.pseudo_truth(state)
        for j in (1, 2, 3):
            out[f"engine.pseudo_count.r{j}"] = float(last.pseudo_counts.get(j, 0))
            out[f"engine.pseudo_label_accuracy.r{j}"] = 0.0
            round_json = state["config"].output_dir / "checkpoints" / f"round_{j:03d}" / "round.json"
            if truth is not None and round_json.exists():
                pseudo = json.loads(round_json.read_text())["pseudo"]
                labels = np.asarray(pseudo["labels"])
                out[f"engine.pseudo_label_accuracy.r{j}"] = float(
                    np.mean(labels == truth[np.asarray(pseudo["ids"])])
                )
        return out

    def pseudo_truth(self, state):
        return None


class SpelSynth(_ExperimentWorkload):
    """The frozen synthetic seed: 5 members, 3 rounds, 2,700 0.3 s clips."""

    def setup(self, seed: int):
        config = benchmark_config(seed, output_dir=self.workdir / "run")
        return {"config": config, "pool": config.synthetic.n_unlabeled}

    def pseudo_truth(self, state):
        # The generator returns the unlabeled pool's labels beside the pool;
        # run_experiment drops them, so regenerate them from the same seed.
        config = state["config"]
        bundle = spelaudio.experiment.gen_synthetic(
            config.synthetic, config.stft, config.n_mels, seed=config.seed,
            fmin=config.fmin, fmax=config.fmax,
        )
        return bundle.unlabeled_truth


WAV_PER_CLASS = {"source": 24, "target": 24}

WAV_CONFIG = """\
# Tone corpus at the library's default transform geometry (1024/64/512,
# 256 mel bands), a strided conv stem and two hidden groups so the two
# members differ.
[experiment]
task = multiclass
source = wav-dir
seed = {seed}
output_dir = run
metric = accuracy

[dsp]
clip_seconds = 1.0

[spel]
members = 2
steps = 3
per_step = 20
learning_rate = 0.001
pretrain_epochs = 8
spel_epochs = 1
batch_size = 16

[learner]
hidden = 16;32
conv = 4x8x8

[data]
source_dir = corpus/source
target_dir = corpus/target
unlabeled_fraction = 0.5
"""


class WavCorpus(_ExperimentWorkload):
    """A seeded PCM16 corpus in class subdirectories, run through wav-dir mode."""

    def setup(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        corpus = _fresh_dir(self.workdir / "corpus")
        for domain, per_class in WAV_PER_CLASS.items():
            labels = balanced_labels(rng, per_class * N_CLASSES)
            for i, cls in enumerate(labels):
                folder = corpus / domain / f"c{cls}"
                folder.mkdir(parents=True, exist_ok=True)
                write_wav(folder / f"{i:04d}.wav", Signal(render_tone(rng, cls, domain, 1.0), RATE))
        config = config_from_text(WAV_CONFIG.format(seed=seed), base_dir=self.workdir)
        n_target = WAV_PER_CLASS["target"] * N_CLASSES
        return {"config": config, "pool": int(round(config.unlabeled_fraction * n_target))}


# --- window-scan (one operation = one recording scanned) --------------------

SCAN_TRAIN_PER_CLASS = 12
SCAN_RECORDINGS = 100
SCAN_SECONDS = 3.0
SCAN_WINDOW_S = 1.0
SCAN_HOP_S = 0.5
SCAN_HIDDEN = ((16,), (32,))
SCAN_CONV = ((4, 8, 8),)
SCAN_EPOCHS = 6


class WindowScan:
    """A saved conv ensemble scans long recordings with 50 % window overlap."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        stft_config = StftConfig()
        fb = mel_filterbank(256, stft_config.n_fft, RATE)
        window_n = int(SCAN_WINDOW_S * RATE)
        labels = balanced_labels(rng, SCAN_TRAIN_PER_CLASS * N_CLASSES)
        images = np.stack(
            [
                preprocess(Signal(render_tone(rng, c, "source", SCAN_WINDOW_S), RATE),
                           stft_config, fb, window_n).values
                for c in labels
            ]
        )
        models = _fresh_dir(self.workdir / "models")
        paths = []
        for i, hidden in enumerate(SCAN_HIDDEN):
            spec = LearnerSpec(images.shape[1:], N_CLASSES, hidden_layers=hidden,
                               conv_stem=SCAN_CONV)
            params = init_params(spec, seed=seed * 100 + i)
            state = init_adam(params, learning_rate=1e-3)
            params, _ = train(params, images, labels, epochs=SCAN_EPOCHS, batch_size=16,
                              state=state, seed=seed * 100 + 50 + i)
            paths.append(models / f"member_{i:02d}.npz")
            save_params(paths[-1], params)
        classes = balanced_labels(rng, SCAN_RECORDINGS)
        recordings = [Signal(render_tone(rng, c, "source", SCAN_SECONDS), RATE) for c in classes]
        return {"paths": paths, "recordings": recordings, "classes": classes}

    def prepare(self, state) -> None:
        pass

    def run(self, state) -> Outcome:
        outcome = Outcome()
        try:
            members = [spelaudio.learner.load_params(p)[0] for p in state["paths"]]
            ensemble = Ensemble(tuple(members))
            stft_config = StftConfig()
            fb = mel_filterbank(256, stft_config.n_fft, RATE)
        except Exception:
            outcome.latencies_ms = [0.0] * len(state["recordings"])
            outcome.failed = len(state["recordings"])
            return _failed(outcome, "load_params")
        digest = hashlib.sha256()
        correct = 0
        for recording, cls in zip(state["recordings"], state["classes"]):
            t0 = time.perf_counter()
            try:
                scores = spelaudio.experiment.sliding_window_predict(
                    ensemble, recording, SCAN_WINDOW_S, SCAN_HOP_S, stft_config, fb
                )
            except Exception:
                outcome.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                outcome.failed += 1
                _failed(outcome, "sliding_window_predict")
                continue
            outcome.latencies_ms.append((time.perf_counter() - t0) * 1e3)
            scores = np.asarray(scores, dtype=np.float64)
            if (scores.shape != (N_CLASSES,) or not np.all(np.isfinite(scores))
                    or scores.min() < 0.0 or scores.max() > 1.0):
                outcome.failed += 1
                outcome.problems.append(f"bad score vector {scores!r}")
                continue
            digest.update(scores.tobytes())
            correct += int(scores.argmax() == cls)
        outcome.digest = digest.hexdigest()
        outcome.accuracy = correct / len(state["recordings"])
        return outcome

    def extras(self, state, layer, last: Outcome) -> dict[str, float]:
        out = {"dsp.frames_unique": float(sum(self._unique_frames(len(r)) for r in state["recordings"]))}
        out["engine.accuracy_gain"] = 0.0
        for j in (1, 2, 3):
            out[f"engine.pseudo_count.r{j}"] = 0.0
            out[f"engine.pseudo_label_accuracy.r{j}"] = 0.0
        return out

    @staticmethod
    def _unique_frames(n_samples: int) -> int:
        """Distinct analysis frames (by absolute start) over all windows."""
        config = StftConfig()
        window_n = int(round(SCAN_WINDOW_S * RATE))
        hop_n = int(round(SCAN_HOP_S * RATE))
        per_window = (window_n - config.win_length) // config.hop + 1
        starts = set()
        for s in range(0, n_samples - window_n + 1, hop_n):
            starts.update(range(s, s + per_window * config.hop, config.hop))
        return len(starts)


WORKLOADS = {"spel-synth": SpelSynth, "wav-corpus": WavCorpus, "window-scan": WindowScan}
