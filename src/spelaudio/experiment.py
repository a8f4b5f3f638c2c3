"""Experiment harness: dataset assembly (synthetic or WAV directories),
the end-to-end run, hyperparameter sweeps over the (per-step, steps)
grid, sliding-window test-time aggregation, and results persistence.

Each experiment writes one per-round CSV (the improvement-curve data)
plus a JSON summary; both are written atomically and the CSV is
byte-stable across reruns of the same config and seed.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, canonical, load_config
from .dsp import IMAGE_DTYPE, MelFilterbank, Signal, StftConfig, frame_count, preprocess
from .engine import ExperimentData, RoundReport, fill_store, run_spel, write_text_atomic
from .ensemble import Ensemble, avg_predict
from .learner import LearnerSpec
from .metrics import TASK_METRICS, McNemarResult, mcnemar, task_metrics
from .metrics import accuracy, uar  # noqa: F401  wrapped by perfbench/spans.py's tracer
from .synthetic import gen_synthetic
from .wavio import load_wav, wav_sample_rate

__all__ = [
    "ResultsRecord",
    "build_data",
    "build_learner_specs",
    "run_experiment",
    "sweep",
    "enumerate_grid",
    "sliding_window_predict",
    "benchmark_config_text",
    "benchmark_config",
]


@dataclass(frozen=True)
class ResultsRecord:
    """One experiment: its config, per-round reports and the test-split
    evaluation of the final ensemble against the round-0 baseline."""

    config: ExperimentConfig
    reports: tuple[RoundReport, ...]
    final_metrics: dict[str, float]
    baseline_metrics: dict[str, float]
    mcnemar_vs_baseline: McNemarResult
    timings: dict[str, float]

    def improvements(self) -> list[float | None]:
        """Per-round absolute improvement of the primary metric over round 0."""
        metric = self.config.metric
        out = []
        for report in self.reports:
            if metric in report.metrics and metric in self.reports[0].metrics:
                out.append(report.metrics[metric] - self.reports[0].metrics[metric])
            else:
                out.append(None)
        return out


def _scan_wavs(root: Path):
    """Class names, .wav files and their class indices under root: one
    subdirectory per class, or a flat directory whose labels are None.
    Every subdirectory is a class, so a .wav file beside them, or one of
    them without a .wav file while another has some, is refused by name."""
    classes = sorted(d.name for d in root.iterdir() if d.is_dir())
    loose = sorted(root.glob("*.wav"))
    if not classes:
        return classes, loose, None
    if loose:
        raise ConfigError(f"{loose[0]}: a .wav file beside the class subdirectories of {root}")
    per_class = [sorted((root / name).glob("*.wav")) for name in classes]
    empty = [name for name, wavs in zip(classes, per_class) if not wavs]
    if empty and len(empty) < len(classes):
        raise ConfigError(f"{root / empty[0]}: a class subdirectory with no .wav file")
    files = [wav for wavs in per_class for wav in wavs]
    labels = np.repeat(np.arange(len(classes), dtype=np.int64), [len(w) for w in per_class])
    return classes, files, labels


def _check_headers(files, config: ExperimentConfig):
    """The first file's sample rate and its filterbank, once every file's
    header, in scan order, shows that rate and the geometry the rate fixes
    is checked; no audio is decoded."""
    rate = fb = None
    for path in files:
        file_rate = wav_sample_rate(path)
        if rate is None:
            rate = file_rate
            fb = config.filterbank_at(rate, f"{path} (sample rate {rate})")
        elif file_rate != rate:
            raise ConfigError(
                f"{path}: sample rate {file_rate} differs from {rate}; "
                "source and target must share one rate"
            )
    return rate, fb


def _build_wav_data(config: ExperimentConfig) -> ExperimentData:
    classes, src_files, src_labels = _scan_wavs(config.source_dir)
    if len(classes) < 2:
        raise ConfigError(f"{config.source_dir}: need class subdirectories (found {len(classes)})")
    if not src_files:
        raise ConfigError(f"{config.source_dir}: no .wav files found")
    target_classes, tgt_files, tgt_labels = _scan_wavs(config.target_dir)
    if target_classes and target_classes != classes:
        raise ConfigError(
            f"{config.target_dir}: class subdirectories {target_classes} do not "
            f"match the source classes {classes}"
        )
    if not tgt_files:
        raise ConfigError(f"[data] target_dir {config.target_dir}: no .wav files found")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(src_files))
    n_train = int(round(config.train_fraction * len(order)))
    n_val = int(round(config.val_fraction * len(order)))
    train_rows, val_rows, test_rows = np.split(order, [n_train, n_train + n_val])
    if len(train_rows) == 0:
        raise ConfigError("train fraction leaves no source training samples")
    if tgt_labels is None:
        unl_rows, tgt_test_rows = np.arange(len(tgt_files)), []
    else:
        tgt_order = rng.permutation(len(tgt_files))
        n_unl = int(round(config.unlabeled_fraction * len(tgt_order)))
        unl_rows, tgt_test_rows = np.split(tgt_order, [n_unl])
        if len(unl_rows) == 0:
            raise ConfigError("unlabeled fraction leaves no unlabeled target samples")
    if len(tgt_test_rows) == 0 and len(test_rows) == 0:
        raise ConfigError("no labeled test data: empty source test split, unlabeled target")

    scanned = src_files + tgt_files
    rate, fb = _check_headers(scanned, config)
    if len(tgt_test_rows):
        test_rows, test_targets = len(src_files) + tgt_test_rows, tgt_labels[tgt_test_rows]
    else:  # no labeled target clips: fall back to the source test split
        test_targets = src_labels[test_rows]
    # Each file a split needs is decoded once, in split order, into the one store.
    needed = np.concatenate([train_rows, val_rows, len(src_files) + unl_rows, test_rows])
    paths = [scanned[row] for row in needed]
    clip = config.clip_samples(rate)

    def render(store, rows):
        for i in rows:
            store[i] = preprocess(load_wav(paths[i]), config.stft, fb, clip).values
            yield

    shape = (len(paths), frame_count(clip, config.stft), config.n_mels)
    images = fill_store(shape, render, paths.__getitem__)
    val_targets = src_labels[val_rows] if len(val_rows) else None
    truth = None if tgt_labels is None else tgt_labels[unl_rows]
    return ExperimentData(
        images, src_labels[train_rows], val_targets, len(unl_rows), test_targets, len(classes), truth
    )


def build_data(config: ExperimentConfig) -> ExperimentData:
    """The run's splits in one store, from the config's data source. A
    synthetic config is checked at its sample rate first, as its parse
    checks it, so that one built in code fails before any clip is rendered."""
    if config.source == "synthetic":
        spec = config.synthetic
        config.filterbank_at(spec.sample_rate, f"[synthetic] sample_rate = {spec.sample_rate}")
        return gen_synthetic(
            spec,
            config.stft,
            config.n_mels,
            seed=config.seed,
            fmin=config.fmin,
            fmax=config.fmax,
        )
    return _build_wav_data(config)


def build_learner_specs(config: ExperimentConfig, data: ExperimentData) -> list[LearnerSpec]:
    """Per-member architectures for the data's input geometry and classes."""
    return config.learner_specs(tuple(data.images.shape[1:]), data.n_classes)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.6f}"


def round_csv_text(record: ResultsRecord) -> str:
    metric_names = TASK_METRICS[record.config.task]
    header = ["round", "pseudo_count", "min_selected_confidence", *metric_names, "improvement"]
    lines = [",".join(header)]
    improvements = record.improvements()
    for report, improvement in zip(record.reports, improvements):
        row = [
            str(report.round_index),
            str(report.pseudo_count),
            _fmt(report.min_selected_confidence),
            *(_fmt(report.metrics.get(name)) for name in metric_names),
            _fmt(improvement),
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _summary_payload(record: ResultsRecord) -> dict:
    config, mc = record.config, record.mcnemar_vs_baseline
    return {
        "config": canonical(config, run_only=True),
        "config_hash": config.config_hash,
        "task": config.task,
        "metric": config.metric,
        "rounds": len(record.reports) - 1,
        "final": record.final_metrics,
        "baseline": record.baseline_metrics,
        "improvement_final": record.improvements()[-1],
        "mcnemar_vs_baseline": {
            "statistic": mc.statistic,
            "significant_at_0.01": mc.significant,
            "b": mc.b,
            "c": mc.c,
        },
        "timings": record.timings,
    }


def write_results(record: ResultsRecord, output_dir: Path) -> None:
    output_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(output_dir / "results.csv", round_csv_text(record))
    write_text_atomic(
        output_dir / "summary.json",
        json.dumps(_summary_payload(record), indent=2, sort_keys=True) + "\n",
    )


def run_experiment(config: ExperimentConfig | str | Path) -> ResultsRecord:
    """Build the datasets, run the full self-paced pipeline, evaluate, persist.

    Round reports are computed on the validation split; final and baseline
    metrics on the test split, with a paired McNemar test between them on
    identical test samples.
    """
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    data = build_data(config)
    timings["data_seconds"] = time.perf_counter() - t0

    specs = build_learner_specs(config, data)
    checkpoint_dir = config.output_dir / "checkpoints" if config.output_dir else None
    t1 = time.perf_counter()
    result = run_spel(data, config.spel, specs, checkpoint_dir=checkpoint_dir)
    timings["train_seconds"] = time.perf_counter() - t1

    truth = data.test_targets
    final_metrics, baseline_metrics = (
        task_metrics(config.task, p.labels, p.probabilities, truth, data.n_classes)
        for p in (result.prediction, result.baseline_prediction)
    )
    mc = mcnemar(result.prediction.labels, result.baseline_prediction.labels, truth)
    timings["total_seconds"] = time.perf_counter() - t0

    record = ResultsRecord(
        config=config,
        reports=result.reports,
        final_metrics=final_metrics,
        baseline_metrics=baseline_metrics,
        mcnemar_vs_baseline=mc,
        timings=timings,
    )
    if config.output_dir is not None:
        write_results(record, config.output_dir)
    return record


def enumerate_grid(m_grid, budget: int, k_max: int | None = None) -> list[tuple[int, int]]:
    """All legal (per-step, steps) pairs: steps >= 1 and per_step * steps <= budget.
    The config keeps every m_grid entry in [1, budget]."""
    pairs = []
    for m in m_grid:
        top = budget // m
        if k_max is not None:
            top = min(top, k_max)
        pairs.extend((m, k) for k in range(1, top + 1))
    return pairs


def sweep(config: ExperimentConfig | str | Path) -> list[tuple[int, int, ResultsRecord]]:
    """Run one experiment per legal (per-step, steps) pair under output_dir,
    plus a sweep.csv summarizing final metric and improvement per pair."""
    if not isinstance(config, ExperimentConfig):
        config = load_config(config)
    if config.output_dir is None:
        raise ConfigError("sweep needs an output_dir")
    pairs = enumerate_grid(config.sweep_m_grid, config.sweep_budget, config.sweep_k_max)
    results = []
    for m, k in pairs:
        sub = dataclasses.replace(
            config,
            spel=dataclasses.replace(config.spel, per_step=m, n_steps=k),
            output_dir=config.output_dir / f"m{m:03d}_k{k:02d}",
        )
        results.append((m, k, run_experiment(sub)))

    lines = [f"per_step,steps,final_{config.metric},improvement"]
    for m, k, record in results:
        final = record.final_metrics[config.metric]
        lines.append(f"{m},{k},{_fmt(final)},{_fmt(record.improvements()[-1])}")
    write_text_atomic(config.output_dir / "sweep.csv", "\n".join(lines) + "\n")
    return results


def sliding_window_predict(
    ensemble: Ensemble,
    long_signal: Signal,
    window_seconds: float,
    hop_seconds: float,
    stft_config: StftConfig,
    fb: MelFilterbank,
) -> np.ndarray:
    """Per-class scores for a long clip: run the frontend on each window into
    one buffer of the IMAGE_DTYPE images it returns, as a store holds them,
    and the averaged ensemble on all of them, then keep the per-class
    maximum. A recording whose rate, or a geometry whose n_fft, differs
    from the filterbank's is rejected before any frontend work."""
    rate = long_signal.sample_rate
    fb.check_input(rate, stft_config.n_fft)
    window_n = int(round(window_seconds * rate))
    hop_n = int(round(hop_seconds * rate))
    if window_n < 1:
        raise ValueError("window must cover at least one sample")
    if hop_n < 1:
        raise ValueError(f"hop of {hop_seconds} s covers no sample at {rate} Hz")
    if len(long_signal) < window_n:
        raise ValueError(
            f"signal of {len(long_signal)} samples is shorter than one "
            f"{window_n}-sample window"
        )
    starts = range(0, len(long_signal) - window_n + 1, hop_n)
    images = np.empty((len(starts), frame_count(window_n, stft_config), fb.n_mels), IMAGE_DTYPE)
    for i, s in enumerate(starts):
        window = Signal(long_signal.samples[s : s + window_n], rate)
        images[i] = preprocess(window, stft_config, fb, window_n).values
    prediction = avg_predict(ensemble, images)
    return prediction.probabilities.max(axis=0)


BENCHMARK_CONFIG_TEMPLATE = """\
# Synthetic domain-shift benchmark: six tone classes whose target-domain
# frequencies drift upward and pick up heavier noise. The per-clip frequency
# spread is bounded (uniform), so a clip can never sit on a neighboring
# class's center: confident ensemble predictions stay trustworthy while the
# boundary region supplies real headroom for adaptation. Small transform
# geometry keeps a full five-member run in the seconds range.
[experiment]
task = multiclass
source = synthetic
seed = {seed}
metric = accuracy
val_domain = target

[dsp]
n_fft = 256
hop = 128
win_length = 256
n_mels = 32
clip_seconds = 0.3

[spel]
members = 5
steps = 3
per_step = 50
learning_rate = 0.001
pretrain_epochs = 12
spel_epochs = 8
batch_size = 16

[learner]
hidden = 24

[synthetic]
classes = 6
source_samples = 1200
val_samples = 300
unlabeled_samples = 600
test_samples = 600
sample_rate = 8000
base_freq = 400
freq_step = 180
freq_jitter = 55
harmonics = 2
source_noise = 0.1
target_offset = 70
target_noise = 0.5
"""


def benchmark_config_text(seed: int = 0) -> str:
    return BENCHMARK_CONFIG_TEMPLATE.format(seed=seed)


def benchmark_config(seed: int = 0, output_dir: Path | None = None) -> ExperimentConfig:
    """The default synthetic domain-shift benchmark configuration."""
    from .config import config_from_text

    config = config_from_text(benchmark_config_text(seed))
    if output_dir is not None:
        config = dataclasses.replace(config, output_dir=Path(output_dir))
    return config
