import dataclasses
import hashlib
import json
import os
import re
import signal
import struct
from pathlib import Path

import numpy as np
import pytest

from spelaudio import engine, experiment, synthetic
from spelaudio.config import ConfigError, config_from_text
from spelaudio.dsp import Signal, StftConfig, mel_filterbank, preprocess
from spelaudio.engine import pretrain
from spelaudio.ensemble import Ensemble, avg_predict
from spelaudio.experiment import (
    build_data,
    build_learner_specs,
    enumerate_grid,
    run_experiment,
    sliding_window_predict,
    sweep,
)
from spelaudio.learner import LearnerSpec, init_params
from spelaudio.wavio import WavFormatError, load_wav, write_wav

from conftest import float64_member, mini_spel_config
from test_engine import assert_no_child_left
from test_learner import traced_peak


def mini_config_text(out_dir, seed=5, steps=2, per_step=20, task="multiclass", extra=""):
    return f"""
[experiment]
task = {task}
source = synthetic
seed = {seed}
output_dir = {out_dir}

[dsp]
n_fft = 128
hop = 64
win_length = 128
n_mels = 12
clip_seconds = 0.15

[spel]
members = 2
steps = {steps}
per_step = {per_step}
learning_rate = 0.003
pretrain_epochs = 2
batch_size = 16

[learner]
hidden = 16

[synthetic]
classes = 3
source_samples = 90
val_samples = 30
unlabeled_samples = 60
test_samples = 45
sample_rate = 4000
base_freq = 300
freq_step = 250
harmonics = 1
source_noise = 0.05
target_offset = 40
target_noise = 0.2
{extra}
"""


class TestRunExperiment:
    def test_files_and_round_count(self, tmp_path):
        record = run_experiment(config_from_text(mini_config_text(tmp_path / "run")))
        assert len(record.reports) == 3  # steps + 1
        assert (tmp_path / "run" / "results.csv").exists()
        assert (tmp_path / "run" / "summary.json").exists()
        assert (tmp_path / "run" / "checkpoints" / "round_002" / "round.json").exists()
        assert record.mcnemar_vs_baseline is not None
        assert "accuracy" in record.final_metrics and "uar" in record.final_metrics

    def test_csv_schema_and_improvement_zero_at_round_zero(self, tmp_path):
        record = run_experiment(config_from_text(mini_config_text(tmp_path / "run")))
        lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == [
            "round",
            "pseudo_count",
            "min_selected_confidence",
            "accuracy",
            "uar",
            "improvement",
        ]
        assert len(lines) == 1 + len(record.reports)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[-1]) == 0.0

    def test_improvement_matches_round_metrics(self, tmp_path):
        record = run_experiment(config_from_text(mini_config_text(tmp_path / "run")))
        improvements = record.improvements()
        for j, report in enumerate(record.reports):
            expected = report.metrics["accuracy"] - record.reports[0].metrics["accuracy"]
            assert improvements[j] == pytest.approx(expected, abs=1e-15)

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        run_experiment(config_from_text(mini_config_text(tmp_path / "a", seed=9)))
        run_experiment(config_from_text(mini_config_text(tmp_path / "b", seed=9)))
        csv_a = (tmp_path / "a" / "results.csv").read_bytes()
        csv_b = (tmp_path / "b" / "results.csv").read_bytes()
        assert csv_a == csv_b
        # summaries match apart from wall-clock timings
        sum_a = json.loads((tmp_path / "a" / "summary.json").read_text())
        sum_b = json.loads((tmp_path / "b" / "summary.json").read_text())
        sum_a.pop("timings")  # clocks differ
        sum_b.pop("timings")
        assert sum_a == sum_b

    def test_summary_carries_the_hashed_config_text(self, tmp_path):
        """summary.json holds the canonical text of the keys the run read: it
        hashes to config_hash and parses back to the config, output_dir aside."""
        cfg = config_from_text(mini_config_text(tmp_path / "run", steps=0))
        run_experiment(cfg)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        text = summary["config"]
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == summary["config_hash"]
        assert summary["config_hash"] == cfg.config_hash
        assert config_from_text(text) == dataclasses.replace(cfg, output_dir=None)

    def test_zero_steps_single_baseline_row(self, tmp_path):
        record = run_experiment(config_from_text(mini_config_text(tmp_path / "run", steps=0)))
        assert len(record.reports) == 1
        lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_multilabel_round_metrics(self, tmp_path):
        record = run_experiment(
            config_from_text(mini_config_text(tmp_path / "run", task="multilabel", steps=1))
        )
        assert record.config.metric == "wlrap"
        assert "wlrap" in record.reports[0].metrics
        assert "lrap" in record.final_metrics
        header = (tmp_path / "run" / "results.csv").read_text().splitlines()[0]
        assert header.split(",")[3:] == ["accuracy", "lrap", "wlrap", "improvement"]


class TestSweep:
    def test_enumerates_default_grid_exactly(self):
        pairs = enumerate_grid((50, 100, 150, 200), 1000)
        assert len(pairs) == 20 + 10 + 6 + 5
        assert all(m * k <= 1000 for m, k in pairs)
        assert (50, 20) in pairs and (150, 6) in pairs and (200, 5) in pairs
        assert (150, 7) not in pairs
        assert min(k for _, k in pairs) == 1

    def test_k_max_caps_grid(self):
        pairs = enumerate_grid((10,), 60, k_max=4)
        assert pairs == [(10, 1), (10, 2), (10, 3), (10, 4)]

    def test_mini_sweep_outputs(self, tmp_path):
        extra = ""
        text = mini_config_text(tmp_path / "sweepout", steps=1, per_step=10, extra=extra)
        text += "\n[sweep]\nm_grid = 10\nbudget = 30\n"
        results = sweep(config_from_text(text))
        assert [(m, k) for m, k, _ in results] == [(10, 1), (10, 2), (10, 3)]
        sweep_csv = (tmp_path / "sweepout" / "sweep.csv").read_text().splitlines()
        assert sweep_csv[0] == "per_step,steps,final_accuracy,improvement"
        assert len(sweep_csv) == 4
        for m, k, record in results:
            sub = tmp_path / "sweepout" / f"m{m:03d}_k{k:02d}"
            assert (sub / "results.csv").exists()
            assert len(record.reports) == k + 1
        assert len({record.config.config_hash for _, _, record in results}) == len(results)


class TestSlidingWindow:
    def _ensemble(self, mini_bundle):
        from conftest import mini_learner_spec

        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_members=1)
        ensemble, *_ = pretrain(config, mini_bundle, [spec])
        return ensemble

    def test_single_window_equals_plain_prediction(self, mini_bundle):
        ensemble = self._ensemble(mini_bundle)
        stft_config = StftConfig(n_fft=128, hop=64, win_length=128)
        fb = mel_filterbank(12, 128, 4000)
        rng = np.random.default_rng(0)
        signal = Signal(rng.normal(size=600), 4000)  # exactly one 0.15 s window
        scores = sliding_window_predict(ensemble, signal, 0.15, 0.15, stft_config, fb)
        image = preprocess(signal, stft_config, fb, 600).values
        direct = avg_predict(ensemble, image[None]).probabilities[0]
        assert np.array_equal(scores, direct)

    def test_max_dominates_every_window(self, mini_bundle):
        # float64 members: a float32 member's rows vary in the last bit with
        # the batch they are computed in, beyond this bound.
        ensemble = Ensemble(tuple(float64_member(m) for m in self._ensemble(mini_bundle).members))
        stft_config = StftConfig(n_fft=128, hop=64, win_length=128)
        fb = mel_filterbank(12, 128, 4000)
        rng = np.random.default_rng(1)
        signal = Signal(rng.normal(size=2400), 4000)
        scores = sliding_window_predict(ensemble, signal, 0.15, 0.075, stft_config, fb)
        window, hop = 600, 300
        for start in range(0, len(signal) - window + 1, hop):
            image = preprocess(
                Signal(signal.samples[start : start + window], 4000), stft_config, fb, window
            ).values.astype(np.float32)  # as the scan's buffer holds it
            probs = avg_predict(ensemble, image[None]).probabilities[0]
            assert np.all(scores >= probs - 1e-15)

    @pytest.mark.parametrize("member_dtype", ["float32", "float64"])
    def test_scores_are_the_ensemble_on_the_float32_windows(self, mini_bundle, member_dtype):
        """Each window is computed in float64 and rounded once into a float32
        buffer, which the members read in one batch, whatever their dtype."""
        ensemble = self._ensemble(mini_bundle)
        if member_dtype == "float64":
            ensemble = Ensemble(tuple(float64_member(m) for m in ensemble.members))
        stft_config = StftConfig(n_fft=128, hop=64, win_length=128)
        fb = mel_filterbank(12, 128, 4000)
        signal = Signal(np.random.default_rng(3).normal(size=2400), 4000)
        scores = sliding_window_predict(ensemble, signal, 0.15, 0.075, stft_config, fb)
        images = np.stack([
            preprocess(Signal(signal.samples[s : s + 600], 4000), stft_config, fb, 600).values
            for s in range(0, 1801, 300)
        ]).astype(np.float32)
        assert np.array_equal(scores, avg_predict(ensemble, images).probabilities.max(axis=0))

    def test_two_windows_elementwise_max(self, mini_bundle):
        ensemble = self._ensemble(mini_bundle)
        stft_config = StftConfig(n_fft=128, hop=64, win_length=128)
        fb = mel_filterbank(12, 128, 4000)
        rng = np.random.default_rng(2)
        signal = Signal(rng.normal(size=1200), 4000)
        scores = sliding_window_predict(ensemble, signal, 0.15, 0.15, stft_config, fb)
        windows = [signal.samples[:600], signal.samples[600:]]
        probs = np.stack(
            [
                avg_predict(
                    ensemble, preprocess(Signal(w, 4000), stft_config, fb, 600).values[None]
                ).probabilities[0]
                for w in windows
            ]
        )
        assert np.allclose(scores, probs.max(axis=0), atol=1e-15)

    @pytest.mark.parametrize("hop_seconds", [0.0, -0.075])
    def test_non_positive_hop_rejected_before_the_frontend(
        self, mini_bundle, monkeypatch, hop_seconds
    ):
        ensemble = self._ensemble(mini_bundle)
        stft_config = StftConfig(n_fft=128, hop=64, win_length=128)
        fb = mel_filterbank(12, 128, 4000)

        def no_frontend(*args, **kwargs):
            raise AssertionError("the frontend ran")

        monkeypatch.setattr(experiment, "preprocess", no_frontend)
        with pytest.raises(ValueError, match="hop"):
            sliding_window_predict(
                ensemble, Signal(np.zeros(2400), 4000), 0.15, hop_seconds, stft_config, fb
            )

    def test_filterbank_rate_mismatch_rejected_before_the_frontend(self, mini_bundle, monkeypatch):
        ensemble = self._ensemble(mini_bundle)
        stft_config = StftConfig(n_fft=128, hop=64, win_length=128)
        fb = mel_filterbank(12, 128, 8000)

        def no_frontend(*args, **kwargs):
            raise AssertionError("the frontend ran")

        monkeypatch.setattr(experiment, "preprocess", no_frontend)
        with pytest.raises(ValueError, match="4000 Hz differs from the filterbank's 8000 Hz"):
            sliding_window_predict(
                ensemble, Signal(np.zeros(2400), 4000), 0.15, 0.075, stft_config, fb
            )

    def test_short_signal_rejected(self, mini_bundle):
        ensemble = self._ensemble(mini_bundle)
        stft_config = StftConfig(n_fft=128, hop=64, win_length=128)
        fb = mel_filterbank(12, 128, 4000)
        with pytest.raises(ValueError, match="shorter"):
            sliding_window_predict(
                ensemble, Signal(np.zeros(500), 4000), 0.15, 0.15, stft_config, fb
            )


def make_wav_corpus(root, rng, n_per_class, classes=("low", "mid"), rates=(4000,), offset=0.0):
    freqs = {"low": 400.0, "mid": 900.0, "top": 1400.0}
    for name in classes:
        (root / name).mkdir(parents=True)
        for i in range(n_per_class):
            t = np.arange(800) / rates[0]
            x = 0.8 * np.sin(2 * np.pi * (freqs[name] + offset) * t + rng.uniform(0, 6.28))
            x += rng.normal(0, 0.05, size=800)
            write_wav(root / name / f"clip_{i:02d}.wav", Signal(np.clip(x, -1, 1), rates[0]))


def assert_splits_view_one_read_only_store(data):
    assert data.images.dtype == np.float32
    for name in ("labeled", "validation", "unlabeled", "test"):
        split = getattr(data, name)
        if split is None:
            continue
        assert split.inputs.base is data.images, name
        assert np.array_equal(split.inputs, data.images[data.rows[name]]), name
        with pytest.raises(ValueError, match="read-only"):
            split.inputs[0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        data.images[0, 0, 0] = 0.0


class TestWavDirMode:
    def _config_text(self, source_dir, target_dir, out_dir):
        return f"""
[experiment]
task = multiclass
source = wav-dir
seed = 3
output_dir = {out_dir}

[dsp]
n_fft = 128
hop = 64
win_length = 128
n_mels = 10
clip_seconds = 0.2

[spel]
members = 2
steps = 1
per_step = 5
learning_rate = 0.003
pretrain_epochs = 3
batch_size = 8

[learner]
hidden = 12

[data]
source_dir = {source_dir}
target_dir = {target_dir}
unlabeled_fraction = 0.6
"""

    def test_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        make_wav_corpus(tmp_path / "source", rng, 12)
        make_wav_corpus(tmp_path / "target", rng, 10, offset=30.0)
        record = run_experiment(
            config_from_text(self._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "out"))
        )
        assert len(record.reports) == 2
        assert record.final_metrics["accuracy"] >= 0.0
        assert (tmp_path / "out" / "results.csv").exists()

    @staticmethod
    def _count_decodes(monkeypatch, log):
        """A function that returns the paths build_data decodes from here
        on, in this process and in the ones it forks: each decode appends
        its path to the file log."""

        def logging_load_wav(path):
            with open(log, "a") as out:
                out.write(f"{path}\n")
            return load_wav(path)

        monkeypatch.setattr(experiment, "load_wav", logging_load_wav)
        return lambda: log.read_text().splitlines() if log.exists() else []

    @staticmethod
    def _flat_target(root):
        root.mkdir()
        for i in range(8):
            t = np.arange(800) / 4000
            x = 0.7 * np.sin(2 * np.pi * 640.0 * t)
            write_wav(root / f"u{i}.wav", Signal(x, 4000))
        return root

    def test_flat_target_uses_source_test_split(self, tmp_path):
        rng = np.random.default_rng(1)
        make_wav_corpus(tmp_path / "source", rng, 12)
        flat = self._flat_target(tmp_path / "target_flat")
        record = run_experiment(
            config_from_text(self._config_text(tmp_path / "source", flat, tmp_path / "out2"))
        )
        assert record.final_metrics  # evaluated on the source test split
        assert record.mcnemar_vs_baseline is not None

    def test_data_assembly_shapes(self, tmp_path):
        rng = np.random.default_rng(2)
        make_wav_corpus(tmp_path / "source", rng, 10)
        make_wav_corpus(tmp_path / "target", rng, 10, offset=30.0)
        cfg = config_from_text(self._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "o"))
        data = build_data(cfg)
        total_target = 20
        n_unl = int(round(0.6 * total_target))
        assert len(data.unlabeled) == n_unl
        assert data.test.inputs.shape[0] == total_target - n_unl
        specs = build_learner_specs(cfg, data)
        assert specs[0].n_outputs == 2

    def test_class_count_comes_from_the_subdirectories(self, tmp_path):
        # The lone "top" clip lands in the source test split under seed 12,
        # so the training labels alone would count two classes.
        rng = np.random.default_rng(0)
        make_wav_corpus(tmp_path / "source", rng, 6)
        make_wav_corpus(tmp_path / "source", rng, 1, classes=("top",))
        flat = self._flat_target(tmp_path / "target_flat")
        text = self._config_text(tmp_path / "source", flat, tmp_path / "out")
        cfg = config_from_text(text.replace("seed = 3", "seed = 12"))
        data = build_data(cfg)
        assert data.n_classes == 3
        assert 2 not in data.labeled.targets and 2 in data.test.targets
        assert build_learner_specs(cfg, data)[0].n_outputs == 3
        record = run_experiment(cfg)
        assert set(record.final_metrics) == {"accuracy", "uar"}

    def test_target_at_another_sample_rate_rejected_naming_the_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        make_wav_corpus(tmp_path / "source", rng, 6, rates=(8000,))
        make_wav_corpus(tmp_path / "target", rng, 4, rates=(4000,))
        cfg = config_from_text(
            self._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "out")
        )
        decoded = self._count_decodes(monkeypatch, tmp_path / "decoded.log")
        with pytest.raises(ConfigError, match=r"target[/\\]low[/\\]clip_00\.wav: sample rate 4000"):
            build_data(cfg)
        assert decoded() == []  # the header pass found it

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("n_mels = 10", "n_mels = 10\nfmax = 3000",
             r"\[dsp\] fmax = 3000.0: fmax=3000.0 exceeds the Nyquist frequency 2000.0$"),
            ("n_mels = 10", "n_mels = 10\nfmin = 2000",
             r"\[dsp\] fmin = 2000.0: need 0 <= fmin < the Nyquist frequency 2000.0, "
             r"got fmin=2000.0$"),
            ("clip_seconds = 0.2", "clip_seconds = 0.02",
             r"\[dsp\] clip_seconds = 0.02: signal of 80 samples is shorter than the 128-"),
            ("hidden = 12", "hidden = 12\nconv = 4x99x1",
             r"\[learner\] conv = 4x99x1: conv layer 0: kernel 99 exceeds "
             r"feature map 11x10$"),
        ],
        ids=["fmax-above-nyquist", "fmin-at-nyquist", "clip-below-window", "kernel-too-large"],
    )
    def test_geometry_the_first_file_fixes_is_checked_before_any_audio_is_decoded(
        self, tmp_path, monkeypatch, old, new, message
    ):
        """The sample rate is known only from the files, so the checks the
        parse makes for synthetic sources come at the first file's header."""
        make_wav_corpus(tmp_path / "source", np.random.default_rng(0), 6)
        make_wav_corpus(tmp_path / "target", np.random.default_rng(1), 6)
        text = self._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "out")
        cfg = config_from_text(text.replace(old, new))
        decoded = self._count_decodes(monkeypatch, tmp_path / "decoded.log")
        first = re.escape(str(tmp_path / "source" / "low" / "clip_00.wav"))
        with pytest.raises(ConfigError, match=rf"^{first} \(sample rate 4000\): {message}"):
            build_data(cfg)
        assert decoded() == []

    @pytest.mark.parametrize("layout", ["classes", "flat"])
    def test_every_split_views_one_read_only_store(self, tmp_path, layout):
        make_wav_corpus(tmp_path / "source", np.random.default_rng(0), 10)
        if layout == "classes":
            make_wav_corpus(tmp_path / "target", np.random.default_rng(1), 10, offset=30.0)
            target = tmp_path / "target"
        else:
            target = self._flat_target(tmp_path / "target")
        cfg = config_from_text(self._config_text(tmp_path / "source", target, tmp_path / "out"))
        assert_splits_view_one_read_only_store(build_data(cfg))

    def test_labeled_target_skips_decoding_the_source_test_split(self, tmp_path, monkeypatch):
        make_wav_corpus(tmp_path / "source", np.random.default_rng(0), 10)
        make_wav_corpus(tmp_path / "target", np.random.default_rng(1), 10, offset=30.0)
        cfg = config_from_text(
            self._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "out")
        )
        decoded = self._count_decodes(monkeypatch, tmp_path / "decoded.log")
        data = build_data(cfg)
        n_source, n_target = 20, 20
        n_source_test = n_source - len(data.labeled) - len(data.validation)
        assert n_source_test > 0
        paths = decoded()
        assert len(paths) == n_source - n_source_test + n_target
        assert len(set(paths)) == len(paths)

    def test_build_data_peak_stays_near_the_store(self, tmp_path):
        """One store and no copy of a split. tracemalloc sees the heap but
        not the store, which is anonymous shared memory: beside one clip's
        float64 frontend temporaries, measured on their own and taken off,
        the heap peak is about an eighth of the float32 store of 111 images,
        and a fancy-indexed copy of the splits would add a whole store."""
        make_wav_corpus(tmp_path / "source", np.random.default_rng(0), 30)
        make_wav_corpus(tmp_path / "target", np.random.default_rng(1), 30, offset=30.0)
        text = self._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "out")
        for old, new in (("n_fft = 128", "n_fft = 64"), ("hop = 64", "hop = 16"),
                         ("win_length = 128", "win_length = 64"), ("n_mels = 10", "n_mels = 24")):
            text = text.replace(old, new)
        cfg = config_from_text(text)
        build_data(cfg)  # the frontend's cached constants are not the store's
        fb = mel_filterbank(cfg.n_mels, cfg.stft.n_fft, 4000)
        path = tmp_path / "source" / "low" / "clip_00.wav"
        _, clip_peak = traced_peak(
            lambda: preprocess(load_wav(path), cfg.stft, fb, cfg.clip_samples(4000))
        )
        data, peak = traced_peak(lambda: build_data(cfg))
        assert peak - clip_peak < 0.25 * data.images.nbytes

    def test_pool_truth_is_each_clips_class_directory(self, tmp_path):
        rng = np.random.default_rng(4)
        make_wav_corpus(tmp_path / "source", rng, 6)
        make_wav_corpus(tmp_path / "target", rng, 5, offset=30.0)
        cfg = config_from_text(
            self._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "out")
        )
        data = build_data(cfg)
        fb = mel_filterbank(cfg.n_mels, cfg.stft.n_fft, 4000)
        truth = {}
        for label, name in enumerate(("low", "mid")):
            for path in sorted((tmp_path / "target" / name).glob("*.wav")):
                image = preprocess(load_wav(path), cfg.stft, fb, cfg.clip_samples(4000)).values
                truth[image.astype(np.float32).tobytes()] = label
        pool_labels = [truth[image.tobytes()] for image in data.unlabeled.inputs]
        assert np.array_equal(data.unlabeled_truth, pool_labels)

    def test_flat_target_has_no_pool_truth(self, tmp_path):
        make_wav_corpus(tmp_path / "source", np.random.default_rng(1), 6)
        flat = self._flat_target(tmp_path / "target_flat")
        cfg = config_from_text(self._config_text(tmp_path / "source", flat, tmp_path / "out"))
        assert build_data(cfg).unlabeled_truth is None

    def test_target_class_directories_without_wavs_rejected(self, tmp_path):
        rng = np.random.default_rng(0)
        make_wav_corpus(tmp_path / "source", rng, 6)
        for name in ("low", "mid"):
            (tmp_path / "target" / name).mkdir(parents=True)
        cfg = config_from_text(
            self._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "out")
        )
        with pytest.raises(ConfigError, match="target_dir"):
            build_data(cfg)


class TestSourceSanityBound:
    def test_single_learner_source_accuracy_above_frozen_floor(self):
        # Frozen regression bound measured during benchmark bring-up: a single
        # pre-trained learner separates the source-domain tones almost
        # perfectly; 80% is the alarm threshold.
        import dataclasses

        from spelaudio.experiment import benchmark_config
        from spelaudio.metrics import accuracy
        from spelaudio.synthetic import gen_synthetic

        cfg = benchmark_config(0)
        spec = dataclasses.replace(
            cfg.synthetic, val_domain="source", n_source=400, n_val=150, n_unlabeled=2, n_test=2
        )
        bundle = gen_synthetic(spec, cfg.stft, cfg.n_mels, seed=0)
        learner_spec = build_learner_specs(cfg, build_data(cfg))[0]
        single, *_ = pretrain(dataclasses.replace(cfg.spel, n_members=1), bundle, [learner_spec])
        score = accuracy(
            avg_predict(single, bundle.validation.inputs).labels, bundle.validation.targets
        )
        assert score > 0.8


# --- refusals that name their cause -----------------------------------------


def _corpus(root, classes=("low", "mid")):
    make_wav_corpus(root, np.random.default_rng(0), 6, classes=classes)


def _empty_classes(root):
    for name in ("low", "mid"):
        (root / name).mkdir(parents=True)


def _corpus_and(extra):
    """A corpus whose directory also holds extra: 'checkpoints' for a
    subdirectory with no .wav file, 'loose' for a .wav file beside the
    class subdirectories."""

    def make(root):
        _corpus(root)
        if extra == "checkpoints":
            (root / ".ipynb_checkpoints").mkdir()
            (root / ".ipynb_checkpoints" / "notes-checkpoint.ipynb").write_text("{}")
        else:
            write_wav(root / "loose.wav", Signal(np.zeros(800), 4000))

    return make


def _build_data_on(make_source, make_target, old="", new=""):
    """build_data on the source and target directories that make_source and
    make_target lay out, with old replaced by new in the config text."""

    def refused(tmp_path):
        source, target = tmp_path / "source", tmp_path / "target"
        make_source(source)
        make_target(target)
        text = TestWavDirMode()._config_text(source, target, tmp_path / "out")
        build_data(config_from_text(text.replace(old, new)))

    return refused


def _sweep_without_output_dir(tmp_path):
    cfg = config_from_text(mini_config_text(tmp_path / "out"))
    sweep(dataclasses.replace(cfg, output_dir=None))


def _window_under_one_sample(tmp_path):
    spec = LearnerSpec(input_shape=(8, 12), n_outputs=3, hidden_layers=(4,))
    ensemble = Ensemble((init_params(spec, seed=0),))
    stft_config = StftConfig(n_fft=128, hop=64, win_length=128)
    fb = mel_filterbank(12, 128, 4000)
    sliding_window_predict(ensemble, Signal(np.zeros(2400), 4000), 1e-4, 0.075, stft_config, fb)


_FRACTIONS = "unlabeled_fraction = 0.6"


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (_build_data_on(TestWavDirMode._flat_target, _corpus), ConfigError,
         r"^{source}: need class subdirectories \(found 0\)$"),
        (_build_data_on(_empty_classes, _corpus), ConfigError, r"^{source}: no \.wav files found$"),
        (_build_data_on(_corpus, lambda root: _corpus(root, ("low", "top"))), ConfigError,
         r"^{target}: class subdirectories \['low', 'top'\] do not match the source classes "
         r"\['low', 'mid'\]$"),
        (_build_data_on(_corpus_and("checkpoints"), _corpus), ConfigError,
         r"^{source}[/\\]\.ipynb_checkpoints: a class subdirectory with no \.wav file$"),
        (_build_data_on(_corpus, _corpus_and("checkpoints")), ConfigError,
         r"^{target}[/\\]\.ipynb_checkpoints: a class subdirectory with no \.wav file$"),
        (_build_data_on(_corpus_and("loose"), _corpus), ConfigError,
         r"^{source}[/\\]loose\.wav: a \.wav file beside the class subdirectories of {source}$"),
        (_build_data_on(_corpus, _corpus, _FRACTIONS, f"{_FRACTIONS}\ntrain_fraction = 0"),
         ConfigError, r"^train fraction leaves no source training samples$"),
        (_build_data_on(_corpus, _corpus, _FRACTIONS, "unlabeled_fraction = 0.01"),
         ConfigError, r"^unlabeled fraction leaves no unlabeled target samples$"),
        (_build_data_on(_corpus, TestWavDirMode._flat_target, _FRACTIONS,
                        f"{_FRACTIONS}\ntrain_fraction = 0.5\nval_fraction = 0.5"),
         ConfigError, r"^no labeled test data: empty source test split, unlabeled target$"),
        (_sweep_without_output_dir, ConfigError, r"^sweep needs an output_dir$"),
        (_window_under_one_sample, ValueError, r"^window must cover at least one sample$"),
    ],
    ids=["no-class-subdirectories", "classes-without-wavs", "other-target-classes",
         "source-subdirectory-without-wavs", "target-subdirectory-without-wavs",
         "wav-beside-class-subdirectories",
         "no-training-clip", "no-pool-clip", "no-labeled-test-data", "sweep-without-output-dir",
         "window-under-one-sample"],
)
def test_refusals_name_their_cause_before_any_clip_is_decoded(
    tmp_path, monkeypatch, refused, error, message
):
    """Each refusal of a WAV layout, a sweep or a scan window says what is
    wrong, naming the directory where one is at fault."""
    decoded = []
    monkeypatch.setattr(experiment, "load_wav", lambda path: decoded.append(path))
    paths = {name: re.escape(str(tmp_path / name)) for name in ("source", "target")}
    with pytest.raises(error, match=message.format(**paths)):
        refused(tmp_path)
    assert decoded == []


def test_a_synthetic_config_built_in_code_is_checked_before_any_clip_is_rendered(monkeypatch):
    """build_data checks what the sample rate fixes, as the parse does, and
    renders no clip and forks no process for a config that fails it."""
    rendered = []
    monkeypatch.setattr(synthetic, "_synthesize", lambda *args: rendered.append(args))
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(engine.os, "fork", lambda: pytest.fail("build_data forked"))
    rate = r"^\[synthetic\] sample_rate = 8000: "
    for change, message in (
        (dict(conv_specs=(((4, 99, 1),),)),
         r"\[learner\] conv = 4x99x1: conv layer 0: kernel 99 exceeds feature map 17x32$"),
        (dict(fmax=5000.0),
         r"\[dsp\] fmax = 5000.0: fmax=5000.0 exceeds the Nyquist frequency 4000.0$"),
    ):
        config = dataclasses.replace(experiment.benchmark_config(0), **change)
        with pytest.raises(ConfigError, match=rate + message):
            build_data(config)
    assert rendered == []


def _odd_data_chunk(raw: bytes) -> bytes:
    """The WAV bytes raw with a data chunk that declares one byte less."""
    at = raw.index(b"data") + 4
    (size,) = struct.unpack_from("<I", raw, at)
    return raw[:at] + struct.pack("<I", size - 1) + raw[at + 4:]


def _wav_dir_config(tmp_path):
    make_wav_corpus(tmp_path / "source", np.random.default_rng(0), 10)
    make_wav_corpus(tmp_path / "target", np.random.default_rng(1), 10, offset=30.0)
    return config_from_text(
        TestWavDirMode()._config_text(tmp_path / "source", tmp_path / "target", tmp_path / "out")
    )


def test_a_malformed_file_is_named_by_its_path(tmp_path):
    config = _wav_dir_config(tmp_path)
    bad = tmp_path / "target" / "mid" / "clip_03.wav"
    bad.write_bytes(_odd_data_chunk(bad.read_bytes()))
    with pytest.raises(
        WavFormatError,
        match=rf"^{re.escape(str(bad))}: data chunk: size is not a multiple of the sample width$",
    ):
        build_data(config)


class TestStoreFill:
    """build_data fills its store in k = min(rows, usable CPUs) contiguous
    blocks of rows: the first in this process, each other in a process
    forked for it."""

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: n)

    @staticmethod
    def _config(tmp_path, case):
        if case == "wav-dir":
            return _wav_dir_config(tmp_path)
        task = "multilabel" if case == "multilabel" else "multiclass"
        text = mini_config_text(tmp_path / "out", task=task)
        if case == "no-validation":
            text = text.replace("val_samples = 30", "val_samples = 0")
        return config_from_text(text)

    @pytest.mark.parametrize("case", ["multiclass", "no-validation", "multilabel", "wav-dir"])
    def test_stores_on_1_2_and_3_cpus_are_equal(self, tmp_path, monkeypatch, case):
        config = self._config(tmp_path, case)
        forks, fork = [], os.fork
        monkeypatch.setattr(engine.os, "fork", lambda: forks.append(1) or fork())
        built = {}
        for cpus in (1, 2, 3):
            self._cpus(monkeypatch, cpus)
            built[cpus] = data = build_data(config)
            assert len(forks) == cpus - 1
            forks.clear()
            assert_splits_view_one_read_only_store(data)
            # each block edge falls inside a split, so a block starts mid-split
            starts = {r.start for r in data.rows.values()}
            n = len(data.images)
            assert not starts & {n * w // cpus for w in range(1, cpus)}
        want = built[1]
        for got in (built[2], built[3]):
            assert got.images.tobytes() == want.images.tobytes()
            assert dict(got.rows) == dict(want.rows)
            for name in ("labeled", "validation", "test"):
                got_split, want_split = getattr(got, name), getattr(want, name)
                if want_split is None:
                    assert got_split is None
                else:
                    assert np.array_equal(got_split.targets, want_split.targets)
            if want.unlabeled_truth is None:
                assert got.unlabeled_truth is None
            else:
                assert np.array_equal(got.unlabeled_truth, want.unlabeled_truth)
        assert_no_child_left()

    def _store_order(self, tmp_path, monkeypatch, config):
        """The file of each store row, as one process decodes them."""
        self._cpus(monkeypatch, 1)
        decoded = TestWavDirMode._count_decodes(monkeypatch, tmp_path / "order.log")
        build_data(config)
        monkeypatch.setattr(experiment, "load_wav", load_wav)
        return decoded()

    def test_the_lowest_failing_row_raises_as_it_would_in_one_process(self, tmp_path, monkeypatch):
        """Two files turn malformed after the header pass, in the second and
        the third of three blocks; the lower row's error raises in this
        process, the type and message the serial loop raises."""
        config = _wav_dir_config(tmp_path)
        order = self._store_order(tmp_path, monkeypatch, config)
        second, third = (len(order) * w // 3 for w in (1, 2))
        assert second < third - 2
        bad = Path(order[third - 2]), Path(order[third + 1])  # in the second and third blocks
        intact = {path: path.read_bytes() for path in bad}
        fill = experiment.fill_store

        def fill_after_damage(*args):
            for path, raw in intact.items():
                path.write_bytes(_odd_data_chunk(raw))
            return fill(*args)

        monkeypatch.setattr(experiment, "fill_store", fill_after_damage)
        raised = {}
        for cpus in (1, 3):
            self._cpus(monkeypatch, cpus)
            with pytest.raises(WavFormatError) as info:
                build_data(config)
            raised[cpus] = type(info.value), str(info.value)
            for path, raw in intact.items():
                path.write_bytes(raw)
        want = f"{order[third - 2]}: data chunk: size is not a multiple of the sample width"
        assert raised[3] == raised[1] == (WavFormatError, want)
        assert_no_child_left()

    def test_a_killed_block_names_the_file_it_was_rendering(self, tmp_path, monkeypatch):
        """A killed process has sent back each row it finished, so the row
        it was rendering, here its block's second, is the lowest that may
        be unfilled."""
        config = _wav_dir_config(tmp_path)
        order = self._store_order(tmp_path, monkeypatch, config)
        victim = order[len(order) // 2 + 1]  # the second row of the second of two blocks
        parent = os.getpid()

        def load_or_die(path):
            if str(path) == victim:
                assert os.getpid() != parent, "the second block renders in a forked process"
                os.kill(os.getpid(), signal.SIGKILL)
            return load_wav(path)

        monkeypatch.setattr(experiment, "load_wav", load_or_die)
        self._cpus(monkeypatch, 2)
        with pytest.raises(
            RuntimeError,
            match=rf"^{re.escape(victim)}: the worker process running it was killed by signal "
                  rf"{signal.SIGKILL.value}$",
        ):
            build_data(config)
        assert_no_child_left()
