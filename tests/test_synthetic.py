import numpy as np
import pytest

from spelaudio.synthetic import SyntheticSpec, _draw_tone, _synthesize, gen_synthetic

from conftest import MINI_MELS, MINI_STFT, mini_synthetic_spec
from test_experiment import assert_splits_view_one_read_only_store


class TestSpecValidation:
    def test_harmonics_must_fit_below_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            SyntheticSpec(base_freq=1500.0, freq_step=300.0, n_harmonics=2, sample_rate=8000)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            mini_synthetic_spec(source_noise=-0.1)

    def test_distinct_class_frequencies(self):
        with pytest.raises(ValueError):
            mini_synthetic_spec(freq_step=0.0)

    def test_class_frequency_shift(self):
        spec = mini_synthetic_spec(target_freq_offset=40.0)
        assert spec.class_frequency(1, "target") - spec.class_frequency(1, "source") == 40.0


def _tone(rng, spec, classes, domain):
    return _synthesize(spec, _draw_tone(rng, spec, classes, domain))


class TestTone:
    def test_zero_shift_zero_noise_same_distribution(self):
        # With no domain offset and equal noise, the same rng draws produce
        # bitwise-identical clips for either domain label.
        spec = mini_synthetic_spec(target_freq_offset=0.0, source_noise=0.1, target_noise=0.1)
        a = _tone(np.random.default_rng(5), spec, [1], "source")
        b = _tone(np.random.default_rng(5), spec, [1], "target")
        assert np.array_equal(a, b)

    def test_clip_length(self):
        spec = mini_synthetic_spec()
        assert len(_tone(np.random.default_rng(0), spec, [0], "source")) == spec.clip_samples


class TestGenSynthetic:
    def test_deterministic_under_seed(self):
        spec = mini_synthetic_spec()
        a = gen_synthetic(spec, MINI_STFT, MINI_MELS, seed=9)
        b = gen_synthetic(spec, MINI_STFT, MINI_MELS, seed=9)
        assert np.array_equal(a.labeled.inputs, b.labeled.inputs)
        assert np.array_equal(a.labeled.targets, b.labeled.targets)
        assert np.array_equal(a.unlabeled.inputs, b.unlabeled.inputs)
        assert np.array_equal(a.test.targets, b.test.targets)

    def test_split_sizes_and_shapes(self, mini_bundle):
        spec = mini_synthetic_spec()
        frames = (spec.clip_samples - MINI_STFT.win_length) // MINI_STFT.hop + 1
        assert mini_bundle.labeled.inputs.shape == (spec.n_source, frames, MINI_MELS)
        assert len(mini_bundle.validation) == spec.n_val
        assert len(mini_bundle.unlabeled) == spec.n_unlabeled
        assert mini_bundle.test.inputs.shape[0] == spec.n_test
        assert mini_bundle.unlabeled_truth.shape == (spec.n_unlabeled,)

    @pytest.mark.parametrize("n_val", [30, 0])
    def test_every_split_views_one_read_only_store(self, n_val):
        data = gen_synthetic(mini_synthetic_spec(n_val=n_val), MINI_STFT, MINI_MELS, seed=3)
        assert (data.validation is None) == (n_val == 0)
        assert_splits_view_one_read_only_store(data)

    def test_balanced_multiclass_labels(self, mini_bundle):
        counts = np.bincount(mini_bundle.labeled.targets, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_images_normalized(self, mini_bundle):
        assert mini_bundle.labeled.inputs.min() >= -1.0
        assert mini_bundle.labeled.inputs.max() <= 1.0

    def test_multilabel_rows_nonempty(self):
        spec = mini_synthetic_spec(task="multilabel", label_density=0.25)
        bundle = gen_synthetic(spec, MINI_STFT, MINI_MELS, seed=3)
        assert bundle.labeled.targets.shape == (spec.n_source, spec.n_classes)
        assert bundle.labeled.targets.sum(axis=1).min() >= 1
        assert bundle.test.targets.sum(axis=1).min() >= 1

    def test_val_domain_source(self):
        spec = mini_synthetic_spec(val_domain="source", n_val=12)
        bundle = gen_synthetic(spec, MINI_STFT, MINI_MELS, seed=2)
        assert len(bundle.validation) == 12

    def test_no_validation_split(self):
        spec = mini_synthetic_spec(n_val=0)
        bundle = gen_synthetic(spec, MINI_STFT, MINI_MELS, seed=2)
        assert bundle.validation is None

    def test_clip_shorter_than_window_rejected(self):
        spec = mini_synthetic_spec(duration=0.01)
        with pytest.raises(ValueError, match="^signal of 40 samples is shorter than the 128-"):
            gen_synthetic(spec, MINI_STFT, MINI_MELS, seed=0)

    def test_unlabeled_ids_are_range(self, mini_bundle):
        assert np.array_equal(mini_bundle.unlabeled.ids, np.arange(len(mini_bundle.unlabeled)))
