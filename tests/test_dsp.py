import math

import numpy as np
import pytest

from spelaudio import dsp
from spelaudio.dsp import (
    MelFilterbank,
    Signal,
    StftConfig,
    fix_length,
    frame_count,
    hz_to_mel,
    mel_filterbank,
    normalize_minmax,
    power_to_db,
    preprocess,
    stft,
)

from test_frontend_golden import PREPROCESS_CASES


def stft_direct(x, config):
    """Brute-force transform oracle: per frame and bin, sum the windowed
    signal against a complex exponential over *absolute* sample indices.
    Deliberately avoids any FFT machinery."""
    win = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(config.win_length) / config.win_length))
    n_frames = (len(x) - config.win_length) // config.hop + 1
    bins = np.arange(config.n_fft // 2 + 1)
    out = np.empty((n_frames, bins.size), dtype=np.complex128)
    for m in range(n_frames):
        n = m * config.hop + np.arange(config.win_length)
        phases = np.exp(-2j * np.pi * np.outer(bins, n) / config.n_fft)
        out[m] = phases @ (x[n] * win)
    return out


class TestSignal:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signal(np.array([]), 16000)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(4), 0)


class TestFixLength:
    def test_zero_right_pad(self):
        out = fix_length(Signal(np.array([1.0, 2.0, 3.0]), 8000), 5)
        assert np.array_equal(out.samples, [1.0, 2.0, 3.0, 0.0, 0.0])

    def test_symmetric_center_crop(self):
        out = fix_length(Signal(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 8000), 3)
        assert np.array_equal(out.samples, [2.0, 3.0, 4.0])

    def test_odd_surplus_trims_extra_from_end(self):
        out = fix_length(Signal(np.arange(1.0, 7.0), 8000), 3)
        assert np.array_equal(out.samples, [2.0, 3.0, 4.0])

    def test_identity_when_lengths_match(self):
        x = np.random.default_rng(0).normal(size=64000)
        sig = Signal(x, 16000)
        out = fix_length(sig, 64000)
        assert out is sig
        assert len(out) == 64000


class TestStft:
    def test_zero_signal_zero_spectrum(self):
        cfg = StftConfig(n_fft=256, hop=64, win_length=128)
        spec = stft(Signal(np.zeros(1024), 8000), cfg)
        assert np.all(spec == 0)

    def test_frame_count_law(self):
        cfg = StftConfig(n_fft=1024, hop=64, win_length=512)
        assert frame_count(4096, cfg) == (4096 - 512) // 64 + 1
        spec = stft(Signal(np.ones(4096), 16000), cfg)
        assert spec.shape == (frame_count(4096, cfg), 513)
        assert spec.dtype == np.complex128

    def test_too_short_signal_raises(self):
        cfg = StftConfig(n_fft=512, hop=128, win_length=512)
        with pytest.raises(ValueError):
            stft(Signal(np.ones(511), 8000), cfg)

    def test_bin_centered_cosine_concentrates(self):
        # A cosine exactly on bin 8, analyzed with win_length == n_fft, leaks
        # only into the raised-cosine kernel's three bins {7, 8, 9}; all other
        # bins are numerically zero relative to the peak.
        n = 256
        cfg = StftConfig(n_fft=n, hop=n, win_length=n)
        t = np.arange(n)
        x = np.cos(2.0 * np.pi * 8.0 * t / n)
        mag = np.abs(stft(Signal(x, 8000), cfg)[0])
        peak = mag[8]
        others = np.delete(mag, [7, 8, 9])
        assert peak > 0
        assert others.max() <= 1e-9 * peak
        # Hann side bins carry half the peak weight.
        assert mag[7] == pytest.approx(0.5 * peak, rel=1e-9)
        assert mag[9] == pytest.approx(0.5 * peak, rel=1e-9)

    def test_matches_direct_summation_oracle(self):
        cfg = StftConfig(n_fft=1024, hop=64, win_length=512)
        x = np.random.default_rng(7).normal(size=4096)
        got = stft(Signal(x, 16000), cfg)
        want = stft_direct(x, cfg)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_linearity(self):
        cfg = StftConfig(n_fft=256, hop=32, win_length=128)
        rng = np.random.default_rng(3)
        x = rng.normal(size=1500)
        y = rng.normal(size=1500)
        a, b = 0.37, -1.91
        combined = stft(Signal(a * x + b * y, 8000), cfg)
        separate = a * stft(Signal(x, 8000), cfg) + b * stft(Signal(y, 8000), cfg)
        scale = np.abs(separate).max()
        assert np.max(np.abs(combined - separate)) < 1e-9 * scale

    def test_hop_delay_shifts_frames(self):
        # Delaying by one hop shifts the frame axis; with the absolute-time
        # phase reference the delayed frames carry a constant per-bin rotation,
        # so the comparison is on magnitudes.
        cfg = StftConfig(n_fft=256, hop=64, win_length=128)
        rng = np.random.default_rng(11)
        x = rng.normal(size=2000)
        delayed = np.concatenate([np.zeros(cfg.hop), x])
        orig = np.abs(stft(Signal(x, 8000), cfg))
        shifted = np.abs(stft(Signal(delayed, 8000), cfg))
        assert shifted.shape[0] == orig.shape[0] + 1
        assert np.max(np.abs(shifted[1:] - orig)) < 1e-9

    def test_cached_constants_are_read_only(self):
        cfg = StftConfig(n_fft=256, hop=64, win_length=128)
        stft(Signal(np.ones(1000), 8000), cfg)
        window, rotation = dsp._frame_constants(frame_count(1000, cfg), cfg)
        assert rotation.shape == (frame_count(1000, cfg), cfg.n_bins)
        with pytest.raises(ValueError, match="read-only"):
            window[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            rotation[0, 0] = 1.0

    def test_alternating_geometries_and_lengths_match_cold_calls(self):
        rng = np.random.default_rng(13)
        a = StftConfig(n_fft=256, hop=64, win_length=128)
        b = StftConfig(n_fft=512, hop=32, win_length=256)
        # A, B, A at another length, then A at the first length again.
        calls = [
            (a, rng.normal(size=1500)),
            (b, rng.normal(size=2200)),
            (a, rng.normal(size=900)),
            (a, rng.normal(size=1500)),
        ]
        warm = [stft(Signal(x, 8000), cfg).tobytes() for cfg, x in calls]
        for (cfg, x), got in zip(calls, warm):
            dsp._frame_constants.cache_clear()
            assert stft(Signal(x, 8000), cfg).tobytes() == got


class TestPowerToDb:
    def test_unit_power_is_zero_db(self):
        assert power_to_db(np.array([[1.0]]))[0, 0] == 0.0

    def test_hundred_is_twenty_db(self):
        assert power_to_db(np.array([[100.0]]))[0, 0] == pytest.approx(20.0, abs=1e-12)

    def test_eps_floor_then_top_db_clip(self):
        out = power_to_db(np.array([1.0, 1e-12]))
        assert out[0] == 0.0
        assert out[1] == -80.0

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            power_to_db(np.array([1.0, -0.5]))


class TestMelFilterbank:
    def test_mel_of_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_mel_of_700(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * math.log10(2.0), abs=1e-12)
        assert hz_to_mel(700.0) == pytest.approx(781.17, abs=0.01)

    def test_default_bank_shape_and_peaks(self):
        fb = mel_filterbank(256, 1024, 16000)
        assert fb.weights.shape == (256, 513)
        assert np.allclose(fb.weights.max(axis=1), 1.0)
        assert np.all(fb.weights >= 0)

    def test_filters_ordered_by_center_frequency(self):
        fb = mel_filterbank(40, 512, 16000)
        centers = np.argmax(fb.weights, axis=1)
        assert np.all(np.diff(centers) >= 0)

    def test_coverage_of_interior_bins(self):
        fb = mel_filterbank(256, 1024, 16000)
        bin_hz = np.arange(513) * (16000 / 1024)
        interior = (bin_hz > 0) & (bin_hz < 8000)
        assert np.all(fb.weights.sum(axis=0)[interior] > 0)

    def test_fmax_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            mel_filterbank(32, 512, 16000, fmax=9000.0)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            mel_filterbank(32, 512, 16000, fmin=5000.0, fmax=4000.0)


def _scattered_bank(n_mels=40, n_fft=256, rate=8000):
    """A valid filterbank whose filters are not banded: each takes a few
    random bins anywhere in the spectrum, and the first takes both ends."""
    rng = np.random.default_rng(21)
    n_bins = n_fft // 2 + 1
    weights = np.zeros((n_mels, n_bins))
    for row in weights:
        row[rng.choice(n_bins, size=3, replace=False)] = rng.uniform(0.1, 1.0, size=3)
    weights[0, [0, n_bins - 1]] = 1.0
    return MelFilterbank(weights, rate)


class TestProjection:
    BANKS = {
        "default": lambda: mel_filterbank(256, 1024, 16000),
        "benchmark-32": lambda: mel_filterbank(32, 256, 8000),
        "fmin-and-fmax-inside": lambda: mel_filterbank(64, 1024, 16000, fmin=300.0, fmax=6000.0),
        "nearest-bin-fallback": lambda: mel_filterbank(96, 128, 8000, fmax=2000.0),
        "scattered": _scattered_bank,
    }

    @pytest.mark.parametrize("name", list(BANKS))
    def test_equals_dense_product(self, name):
        fb = self.BANKS[name]()
        power = np.random.default_rng(3).exponential(size=(37, fb.weights.shape[1])) ** 3
        want = power @ fb.weights.T
        got = fb.project(power)
        assert got.shape == (37, fb.n_mels)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    def test_fallback_bank_has_single_bin_filters(self):
        fb = self.BANKS["nearest-bin-fallback"]()
        assert np.any(np.count_nonzero(fb.weights, axis=1) == 1)

    def test_default_blocks_cover_only_their_bands(self):
        fb = mel_filterbank(256, 1024, 16000)
        assert sum(bins.stop - bins.start for _, bins, _ in fb._blocks) == 541

    def test_weights_refuse_writes_and_ignore_the_source_array(self):
        source = mel_filterbank(32, 256, 8000).weights.copy()
        fb = MelFilterbank(source, 8000)
        with pytest.raises(ValueError, match="read-only"):
            fb.weights[0, 0] = 2.0
        power = np.random.default_rng(8).exponential(size=(5, 129))
        want = fb.project(power)
        source[:] = 0.0
        assert np.array_equal(fb.project(power), want)


class TestNormalizeMinmax:
    def test_endpoints_map_to_unit_interval(self):
        assert np.array_equal(normalize_minmax(np.array([0.0, 5.0, 10.0])), [-1.0, 0.0, 1.0])

    def test_constant_maps_to_zeros(self):
        assert np.array_equal(normalize_minmax(np.full((3, 3), 4.2)), np.zeros((3, 3)))

    def test_two_point_case(self):
        assert np.array_equal(normalize_minmax(np.array([-3.0, 1.0])), [-1.0, 1.0])

    def test_exact_extremes_for_nonconstant_input(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.normal(size=(7, 9)) * rng.uniform(0.1, 100)
            out = normalize_minmax(m)
            assert out.min() == -1.0
            assert out.max() == 1.0


class TestPreprocess:
    def _defaults(self):
        cfg = StftConfig(n_fft=1024, hop=64, win_length=512)
        fb = mel_filterbank(256, 1024, 16000)
        return cfg, fb

    def test_zero_signal_gives_zero_image(self):
        cfg, fb = self._defaults()
        img = preprocess(Signal(np.zeros(4000), 16000), cfg, fb, 16000)
        assert np.all(img.values == 0.0)

    def test_default_parameter_shape(self):
        cfg, fb = self._defaults()
        sig = Signal(np.random.default_rng(2).normal(size=64000), 16000)
        img = preprocess(sig, cfg, fb, 64000)
        assert img.values.shape == ((64000 - 512) // 64 + 1, 256)

    def test_entries_within_unit_interval(self):
        cfg, fb = self._defaults()
        sig = Signal(np.random.default_rng(9).normal(size=20000), 16000)
        img = preprocess(sig, cfg, fb, 16000)
        assert img.values.min() >= -1.0
        assert img.values.max() <= 1.0

    def test_bitwise_deterministic(self):
        cfg, fb = self._defaults()
        x = np.random.default_rng(4).normal(size=9000)
        a = preprocess(Signal(x, 16000), cfg, fb, 12000)
        b = preprocess(Signal(x.copy(), 16000), cfg, fb, 12000)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("name", sorted(PREPROCESS_CASES))
    def test_values_are_the_float64_chain_rounded_once_to_float32(self, name):
        config, n_mels, rate, target = PREPROCESS_CASES[name]
        fb = mel_filterbank(n_mels, config.n_fft, rate)
        signal = Signal(np.random.default_rng(11).normal(size=target), rate)
        power = np.abs(stft(signal, config))
        power *= power
        db = power_to_db(fb.project(power))
        lo, hi = db.min(), db.max()
        want = (2.0 * (db - lo) / (hi - lo) - 1.0).astype(np.float32)
        image = preprocess(signal, config, fb, target).values
        assert image.dtype == np.float32
        assert np.array_equal(image, want)
        zeros = preprocess(Signal(np.zeros(target), rate), config, fb, target).values
        assert zeros.dtype == np.float32
        assert np.array_equal(zeros, np.zeros_like(want))

    def test_calls_stft_once_per_clip(self, monkeypatch):
        # perfbench counts frames through dsp.stft, so preprocess must reach it.
        cfg, fb = self._defaults()
        calls = []
        real_stft = dsp.stft

        def counting_stft(signal, config):
            calls.append(len(signal))
            return real_stft(signal, config)

        monkeypatch.setattr(dsp, "stft", counting_stft)
        rng = np.random.default_rng(6)
        for n in (16000, 9000, 20000):
            preprocess(Signal(rng.normal(size=n), 16000), cfg, fb, 16000)
        assert calls == [16000, 16000, 16000]

    @pytest.mark.parametrize("amplitude", [1e200, 1e306])
    def test_finite_signal_whose_power_overflows_is_refused(self, amplitude):
        # At 1e200 the spectrum is finite and its square is not; at 1e306 the
        # spectrum overflows too. Either way the dB are not finite.
        cfg, fb = self._defaults()
        signal = Signal(np.full(16000, amplitude), 16000)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite entries"):
            preprocess(signal, cfg, fb, 16000)

    @pytest.mark.parametrize(
        "rate, n_fft, match",
        [
            (8000, 1024, "8000 Hz differs from the filterbank's 16000 Hz"),
            (
                16000,
                512,
                "n_fft 512 differs from the filterbank's: it gives 257 bins, the weights have 513",
            ),
        ],
    )
    def test_filterbank_mismatch_rejected(self, rate, n_fft, match):
        _, fb = self._defaults()
        assert (fb.sample_rate, fb.n_mels, fb.weights.shape[1]) == (16000, 256, 513)
        cfg = StftConfig(n_fft=n_fft, hop=64, win_length=512)
        with pytest.raises(ValueError, match=match):
            preprocess(Signal(np.ones(rate), rate), cfg, fb, rate)
