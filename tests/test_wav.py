import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spelaudio.dsp import Signal
from spelaudio.wavio import UnsupportedWavError, WavFormatError, load_wav, wav_sample_rate, write_wav


def build_wav(
    data: bytes,
    *,
    audio_format=1,
    channels=1,
    sample_rate=16000,
    bits=16,
    extra_chunks=b"",
    magic=b"RIFF",
    form=b"WAVE",
    data_size=None,
    include_fmt=True,
    fmt_first=True,
):
    fmt_payload = struct.pack(
        "<HHIIHH",
        audio_format,
        channels,
        sample_rate,
        sample_rate * channels * bits // 8,
        channels * bits // 8,
        bits,
    )
    fmt_chunk = b"fmt " + struct.pack("<I", len(fmt_payload)) + fmt_payload if include_fmt else b""
    data_chunk = b"data" + struct.pack("<I", data_size if data_size is not None else len(data)) + data
    body = (
        (fmt_chunk + extra_chunks + data_chunk)
        if fmt_first
        else (data_chunk + fmt_chunk)
    )
    return magic + struct.pack("<I", 4 + len(body)) + form + body


class TestLoadWav:
    def test_all_zero_data_chunk(self, tmp_path):
        path = tmp_path / "zeros.wav"
        path.write_bytes(build_wav(b"\x00" * 64))
        signal = load_wav(path)
        assert np.all(signal.samples == 0.0)
        assert signal.sample_rate == 16000
        assert len(signal) == 32

    def test_scaling_law_extremes(self, tmp_path):
        path = tmp_path / "extremes.wav"
        path.write_bytes(build_wav(struct.pack("<2h", -32768, 32767)))
        signal = load_wav(path)
        assert signal.samples[0] == -1.0
        assert signal.samples[1] == 32767.0 / 32768.0

    def test_sine_round_trip_quantization_bound(self, tmp_path):
        sr = 16000
        t = np.arange(sr) / sr
        original = 0.9 * np.sin(2 * np.pi * 440.0 * t)
        path = tmp_path / "sine.wav"
        write_wav(path, Signal(original, sr))
        loaded = load_wav(path)
        assert loaded.sample_rate == sr
        assert len(loaded) == sr
        assert np.max(np.abs(loaded.samples - original)) < 1.0 / 32768.0

    def test_skips_unrelated_chunks(self, tmp_path):
        extra = b"LIST" + struct.pack("<I", 6) + b"INFOab"
        path = tmp_path / "listy.wav"
        path.write_bytes(build_wav(struct.pack("<3h", 1, 2, 3), extra_chunks=extra))
        signal = load_wav(path)
        assert len(signal) == 3

    def test_rejects_non_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(build_wav(b"\x00" * 4, magic=b"RIFX"))
        with pytest.raises(WavFormatError, match="RIFF header"):
            load_wav(path)

    def test_rejects_non_wave_form(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(build_wav(b"\x00" * 4, form=b"AVI "))
        with pytest.raises(WavFormatError, match="not WAVE"):
            load_wav(path)

    def test_rejects_stereo(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(build_wav(b"\x00" * 8, channels=2))
        with pytest.raises(UnsupportedWavError, match="channels"):
            load_wav(path)

    def test_rejects_non_pcm(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(build_wav(b"\x00" * 8, audio_format=3))
        with pytest.raises(UnsupportedWavError, match="format code 3"):
            load_wav(path)

    def test_rejects_8_bit(self, tmp_path):
        path = tmp_path / "8bit.wav"
        path.write_bytes(build_wav(b"\x00" * 8, bits=8))
        with pytest.raises(UnsupportedWavError, match="16-bit"):
            load_wav(path)

    def test_rejects_truncated_data(self, tmp_path):
        path = tmp_path / "trunc.wav"
        path.write_bytes(build_wav(b"\x00" * 4, data_size=100))
        with pytest.raises(WavFormatError, match="runs past the end"):
            load_wav(path)

    def test_rejects_odd_data_size(self, tmp_path):
        path = tmp_path / "odd.wav"
        path.write_bytes(build_wav(b"\x00" * 5))
        with pytest.raises(WavFormatError, match="sample width"):
            load_wav(path)

    def test_rejects_missing_fmt(self, tmp_path):
        path = tmp_path / "nofmt.wav"
        path.write_bytes(build_wav(b"\x00" * 4, include_fmt=False))
        with pytest.raises(WavFormatError, match="fmt chunk"):
            load_wav(path)

    def test_rejects_data_before_fmt(self, tmp_path):
        path = tmp_path / "order.wav"
        path.write_bytes(build_wav(b"\x00" * 4, fmt_first=False))
        with pytest.raises(WavFormatError, match="before the fmt chunk"):
            load_wav(path)

    def test_rejects_empty_data(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(build_wav(b""))
        with pytest.raises(WavFormatError, match="data chunk: empty"):
            load_wav(path)

    @pytest.mark.parametrize("read", [load_wav, wav_sample_rate], ids=["decode", "header"])
    @pytest.mark.parametrize(
        "raw, error, reason",
        [
            (build_wav(b"\x00" * 5), WavFormatError,
             "data chunk: size is not a multiple of the sample width"),
            (build_wav(b"\x00" * 8, channels=2), UnsupportedWavError,
             "fmt chunk: 2 channels (only mono supported)"),
        ],
        ids=["odd-data-size", "stereo"],
    )
    def test_errors_start_with_the_path(self, tmp_path, read, raw, error, reason):
        path = tmp_path / "clip.wav"
        path.write_bytes(raw)
        with pytest.raises(error, match=rf"^{re.escape(f'{path}: {reason}')}$"):
            read(path)


class TestWriteWav:
    def test_clips_out_of_range_samples(self, tmp_path):
        path = tmp_path / "hot.wav"
        write_wav(path, Signal(np.array([2.0, -2.0, 0.0]), 8000))
        loaded = load_wav(path)
        assert loaded.samples[0] == 32767.0 / 32768.0
        assert loaded.samples[1] == -1.0
        assert loaded.samples[2] == 0.0

    def test_odd_byte_count_padded(self, tmp_path):
        # one sample -> two data bytes, even; three samples stay aligned too
        path = tmp_path / "pad.wav"
        write_wav(path, Signal(np.array([0.5, -0.5, 0.25]), 8000))
        assert len(load_wav(path)) == 3


# Fuzzing: whatever the bytes, the parser returns a Signal or raises
# WavFormatError (UnsupportedWavError included), never another exception.
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)
VALID = build_wav(
    struct.pack("<4h", 1, -2, 3, -4), extra_chunks=b"LIST" + struct.pack("<I", 3) + b"abc\x00"
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.wav"


def _parse_or_reject(path, raw):
    path.write_bytes(raw)
    try:
        signal = load_wav(path)
    except WavFormatError:
        return
    assert isinstance(signal, Signal)
    assert np.all(np.abs(signal.samples) <= 1.0)


class TestFuzzLoadWav:
    @FUZZ
    @given(raw=st.binary(max_size=96))
    def test_random_bytes(self, fuzz_path, raw):
        _parse_or_reject(fuzz_path, raw)

    @FUZZ
    @given(body=st.binary(max_size=96))
    def test_random_chunks_after_a_valid_header(self, fuzz_path, body):
        _parse_or_reject(fuzz_path, b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)

    @FUZZ
    @given(
        edits=st.lists(
            st.tuples(st.integers(0, len(VALID) - 1), st.integers(0, 255)), max_size=6
        ),
        cut=st.integers(0, len(VALID)),
    )
    def test_mutated_valid_file(self, fuzz_path, edits, cut):
        raw = bytearray(VALID)
        for index, value in edits:
            raw[index] = value
        _parse_or_reject(fuzz_path, bytes(raw[: len(VALID) - cut]))

    @FUZZ
    @given(
        fields=st.tuples(
            st.integers(0, 0xFFFF),
            st.integers(0, 0xFFFF),
            st.integers(0, 0xFFFFFFFF),
            st.integers(0, 0xFFFF),
        ),
        data_size=st.integers(0, 0xFFFFFFFF),
        data=st.binary(max_size=16),
    )
    def test_random_header_fields(self, fuzz_path, fields, data_size, data):
        audio_format, channels, sample_rate, bits = fields
        fmt = struct.pack("<HHIIHH", audio_format, channels, sample_rate, 0, 0, bits)
        body = b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", data_size) + data
        _parse_or_reject(fuzz_path, b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
