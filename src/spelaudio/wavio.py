"""Minimal RIFF/WAVE ingestion: 16-bit signed little-endian PCM, mono.

Anything else is rejected with an error naming the file and the
offending chunk — no silent resampling or channel mixing. A matching
writer is provided for building corpora and test fixtures.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .dsp import Signal

__all__ = ["WavFormatError", "UnsupportedWavError", "load_wav", "wav_sample_rate", "write_wav"]

_PCM_FORMAT_CODE = 1
_FULL_SCALE = 32768.0


class WavFormatError(ValueError):
    """Malformed RIFF/WAVE container."""


class UnsupportedWavError(WavFormatError):
    """Well-formed file using a codec, bit depth, or channel count we reject."""


def _parse_fmt(payload: bytes):
    if len(payload) < 16:
        raise WavFormatError("fmt chunk: truncated (need at least 16 bytes)")
    audio_format, channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", payload[:16])
    if audio_format != _PCM_FORMAT_CODE:
        raise UnsupportedWavError(
            f"fmt chunk: unsupported audio format code {audio_format} (only PCM = 1)"
        )
    if channels != 1:
        raise UnsupportedWavError(f"fmt chunk: {channels} channels (only mono supported)")
    if bits != 16:
        raise UnsupportedWavError(f"fmt chunk: {bits}-bit samples (only 16-bit supported)")
    if sample_rate < 1:
        raise WavFormatError(f"fmt chunk: invalid sample rate {sample_rate}")
    return sample_rate


def _walk(raw: bytes) -> tuple[int, bytes]:
    """The sample rate and the data chunk payload of a RIFF/WAVE file's bytes."""
    if len(raw) < 12:
        raise WavFormatError("RIFF header: file shorter than 12 bytes")
    if raw[0:4] != b"RIFF":
        raise WavFormatError(f"RIFF header: bad magic {raw[0:4]!r}")
    if raw[8:12] != b"WAVE":
        raise WavFormatError(f"RIFF header: form type {raw[8:12]!r} is not WAVE")

    sample_rate = None
    offset = 12
    while offset + 8 <= len(raw):
        chunk_id = raw[offset : offset + 4]
        (size,) = struct.unpack_from("<I", raw, offset + 4)
        payload_start = offset + 8
        if payload_start + size > len(raw):
            raise WavFormatError(
                f"{chunk_id.decode('ascii', 'replace').strip()} chunk: declared size "
                f"{size} runs past the end of the file"
            )
        payload = raw[payload_start : payload_start + size]
        if chunk_id == b"fmt ":
            sample_rate = _parse_fmt(payload)
        elif chunk_id == b"data":
            if sample_rate is None:
                raise WavFormatError("data chunk: encountered before the fmt chunk")
            if size == 0:
                raise WavFormatError("data chunk: empty")
            if size % 2 != 0:
                raise WavFormatError("data chunk: size is not a multiple of the sample width")
            return sample_rate, payload
        # other chunks (LIST, fact, ...) are skipped
        offset = payload_start + size + (size % 2)  # chunks are word-aligned

    if sample_rate is None:
        raise WavFormatError("fmt chunk: missing")
    raise WavFormatError("data chunk: missing")


def _read(path) -> tuple[int, bytes]:
    """_walk of the file at path; its error starts with the path."""
    raw = Path(path).read_bytes()
    try:
        return _walk(raw)
    except WavFormatError as err:
        raise type(err)(f"{path}: {err}") from None


def wav_sample_rate(path) -> int:
    """The sample rate of a file load_wav accepts, without decoding its samples."""
    return _read(path)[0]


def load_wav(path) -> Signal:
    """Read a PCM16 mono WAV file into a Signal scaled to [-1, 1]."""
    sample_rate, payload = _read(path)
    samples = np.frombuffer(payload, dtype="<i2").astype(np.float64) / _FULL_SCALE
    return Signal(samples, sample_rate)


def write_wav(path, signal: Signal) -> None:
    """Write a Signal as PCM16 mono; samples are clipped to [-1, 1] first."""
    quantized = np.clip(
        np.rint(np.clip(signal.samples, -1.0, 1.0) * _FULL_SCALE), -32768, 32767
    ).astype("<i2")
    data = quantized.tobytes()
    fmt = struct.pack(
        "<HHIIHH",
        _PCM_FORMAT_CODE,
        1,
        signal.sample_rate,
        signal.sample_rate * 2,
        2,
        16,
    )
    with open(path, "wb") as fh:
        fh.write(b"RIFF")
        fh.write(struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)))
        fh.write(b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", len(data)) + data)
