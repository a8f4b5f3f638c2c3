"""Golden digests of every array build_data returns, so a refactor of data
assembly can prove it hands the run the same bytes: a mini synthetic
config, a mini class-subdirectory WAV corpus, and a flat WAV target."""

import hashlib

import numpy as np
import pytest

from spelaudio.config import config_from_text
from spelaudio.dsp import Signal
from spelaudio.experiment import build_data
from spelaudio.wavio import write_wav

from test_experiment import mini_config_text

WAV_CONFIG = """
[experiment]
task = multiclass
source = wav-dir
seed = 4

[dsp]
n_fft = 128
hop = 64
win_length = 128
n_mels = 10
clip_seconds = 0.2

[data]
source_dir = source
target_dir = {target}
unlabeled_fraction = 0.6
"""


def _write_tones(folder, rng, n, freq, rate=4000):
    folder.mkdir(parents=True)
    t = np.arange(700) / rate
    for i in range(n):
        x = 0.8 * np.sin(2 * np.pi * freq * t + rng.uniform(0, 6.28))
        x += rng.normal(0, 0.05, size=len(t))
        write_wav(folder / f"clip_{i:02d}.wav", Signal(np.clip(x, -1, 1), rate))


def _corpus(root, target_layout):
    rng = np.random.default_rng(11)
    for name, freq in (("low", 400.0), ("mid", 900.0)):
        _write_tones(root / "source" / name, rng, 9, freq)
    if target_layout == "classes":
        for name, freq in (("low", 430.0), ("mid", 930.0)):
            _write_tones(root / "target" / name, rng, 7, freq)
    else:
        _write_tones(root / "target", rng, 8, 650.0)
    return config_from_text(WAV_CONFIG.format(target="target"), base_dir=root)


def _digests(data):
    arrays = {
        "labeled.inputs": data.labeled.inputs,
        "labeled.targets": data.labeled.targets,
        "validation.inputs": None if data.validation is None else data.validation.inputs,
        "validation.targets": None if data.validation is None else data.validation.targets,
        "unlabeled.inputs": data.unlabeled.inputs,
        "unlabeled.ids": data.unlabeled.ids,
        "test_inputs": data.test.inputs,
        "test_truth": data.test.targets,
    }
    out = {"n_classes": data.n_classes}
    for name, arr in arrays.items():
        if arr is None:
            out[name] = None
            continue
        arr = np.ascontiguousarray(arr)
        h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
        out[name] = h.hexdigest()[:16]
    return out


GOLDEN = {
    "synthetic": {
        "n_classes": 3,
        "labeled.inputs": "04d7da7bed54d5f1",
        "labeled.targets": "906ee5e947dbdaec",
        "validation.inputs": "b3036277b75a602b",
        "validation.targets": "e9394aef417cff90",
        "unlabeled.inputs": "056080ecfcdb3f3d",
        "unlabeled.ids": "533fa0c049684809",
        "test_inputs": "c136c5c66090621e",
        "test_truth": "1515fbe1e2190e0e",
    },
    "wav-classes": {
        "n_classes": 2,
        "labeled.inputs": "d409a2d3b48ca696",
        "labeled.targets": "8ef66ff6d14c3017",
        "validation.inputs": "cce16504e7b4f0cf",
        "validation.targets": "9014ff2c922756f0",
        "unlabeled.inputs": "58e24c769c3e1a6c",
        "unlabeled.ids": "84ca4f50986f8594",
        "test_inputs": "4ea3cbaf9aa35dd5",
        "test_truth": "117c5cf9c0df11a7",
    },
    "wav-flat": {
        "n_classes": 2,
        "labeled.inputs": "d409a2d3b48ca696",
        "labeled.targets": "8ef66ff6d14c3017",
        "validation.inputs": "cce16504e7b4f0cf",
        "validation.targets": "9014ff2c922756f0",
        "unlabeled.inputs": "bf50678eab5cee29",
        "unlabeled.ids": "84ca4f50986f8594",
        "test_inputs": "a87b9855ac89026a",
        "test_truth": "ab7bdf37917a7611",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_build_data_arrays_match_golden_digests(case, tmp_path):
    if case == "synthetic":
        config = config_from_text(mini_config_text(tmp_path / "out"))
    else:
        config = _corpus(tmp_path, "classes" if case == "wav-classes" else "flat")
    assert _digests(build_data(config)) == GOLDEN[case]
