"""Golden digests of whole self-paced runs, so a rewrite of the engine, the
learner or the data path can prove it computes the same bytes: a mini
dense run and a mini conv run on the shared synthetic bundle, two members
and two rounds each. Every round's member tensors (in name order) and
pseudo set are hashed, as are the baseline and final test probabilities."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spelaudio.engine import load_round, run_spel
from spelaudio.learner import LearnerSpec

from conftest import mini_spel_config


def _digest(arr):
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _specs(bundle, kind):
    shape = bundle.labeled.inputs.shape[1:]
    if kind == "dense":
        return [
            LearnerSpec(shape, 3, hidden_layers=(16,)),
            LearnerSpec(shape, 3, hidden_layers=(8, 6)),
        ]
    return [
        LearnerSpec(shape, 3, hidden_layers=(12,), conv_stem=((3, 3, 1),)),
        LearnerSpec(shape, 3, hidden_layers=(10,), conv_stem=((2, 3, 2), (3, 2, 1))),
    ]


def _run_digests(bundle, kind, ckpt):
    config = mini_spel_config(n_steps=2, per_step=20)
    specs = _specs(bundle, kind)
    result = run_spel(bundle, config, specs, checkpoint_dir=ckpt)
    out = {
        "baseline": _digest(result.baseline_prediction.probabilities),
        "final": _digest(result.prediction.probabilities),
    }
    for j in range(config.n_steps + 1):
        ensemble, _, report = load_round(ckpt, j, config=config, specs=specs)
        pseudo = report.pseudo
        h = hashlib.sha256()
        for member in ensemble.members:
            for name in sorted(member.tensors):
                h.update(_digest(member.tensors[name]).encode())
        out[f"r{j}/members"] = h.hexdigest()[:16]
        if pseudo is not None:
            for field in ("ids", "labels", "confidences"):
                out[f"r{j}/{field}"] = _digest(getattr(pseudo, field))
    return out


GOLDEN = {
    "dense": {
        "baseline": "867c26f0af776a07",
        "final": "66888e966c744b3a",
        "r0/members": "e9a881aafaeb146a",
        "r1/members": "9019a50e918d0a59",
        "r1/ids": "6ae0a641091b4c7c",
        "r1/labels": "5d75a2e5aeaaa567",
        "r1/confidences": "ac48c5d55fccfff0",
        "r2/members": "41992b05660418fa",
        "r2/ids": "d8fcd7cf66f8640f",
        "r2/labels": "c6bb51107d2c4648",
        "r2/confidences": "e3457d8abcf4d367",
    },
    "conv": {
        "baseline": "dbeccbad76419e82",
        "final": "93e117208ef22a33",
        "r0/members": "3f4b4420e50975c8",
        "r1/members": "2e100955b8111ba3",
        "r1/ids": "997d18b1e4badef9",
        "r1/labels": "553b32c0b24566a3",
        "r1/confidences": "8387972eaf6281dd",
        "r2/members": "128bca32c0b99ddc",
        "r2/ids": "e191248b0e333d14",
        "r2/labels": "520b0818638c3225",
        "r2/confidences": "66dc2bd1302123d6",
    },
}


@pytest.mark.parametrize("kind", ["dense", "conv"])
def test_mini_run_matches_golden_digests(mini_bundle, tmp_path, kind):
    assert _run_digests(mini_bundle, kind, tmp_path / "ckpt") == GOLDEN[kind]


def test_forked_mini_runs_after_threaded_blas_match_golden_digests(tmp_path):
    """Both mini runs in a fresh interpreter whose BLAS has started two
    threads before the first stage forks a worker: no fork may hang, and
    the digests are the golden ones."""
    tests = Path(__file__).resolve().parent
    script = f"""
import json
import numpy as np
from spelaudio import engine
from spelaudio.synthetic import gen_synthetic
from conftest import MINI_MELS, MINI_STFT, mini_synthetic_spec
from test_run_golden import _run_digests

engine._usable_cpus = lambda: 2
square = np.ones((512, 512))
square @ square  # large enough for BLAS to run on its threads
bundle = gen_synthetic(mini_synthetic_spec(), MINI_STFT, MINI_MELS, seed=1234)
tmp = {str(tmp_path)!r}
print(json.dumps({{kind: _run_digests(bundle, kind, f"{{tmp}}/{{kind}}") for kind in {sorted(GOLDEN)!r}}}))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == GOLDEN
