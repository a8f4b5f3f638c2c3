"""Golden digests of conv members trained at the wav-corpus geometry, so a
rewrite of the conv stem can prove it trains the same bytes: a 243x256 mel
image, a 4x8x8 stem, and the two hidden groups (16 and 32) of that workload."""

import hashlib

import numpy as np
import pytest

from spelaudio.learner import LearnerSpec, forward, init_adam, init_params, train


def _digest(arr):
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _trained_digests(hidden):
    rng = np.random.default_rng(31)
    images = rng.uniform(size=(40, 243, 256))
    labels = rng.integers(0, 6, size=40)
    spec = LearnerSpec((243, 256), 6, hidden_layers=(hidden,), conv_stem=((4, 8, 8),))
    params = init_params(spec, seed=hidden)
    state = init_adam(params, learning_rate=1e-3)
    # 40 images at batch 16: two full batches and one of 8 per epoch.
    params, state = train(params, images, labels, epochs=1, batch_size=16, state=state, seed=5)
    out = {"step": params.step}
    for name in params.tensors:
        out[f"param/{name}"] = _digest(params.tensors[name])
        out[f"adam/m/{name}"] = _digest(state.m[name])
        out[f"adam/v/{name}"] = _digest(state.v[name])
    out["forward"] = _digest(forward(params, images[:7]))
    return out


GOLDEN = {
    16: {
        "step": 3,
        "param/conv0_w": "0ba05edf9790c019",
        "adam/m/conv0_w": "36006157117c2064",
        "adam/v/conv0_w": "a1d52290ae874347",
        "param/conv0_b": "154e09b247eb0a59",
        "adam/m/conv0_b": "ff1f3bdce3a9bffb",
        "adam/v/conv0_b": "8575a5477e2b6689",
        "param/dense0_w": "ebee1f5d9529588d",
        "adam/m/dense0_w": "0e30fa13c9dbe600",
        "adam/v/dense0_w": "4142af079f9773c2",
        "param/dense0_b": "1f34decf88e69c19",
        "adam/m/dense0_b": "742c9996872b6081",
        "adam/v/dense0_b": "92e5f510ac65eae5",
        "param/out_w": "b186aa3c98ff071a",
        "adam/m/out_w": "98b4ebf67496aa67",
        "adam/v/out_w": "ef8ae838f7e808a9",
        "param/out_b": "aad7a3cd3ddd72bf",
        "adam/m/out_b": "0a362e1f5dc874f2",
        "adam/v/out_b": "860cfa23878ded08",
        "forward": "1e9a6d952952cd5a",
    },
    32: {
        "step": 3,
        "param/conv0_w": "b7e49c42551e9096",
        "adam/m/conv0_w": "34788bf997fc7f42",
        "adam/v/conv0_w": "b1f3207d7a21bcbb",
        "param/conv0_b": "b19ce531eff691b2",
        "adam/m/conv0_b": "6f3188d5fda0149e",
        "adam/v/conv0_b": "2f8414125ae8908f",
        "param/dense0_w": "d1ca004b770d4cb7",
        "adam/m/dense0_w": "b8e19a5bc3054eff",
        "adam/v/dense0_w": "388d129fb591d6a1",
        "param/dense0_b": "128c3159afc9971a",
        "adam/m/dense0_b": "2e0b58b04ede1d1b",
        "adam/v/dense0_b": "a9362c277bd39121",
        "param/out_w": "944baf813334e5dc",
        "adam/m/out_w": "55098d4e56c615ad",
        "adam/v/out_w": "0de6a35ac71ad5f8",
        "param/out_b": "826fa9f8be334ee0",
        "adam/m/out_b": "8d09993f43764419",
        "adam/v/out_b": "fd9f08467a597a7d",
        "forward": "a77876d592bea160",
    },
}


@pytest.mark.parametrize("hidden", [16, 32])
def test_wav_corpus_members_match_golden_digests(hidden):
    assert _trained_digests(hidden) == GOLDEN[hidden]
