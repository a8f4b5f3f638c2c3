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
        "param/conv0_w": "ba2b7ad2e1f644cc",
        "adam/m/conv0_w": "4d8604ea1b953aa2",
        "adam/v/conv0_w": "3d49fb5763b52df6",
        "param/conv0_b": "10363d2bf289d7eb",
        "adam/m/conv0_b": "5ebecc3946604454",
        "adam/v/conv0_b": "608100e3a5fddc98",
        "param/dense0_w": "4c8e4e8bb5fc5ca1",
        "adam/m/dense0_w": "2634ba65441a429e",
        "adam/v/dense0_w": "ecb584ff3a3a9120",
        "param/dense0_b": "318bf94419ed6da5",
        "adam/m/dense0_b": "c357578d447e3263",
        "adam/v/dense0_b": "2486841bb1901171",
        "param/out_w": "ec729b7da8409747",
        "adam/m/out_w": "d83a1ef44ee85652",
        "adam/v/out_w": "7dc2675d269606ef",
        "param/out_b": "88a61132eec081fe",
        "adam/m/out_b": "7401313d08c2f5fe",
        "adam/v/out_b": "36d89c9cbeda7367",
        "forward": "216dc21d08c897ed",
    },
    32: {
        "step": 3,
        "param/conv0_w": "7cbc53a1dfd56384",
        "adam/m/conv0_w": "1788bba8ee3dbf71",
        "adam/v/conv0_w": "ff85346063ebc7c9",
        "param/conv0_b": "6297361e4703d429",
        "adam/m/conv0_b": "660cd2f98e7c70cc",
        "adam/v/conv0_b": "23299a243ab3a8f4",
        "param/dense0_w": "05ee65a1fd532936",
        "adam/m/dense0_w": "1bfeb0202bfb582c",
        "adam/v/dense0_w": "30405ec414ae2e4f",
        "param/dense0_b": "410964b59a403264",
        "adam/m/dense0_b": "4ce3c3a6d7193e06",
        "adam/v/dense0_b": "9011552445dd505b",
        "param/out_w": "1aa21291851bf91f",
        "adam/m/out_w": "349dcb4dc1651c51",
        "adam/v/out_w": "6a55984e87718193",
        "param/out_b": "3044bb5c95a99ba6",
        "adam/m/out_b": "faf8f844b1592132",
        "adam/v/out_b": "17362fb652c092c0",
        "forward": "b5d46696950377a3",
    },
}


@pytest.mark.parametrize("hidden", [16, 32])
def test_wav_corpus_members_match_golden_digests(hidden):
    assert _trained_digests(hidden) == GOLDEN[hidden]
