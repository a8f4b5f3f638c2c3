import numpy as np
import pytest

from spelaudio.dsp import StftConfig
from spelaudio.engine import SpelConfig
from spelaudio.learner import LearnerParams, LearnerSpec
from spelaudio.synthetic import SyntheticSpec, gen_synthetic

# Small end-to-end task shared across engine/harness tests: 3 tone classes,
# tiny clips, enough domain gap to make pseudo-labeling meaningful.
MINI_STFT = StftConfig(n_fft=128, hop=64, win_length=128)
MINI_MELS = 12


def mini_synthetic_spec(**overrides):
    base = dict(
        n_classes=3,
        n_source=90,
        n_val=30,
        n_unlabeled=60,
        n_test=45,
        base_freq=300.0,
        freq_step=250.0,
        n_harmonics=1,
        source_noise=0.05,
        target_freq_offset=40.0,
        target_noise=0.2,
        sample_rate=4000,
        duration=0.15,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def mini_learner_spec(bundle, n_outputs=3, head="multiclass"):
    shape = bundle.labeled.inputs.shape[1:]
    return LearnerSpec(input_shape=shape, n_outputs=n_outputs, hidden_layers=(16,), head=head)


def float64_member(params):
    """params widened to a float64 member, for a check whose tolerance is
    set by double precision (runs build float32 members)."""
    wide = {name: arr.astype(np.float64) for name, arr in params.tensors.items()}
    return LearnerParams(params.spec, wide, params.step)


def mini_spel_config(**overrides):
    base = dict(
        n_members=2,
        n_steps=2,
        per_step=50,
        learning_rate=3e-3,
        pretrain_epochs=2,
        batch_size=16,
        seed=7,
    )
    base.update(overrides)
    return SpelConfig(**base)


@pytest.fixture(scope="session")
def mini_bundle():
    return gen_synthetic(mini_synthetic_spec(), MINI_STFT, MINI_MELS, seed=1234)
