import numpy as np
import pytest

from spelaudio.ensemble import Ensemble, avg_predict, mean_prediction
from spelaudio.learner import LearnerSpec, forward, init_params


def make_members(n, seed0=0, head="multiclass", n_outputs=3, input_dim=6):
    spec = LearnerSpec(
        input_shape=(1, input_dim), n_outputs=n_outputs, hidden_layers=(5,), head=head
    )
    return [init_params(spec, seed=seed0 + i) for i in range(n)]


def constant_output_member(row, input_dim=4):
    """A member whose softmax output is (approximately) the given row for any input."""
    spec = LearnerSpec(input_shape=(1, input_dim), n_outputs=len(row), hidden_layers=())
    params = init_params(spec, seed=0)
    params.tensors["out_w"][...] = 0.0
    params.tensors["out_b"][...] = np.log(np.asarray(row, dtype=np.float64))
    return params


class TestAvgPredict:
    def test_single_member_identity(self):
        members = make_members(1)
        x = np.random.default_rng(0).normal(size=(7, 1, 6))
        pred = avg_predict(Ensemble(tuple(members)), x)
        assert np.array_equal(pred.probabilities, forward(members[0], x))

    def test_two_member_mean_and_argmax(self):
        a = constant_output_member([0.6, 0.4])
        b = constant_output_member([0.8, 0.2])
        pred = avg_predict(Ensemble((a, b)), np.zeros((3, 1, 4)))
        assert np.allclose(pred.probabilities, [0.7, 0.3], atol=1e-12)
        assert np.all(pred.labels == 0)
        assert np.allclose(pred.confidence, 0.7, atol=1e-12)

    def test_multilabel_threshold_and_decisiveness(self):
        # Averaged row [0.9, 0.1, 0.5]: 0.5 is not above threshold, so the
        # third label stays 0; confidence is mean(|2p-1|) = (0.8+0.8+0)/3.
        spec = LearnerSpec(input_shape=(1, 2), n_outputs=3, hidden_layers=(), head="multilabel")
        member = init_params(spec, seed=0)
        member.tensors["out_w"][...] = 0.0
        p = np.array([0.9, 0.1, 0.5])
        member.tensors["out_b"][...] = np.log(p / (1.0 - p))
        pred = avg_predict(Ensemble((member,)), np.zeros((2, 1, 2)))
        assert np.allclose(pred.probabilities, p, atol=1e-12)
        assert np.array_equal(pred.labels, [[1, 0, 0], [1, 0, 0]])
        assert np.allclose(pred.confidence, (0.8 + 0.8 + 0.0) / 3.0, atol=1e-12)

    def test_rows_sum_to_one(self):
        ensemble = Ensemble(tuple(make_members(5)))
        x = np.random.default_rng(1).normal(size=(40, 1, 6))
        pred = avg_predict(ensemble, x)
        assert np.max(np.abs(pred.probabilities.sum(axis=1) - 1.0)) <= 1e-12

    def test_confidence_bounds_multiclass(self):
        ensemble = Ensemble(tuple(make_members(4, n_outputs=5)))
        x = np.random.default_rng(2).normal(size=(30, 1, 6))
        conf = avg_predict(ensemble, x).confidence
        assert np.all(conf >= 1.0 / 5.0 - 1e-12)
        assert np.all(conf <= 1.0)

    def test_confidence_bounds_multilabel(self):
        ensemble = Ensemble(tuple(make_members(3, head="multilabel", n_outputs=4)))
        x = np.random.default_rng(3).normal(size=(30, 1, 6))
        conf = avg_predict(ensemble, x).confidence
        assert np.all(conf >= 0.0)
        assert np.all(conf <= 1.0)

    def test_identical_members_reproduce_common_output_exactly(self):
        member = make_members(1, seed0=9)[0]
        x = np.random.default_rng(4).normal(size=(11, 1, 6))
        single = forward(member, x)
        for n in (2, 3, 5):
            pred = avg_predict(Ensemble(tuple([member] * n)), x)
            assert np.array_equal(pred.probabilities, single), f"n={n}"

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(())

    def test_mixed_task_rejected(self):
        a = make_members(1, head="multiclass")[0]
        b = make_members(1, head="multilabel")[0]
        with pytest.raises(ValueError):
            Ensemble((a, b))


class TestMeanPrediction:
    """avg_predict is mean_prediction over its members' forwards, which a
    run's stages compute where the members train."""

    @pytest.mark.parametrize("head", ["multiclass", "multilabel"])
    def test_avg_predict_equals_the_mean_of_the_member_forwards_bitwise(self, head):
        ensemble = Ensemble(tuple(make_members(5, seed0=40, head=head, n_outputs=4)))
        x = np.random.default_rng(8).normal(size=(17, 1, 6))
        got = avg_predict(ensemble, x)
        want = mean_prediction(ensemble.task, [forward(m, x) for m in ensemble.members])
        for name in ("probabilities", "labels", "confidence"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("head", ["multiclass", "multilabel"])
    def test_identical_members_reproduce_their_common_output_exactly(self, head):
        member = make_members(1, seed0=9, head=head)[0]
        x = np.random.default_rng(4).normal(size=(11, 1, 6))
        single = forward(member, x)
        for n in (1, 2, 3, 5):
            pred = mean_prediction(head, [single] * n)
            assert pred.probabilities.tobytes() == single.tobytes(), f"n={n}"


class TestPermuteMembers:
    """Averaging makes predictions insensitive to the order of the members."""

    def test_identity_permutation(self):
        members = make_members(3)
        x = np.random.default_rng(4).normal(size=(9, 1, 6))
        base = avg_predict(Ensemble(tuple(members)), x)
        same = avg_predict(Ensemble(tuple(members[i] for i in [0, 1, 2])), x)
        assert np.array_equal(same.probabilities, base.probabilities)

    def test_any_permutation_preserves_probabilities(self):
        members = make_members(5, seed0=20)
        x = np.random.default_rng(5).normal(size=(25, 1, 6))
        base = avg_predict(Ensemble(tuple(members)), x)
        rng = np.random.default_rng(6)
        for _ in range(5):
            perm = rng.permutation(5)
            shuffled = avg_predict(Ensemble(tuple(members[i] for i in perm)), x)
            assert np.max(np.abs(shuffled.probabilities - base.probabilities)) <= 1e-15

    def test_reversal_preserves_confidence(self):
        members = make_members(5, seed0=30)
        x = np.random.default_rng(7).normal(size=(15, 1, 6))
        base = avg_predict(Ensemble(tuple(members)), x)
        reversed_pred = avg_predict(Ensemble(tuple(reversed(members))), x)
        assert np.max(np.abs(reversed_pred.confidence - base.confidence)) <= 1e-15
