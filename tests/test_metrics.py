import numpy as np
import pytest

from spelaudio.metrics import (
    CHI2_CRITICAL_P01,
    DEFAULT_METRIC,
    TASK_METRICS,
    accuracy,
    lrap,
    mcnemar,
    score,
    task_metrics,
    uar,
    wlrap,
)


def lrap_slow(scores, truth, weighted=False):
    """Per-pair counting oracle: plain Python loops, no sorting tricks."""
    total = 0.0
    weight_total = 0.0
    for i in range(len(scores)):
        true_labels = [l for l in range(len(scores[i])) if truth[i][l]]
        assert true_labels, "oracle requires nonempty truth sets"
        sample = 0.0
        for l in true_labels:
            rank = sum(1 for l2 in range(len(scores[i])) if scores[i][l2] >= scores[i][l])
            true_at_least = sum(1 for l2 in true_labels if scores[i][l2] >= scores[i][l])
            sample += true_at_least / rank
        sample /= len(true_labels)
        w = len(true_labels) if weighted else 1.0
        total += w * sample
        weight_total += w
    return total / weight_total


def random_multilabel_case(rng, n_samples=100, n_labels=24):
    scores = rng.normal(size=(n_samples, n_labels))
    truth = (rng.uniform(size=(n_samples, n_labels)) < 0.2).astype(int)
    empty = truth.sum(axis=1) == 0
    truth[empty, rng.integers(0, n_labels, size=int(empty.sum()))] = 1
    return scores, truth


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_all_wrong(self):
        assert accuracy([1, 2, 0], [0, 1, 2]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 2, 2], [0, 1, 2, 3]) == 0.75

    def test_multilabel_exact_match_rows(self):
        pred = np.array([[1, 0], [1, 1], [0, 0]])
        truth = np.array([[1, 0], [1, 0], [0, 0]])
        assert accuracy(pred, truth) == pytest.approx(2.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0, 1], [0, 1, 2])

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 4, size=50)
        truth = rng.integers(0, 4, size=50)
        perm = rng.permutation(50)
        assert accuracy(pred, truth) == accuracy(pred[perm], truth[perm])


class TestUar:
    def test_perfect(self):
        assert uar([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_hand_computed(self):
        assert uar([0, 1, 1, 1], [0, 0, 1, 1], 2) == pytest.approx(0.75)

    def test_balanced_equals_accuracy(self):
        rng = np.random.default_rng(1)
        truth = np.repeat(np.arange(4), 25)
        pred = rng.integers(0, 4, size=100)
        assert uar(pred, truth, 4) == pytest.approx(accuracy(pred, truth))

    def test_absent_class_excluded(self):
        # class 2 never occurs in truth: mean over classes 0 and 1 only
        assert uar([0, 1], [0, 1], 3) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uar([], [], 2)

    def test_at_most_one(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 3, size=60)
        pred = rng.integers(0, 3, size=60)
        assert uar(pred, truth, 3) <= 1.0


class TestLrap:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.8, 0.1], [0.2, 0.9, 0.05]])
        truth = np.array([[1, 1, 0], [0, 1, 0]])
        assert lrap(scores, truth) == 1.0
        assert wlrap(scores, truth) == 1.0

    def test_true_label_ranked_last(self):
        assert lrap(np.array([[0.1, 0.9, 0.8]]), np.array([[1, 0, 0]])) == pytest.approx(
            1.0 / 3.0
        )

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            scores, truth = random_multilabel_case(rng, n_samples=30, n_labels=12)
            assert lrap(scores, truth) == pytest.approx(
                lrap_slow(scores, truth), abs=1e-12
            )
            assert wlrap(scores, truth) == pytest.approx(
                lrap_slow(scores, truth, weighted=True), abs=1e-12
            )

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            scores, truth = random_multilabel_case(rng, n_samples=25, n_labels=10)
            scores = np.round(scores, 1)  # force plenty of tied scores
            assert lrap(scores, truth) == pytest.approx(
                lrap_slow(scores, truth), abs=1e-12
            )
            assert wlrap(scores, truth) == pytest.approx(
                lrap_slow(scores, truth, weighted=True), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores, truth = random_multilabel_case(rng, n_samples=20, n_labels=8)
        assert lrap(3.0 * scores + 2.0, truth) == lrap(scores, truth)
        assert wlrap(np.exp(scores), truth) == wlrap(scores, truth)

    def test_weighted_equals_unweighted_for_constant_counts(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=(30, 10))
        truth = np.zeros((30, 10), dtype=int)
        for i in range(30):  # exactly two true labels per sample
            truth[i, rng.choice(10, size=2, replace=False)] = 1
        assert wlrap(scores, truth) == lrap(scores, truth)

    def test_empty_truth_set_rejected(self):
        with pytest.raises(ValueError):
            lrap(np.array([[0.5, 0.5]]), np.array([[0, 0]]))

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(5)
        scores, truth = random_multilabel_case(rng, n_samples=40, n_labels=6)
        perm = rng.permutation(40)
        assert lrap(scores[perm], truth[perm]) == pytest.approx(lrap(scores, truth), abs=1e-14)


class TestMcnemar:
    def _discordant_case(self, b, c, n_extra=10):
        """Predictions realizing exactly b and c discordant samples."""
        n = b + c + n_extra
        truth = np.zeros(n, dtype=int)
        pred_a = np.zeros(n, dtype=int)
        pred_b = np.zeros(n, dtype=int)
        pred_b[:b] = 1  # A right, B wrong
        pred_a[b : b + c] = 1  # A wrong, B right
        return pred_a, pred_b, truth

    def test_identical_predictions(self):
        pred = np.array([0, 1, 1, 0])
        truth = np.array([0, 1, 0, 0])
        result = mcnemar(pred, pred, truth)
        assert result.statistic == 0.0
        assert not result.significant
        assert result.b == result.c == 0

    def test_hand_formula_not_significant(self):
        pred_a, pred_b, truth = self._discordant_case(15, 5)
        result = mcnemar(pred_a, pred_b, truth)
        assert result.b == 15 and result.c == 5
        assert result.statistic == pytest.approx(4.05, abs=1e-12)
        assert not result.significant

    def test_hand_formula_significant(self):
        pred_a, pred_b, truth = self._discordant_case(20, 2)
        result = mcnemar(pred_a, pred_b, truth)
        assert result.statistic == pytest.approx(289.0 / 22.0, abs=1e-12)
        assert result.statistic > CHI2_CRITICAL_P01
        assert result.significant

    def test_symmetry_swaps_b_and_c(self):
        pred_a, pred_b, truth = self._discordant_case(12, 7)
        fwd = mcnemar(pred_a, pred_b, truth)
        rev = mcnemar(pred_b, pred_a, truth)
        assert fwd.statistic == rev.statistic
        assert (fwd.b, fwd.c) == (rev.c, rev.b)

    def test_multilabel_exact_match_correctness(self):
        truth = np.array([[1, 0], [0, 1], [1, 1]])
        pred_a = truth.copy()
        pred_b = np.array([[1, 0], [1, 1], [0, 1]])
        result = mcnemar(pred_a, pred_b, truth)
        assert result.b == 2 and result.c == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar([0, 1], [0, 1], [0, 1, 2])


class TestTaskMetrics:
    def test_multiclass_computes_its_table_row(self):
        truth = np.array([0, 1, 2, 2, 1])
        labels = np.array([0, 1, 1, 2, 1])
        got = task_metrics("multiclass", labels, None, truth, 3)
        assert tuple(got) == TASK_METRICS["multiclass"]
        assert got == {"accuracy": accuracy(labels, truth), "uar": uar(labels, truth, 3)}

    def test_multilabel_computes_its_table_row(self):
        scores, truth = random_multilabel_case(np.random.default_rng(4), n_samples=20, n_labels=5)
        labels = (scores > 0).astype(int)
        got = task_metrics("multilabel", labels, scores, truth, 5)
        assert tuple(got) == TASK_METRICS["multilabel"]
        assert got == {
            "accuracy": accuracy(labels, truth),
            "lrap": lrap(scores, truth),
            "wlrap": wlrap(scores, truth),
        }

    def test_default_metric_belongs_to_its_task(self):
        assert set(DEFAULT_METRIC) == set(TASK_METRICS)
        for task, metric in DEFAULT_METRIC.items():
            assert metric in TASK_METRICS[task]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            score("f1", np.array([0]), None, np.array([0]), 2)
