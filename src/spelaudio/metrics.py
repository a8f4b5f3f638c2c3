"""Performance measures: accuracy, unweighted average recall, (weighted)
label-ranking average precision, and the paired McNemar test, plus the
table of which of them score each task kind.

All functions are pure and operate on numpy arrays. For 2-D label arrays
(multi-label predictions), "correct" means per-sample exact match.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TASK_METRICS",
    "DEFAULT_METRIC",
    "task_metrics",
    "score",
    "accuracy",
    "uar",
    "lrap",
    "wlrap",
    "mcnemar",
    "McNemarResult",
    "CHI2_CRITICAL_P01",
]

# The metrics of each task kind, in results.csv column order; the keys are
# the task kinds.
TASK_METRICS = {"multiclass": ("accuracy", "uar"), "multilabel": ("accuracy", "lrap", "wlrap")}
# The primary metric of a task kind when a config names none.
DEFAULT_METRIC = {"multiclass": "accuracy", "multilabel": "wlrap"}

# Chi-square critical value, 1 degree of freedom, significance 0.01.
CHI2_CRITICAL_P01 = 6.635


def _correct_mask(pred, truth) -> np.ndarray:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise ValueError(f"prediction shape {pred.shape} != truth shape {truth.shape}")
    if len(pred) == 0:
        raise ValueError("need at least one sample")
    if pred.ndim == 1:
        return pred == truth
    if pred.ndim == 2:
        return np.all(pred == truth, axis=1)
    raise ValueError("labels must be 1-D (class indices) or 2-D (binary indicators)")


def accuracy(pred, truth) -> float:
    """Fraction of exact matches; rows count as one sample for 2-D labels."""
    return float(_correct_mask(pred, truth).mean())


def uar(pred, truth, n_classes: int) -> float:
    """Mean per-class recall over the classes that occur in the truth."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError("uar expects aligned 1-D label arrays")
    if len(truth) == 0:
        raise ValueError("need at least one sample")
    if truth.min() < 0 or truth.max() >= n_classes:
        raise ValueError(f"truth labels outside [0, {n_classes})")
    recalls = []
    for c in range(n_classes):
        mask = truth == c
        if mask.any():
            recalls.append(float(np.mean(pred[mask] == c)))
    return float(np.mean(recalls))


def _as_indicator(truth, n_labels: int) -> np.ndarray:
    t = np.asarray(truth)
    if t.ndim != 2 or t.shape[1] != n_labels:
        raise ValueError(f"truth must be a (samples, {n_labels}) indicator matrix")
    if not np.isin(t, (0, 1)).all():
        raise ValueError("truth indicators must be 0 or 1")
    return t.astype(bool)


def lrap(scores, truth, weighted: bool = False) -> float:
    """Label-ranking average precision over per-sample score rows.

    For each true label, precision is the number of true labels scoring at
    least as high, divided by the number of *all* labels scoring at least
    as high; samples average their true labels. The weighted variant
    weights each sample by its true-label count.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 2:
        raise ValueError("scores must be a (samples, labels) matrix")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    t = _as_indicator(truth, s.shape[1])
    if len(s) != len(t):
        raise ValueError("scores and truth differ in sample count")
    if len(s) == 0:
        raise ValueError("need at least one sample")
    counts = t.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("every sample needs at least one true label")

    n_labels = s.shape[1]
    per_sample = np.empty(len(s), dtype=np.float64)
    for i in range(len(s)):
        row = s[i]
        true_scores = row[t[i]]
        sorted_all = np.sort(row)
        sorted_true = np.sort(true_scores)
        # rank = #labels with score >= v; true_rank = #true labels with score >= v
        rank = n_labels - np.searchsorted(sorted_all, true_scores, side="left")
        true_rank = counts[i] - np.searchsorted(sorted_true, true_scores, side="left")
        per_sample[i] = np.mean(true_rank / rank)

    if weighted:
        if np.all(counts == counts[0]):
            # Equal weights cancel; the plain mean keeps that coincidence exact.
            return float(per_sample.mean())
        return float(np.dot(counts, per_sample) / counts.sum())
    return float(per_sample.mean())


def wlrap(scores, truth) -> float:
    """Sample-weighted label-ranking average precision."""
    return lrap(scores, truth, weighted=True)


def score(metric: str, labels, probabilities, truth, n_classes: int) -> float:
    """One named metric: accuracy and UAR score hard labels, LRAP and wLRAP
    score probabilities."""
    if metric == "accuracy":
        return accuracy(labels, truth)
    if metric == "uar":
        return uar(labels, truth, n_classes)
    if metric == "lrap":
        return lrap(probabilities, truth)
    if metric == "wlrap":
        return wlrap(probabilities, truth)
    raise ValueError(f"unknown metric {metric!r}")


def task_metrics(task: str, labels, probabilities, truth, n_classes: int) -> dict[str, float]:
    """Every metric of the task kind, in TASK_METRICS order."""
    return {
        name: score(name, labels, probabilities, truth, n_classes)
        for name in TASK_METRICS[task]
    }


@dataclass(frozen=True)
class McNemarResult:
    statistic: float
    significant: bool
    b: int
    c: int


def mcnemar(pred_a, pred_b, truth) -> McNemarResult:
    """Continuity-corrected paired McNemar test at significance 0.01.

    b counts samples A got right and B got wrong, c the reverse; the
    statistic is (|b - c| - 1)^2 / (b + c), compared against the
    chi-square critical value 6.635 (1 dof). No discordant pairs means
    statistic 0 and no significance.
    """
    correct_a = _correct_mask(pred_a, truth)
    correct_b = _correct_mask(pred_b, truth)
    b = int(np.sum(correct_a & ~correct_b))
    c = int(np.sum(~correct_a & correct_b))
    if b + c == 0:
        return McNemarResult(statistic=0.0, significant=False, b=b, c=c)
    statistic = (abs(b - c) - 1.0) ** 2 / (b + c)
    return McNemarResult(
        statistic=float(statistic),
        significant=bool(statistic > CHI2_CRITICAL_P01),
        b=b,
        c=c,
    )
