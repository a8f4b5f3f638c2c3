"""Model averaging over an ordered set of trained members.

Member posteriors are combined with a uniform-prior mean, which also
yields hard labels and a per-sample confidence used to rank unlabeled
data. Members may differ in architecture but must agree on the output
count and task kind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learner

__all__ = ["Ensemble", "EnsemblePrediction", "avg_predict", "mean_prediction"]


@dataclass(frozen=True)
class Ensemble:
    members: tuple[learner.LearnerParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 1:
            raise ValueError("an ensemble needs at least one member")
        first = self.members[0].spec
        for i, member in enumerate(self.members[1:], start=1):
            if member.spec.n_outputs != first.n_outputs or member.spec.head != first.head:
                raise ValueError(
                    f"member {i} disagrees on output count or task kind with member 0"
                )

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def task(self) -> str:
        return self.members[0].spec.head

    @property
    def n_outputs(self) -> int:
        return self.members[0].spec.n_outputs


@dataclass(frozen=True)
class EnsemblePrediction:
    probabilities: np.ndarray
    labels: np.ndarray
    confidence: np.ndarray


def avg_predict(ensemble: Ensemble, inputs: np.ndarray) -> EnsemblePrediction:
    """The ensemble's prediction of inputs (see mean_prediction), from each
    member's posteriors. Members run through `learner.forward`, where
    perfbench's tracer wraps it, one at a time."""
    return mean_prediction(
        ensemble.task, (learner.forward(member, inputs) for member in ensemble.members)
    )


def mean_prediction(task: str, member_probabilities) -> EnsemblePrediction:
    """Mean of member posteriors, given in member order, hard labels, and a
    confidence per sample.

    Multi-class: label is the argmax (ties to the lowest index) and the
    confidence is the winning averaged probability. Multi-label: labels
    threshold at 0.5 and the confidence is the mean per-label decisiveness
    |2p - 1|. The mean is accumulated incrementally in member order, which
    keeps n identical members reproducing their common output exactly.
    """
    members = iter(member_probabilities)
    probs = next(members)
    for i, member_probs in enumerate(members, start=2):
        probs = probs + (member_probs - probs) / i

    if task == "multiclass":
        labels = probs.argmax(axis=1)
        confidence = probs.max(axis=1)
    else:
        labels = (probs > 0.5).astype(np.int64)
        confidence = np.abs(2.0 * probs - 1.0).mean(axis=1)
    return EnsemblePrediction(probabilities=probs, labels=labels, confidence=confidence)
