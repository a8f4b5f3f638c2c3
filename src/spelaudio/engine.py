"""Self-paced ensemble learning driver.

Stage 1 pre-trains every member independently on the labeled source set.
Stage 2 runs a fixed number of rounds: the current ensemble predicts the
whole unlabeled target pool, the most confident min(per_step * j, pool)
samples are selected fresh (previous rounds' selections are discarded,
so stale pseudo-labels get re-evaluated), and every member continues
training on source + pseudo data with its optimizer state carried over.
Stage 3 averages the final members over the test inputs. With zero
rounds the result falls back to the plain pre-trained ensemble.

All randomness is derived from the run seed, member index, and round
index, so runs are bitwise reproducible and a resumed run matches an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .ensemble import Ensemble, EnsemblePrediction, avg_predict
from .learner import (
    LearnerSpec,
    OptimizerState,
    init_adam,
    init_params,
    load_params,
    save_params,
    train,
)
from .metrics import task_metrics
from .metrics import accuracy, uar  # noqa: F401  wrapped by perfbench/spans.py's tracer

__all__ = [
    "SpelConfig",
    "LabeledSet",
    "UnlabeledSet",
    "PseudoSet",
    "RoundReport",
    "SpelResult",
    "pretrain",
    "select_pseudo",
    "spel_round",
    "run_spel",
    "save_round",
    "load_round",
    "latest_complete_round",
]


@dataclass(frozen=True)
class SpelConfig:
    """Run hyperparameters: ensemble size, round count/growth, training budgets."""

    n_members: int = 5
    n_steps: int = 3
    per_step: int = 50
    learning_rate: float = 5e-4
    pretrain_epochs: int = 10
    spel_epochs: int | None = None
    batch_size: int = 16
    seed: int = 0
    pseudo_budget: int = 1000

    def __post_init__(self):
        if self.n_members < 1:
            raise ValueError("need at least one member")
        if self.n_steps < 0:
            raise ValueError("round count must be >= 0")
        if self.per_step < 1:
            raise ValueError("per-step sample count must be >= 1")
        if self.per_step * self.n_steps > self.pseudo_budget:
            raise ValueError(
                f"per_step * n_steps = {self.per_step * self.n_steps} exceeds the "
                f"pseudo-label budget {self.pseudo_budget}"
            )
        if self.pretrain_epochs < 1:
            raise ValueError("pretrain_epochs must be >= 1")
        if self.spel_epochs is not None and self.spel_epochs < 1:
            raise ValueError("spel_epochs must be >= 1 when given")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def spel_epochs_effective(self) -> int:
        if self.spel_epochs is not None:
            return self.spel_epochs
        return max(1, self.pretrain_epochs // max(self.n_steps, 1))


@dataclass(frozen=True)
class LabeledSet:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets differ in length")
        if len(self.inputs) == 0:
            raise ValueError("labeled set is empty")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class UnlabeledSet:
    """Target-domain samples plus stable identifiers. Carries no labels."""

    inputs: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        object.__setattr__(self, "ids", ids)
        if len(self.inputs) != len(ids):
            raise ValueError("inputs and ids differ in length")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("sample identifiers must be unique")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class PseudoSet:
    """Selected identifiers with their ensemble labels, highest confidence first."""

    ids: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray
    round_index: int

    def __post_init__(self):
        if not (len(self.ids) == len(self.labels) == len(self.confidences)):
            raise ValueError("ids, labels, confidences differ in length")
        if np.any(np.diff(self.confidences) > 0):
            raise ValueError("confidences must be non-increasing")


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    pseudo_count: int
    metrics: dict[str, float] = field(default_factory=dict)
    min_selected_confidence: float | None = None


@dataclass(frozen=True)
class SpelResult:
    prediction: EnsemblePrediction
    baseline_prediction: EnsemblePrediction
    ensemble: Ensemble
    reports: tuple[RoundReport, ...]
    pseudo_sets: tuple[PseudoSet, ...]


def _derive_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence([base, *key]).generate_state(1, np.uint64)[0])


def _evaluate(ensemble: Ensemble, validation: LabeledSet | None) -> dict[str, float]:
    if validation is None:
        return {}
    pred = avg_predict(ensemble, validation.inputs)
    return task_metrics(
        ensemble.task, pred.labels, pred.probabilities, validation.targets, ensemble.n_outputs
    )


def _train_members(members, states, inputs, targets, epochs, config, stage, *j):
    """Continue every member; member i shuffles from the seed of (run seed, stage, i, *j)."""
    trained = [
        train(params, inputs, targets, epochs=epochs, batch_size=config.batch_size,
              state=state, seed=_derive_seed(config.seed, stage, i, *j))
        for i, (params, state) in enumerate(zip(members, states))
    ]
    return Ensemble(tuple(params for params, _ in trained)), [state for _, state in trained]


def pretrain(config: SpelConfig, labeled: LabeledSet, specs: list[LearnerSpec]):
    """Stage 1: train each member independently from its own derived seed."""
    if len(specs) != config.n_members:
        raise ValueError(
            f"got {len(specs)} specs for an ensemble of {config.n_members} members"
        )
    members = [
        init_params(spec, seed=_derive_seed(config.seed, 0, i)) for i, spec in enumerate(specs)
    ]
    states = [init_adam(params, learning_rate=config.learning_rate) for params in members]
    return _train_members(
        members, states, labeled.inputs, labeled.targets, config.pretrain_epochs, config, 1
    )


def select_pseudo(
    ensemble: Ensemble, unlabeled: UnlabeledSet, count: int, round_index: int = 0
) -> PseudoSet:
    """Top-count unlabeled samples by ensemble confidence, ties to the lower id."""
    if len(unlabeled) == 0:
        raise ValueError("unlabeled set is empty")
    if count < 1:
        raise ValueError("count must be >= 1")
    pred = avg_predict(ensemble, unlabeled.inputs)
    order = np.lexsort((unlabeled.ids, -pred.confidence))
    take = order[: min(count, len(unlabeled))]
    return PseudoSet(
        ids=unlabeled.ids[take],
        labels=pred.labels[take],
        confidences=pred.confidence[take],
        round_index=round_index,
    )


def spel_round(
    ensemble: Ensemble,
    states: list[OptimizerState],
    labeled: LabeledSet,
    unlabeled: UnlabeledSet,
    j: int,
    config: SpelConfig,
    validation: LabeledSet | None = None,
):
    """One self-paced round: regenerate the pseudo set, continue every member.

    The pseudo set is rebuilt from scratch with the current ensemble (size
    min(per_step * j, pool)); the source-labeled data is never relabeled,
    only concatenated with the fresh pseudo samples.
    """
    if j < 1:
        raise ValueError("round index starts at 1")
    count = min(config.per_step * j, len(unlabeled))
    pseudo = select_pseudo(ensemble, unlabeled, count, round_index=j)
    sorter = np.argsort(unlabeled.ids)
    rows = sorter[np.searchsorted(unlabeled.ids, pseudo.ids, sorter=sorter)]
    pool_inputs = np.concatenate([labeled.inputs, unlabeled.inputs[rows]], axis=0)
    pool_targets = np.concatenate([labeled.targets, pseudo.labels], axis=0)
    new_ensemble, new_states = _train_members(
        ensemble.members, states, pool_inputs, pool_targets, config.spel_epochs_effective,
        config, 2, j,
    )
    report = RoundReport(
        round_index=j,
        pseudo_count=count,
        metrics=_evaluate(new_ensemble, validation),
        min_selected_confidence=float(pseudo.confidences[-1]),
    )
    return new_ensemble, new_states, report, pseudo


def run_spel(
    labeled: LabeledSet,
    unlabeled: UnlabeledSet | None,
    test_inputs: np.ndarray,
    config: SpelConfig,
    specs: list[LearnerSpec],
    validation: LabeledSet | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
) -> SpelResult:
    """Full pipeline: pre-train, self-paced rounds, final averaged prediction.

    Emits one report per round including round 0 (the pre-trained
    baseline). With a checkpoint directory, every computed round is
    persisted; `resume=True` loads the rounds up to the latest complete one
    instead, reproducing the uninterrupted run exactly, and refuses a
    checkpoint of other run settings or member specs. The data is not
    checked: the caller must pass the same data.
    """
    if config.n_steps > 0 and (unlabeled is None or len(unlabeled) == 0):
        raise ValueError("self-paced rounds need a nonempty unlabeled set")

    last = latest_complete_round(checkpoint_dir) if resume and checkpoint_dir is not None else None
    last = -1 if last is None else min(last, config.n_steps)
    reports: list[RoundReport] = []
    pseudo_sets: list[PseudoSet] = []
    for j in range(config.n_steps + 1):
        if j <= last:
            # Members are read only where the run needs them: the baseline
            # and the round the run continues from.
            ensemble, states, report, pseudo = load_round(
                checkpoint_dir, j, members=j in (0, last), config=config, specs=specs
            )
        elif j == 0:
            ensemble, states = pretrain(config, labeled, specs)
            metrics = _evaluate(ensemble, validation)
            report, pseudo = RoundReport(round_index=0, pseudo_count=0, metrics=metrics), None
        else:
            ensemble, states, report, pseudo = spel_round(
                ensemble, states, labeled, unlabeled, j, config, validation
            )
        if j == 0:
            baseline_prediction = avg_predict(ensemble, test_inputs)
        if j > last and checkpoint_dir is not None:
            save_round(checkpoint_dir, j, ensemble, states, report, pseudo, config)
        reports.append(report)
        if pseudo is not None:
            pseudo_sets.append(pseudo)

    return SpelResult(
        prediction=avg_predict(ensemble, test_inputs),
        baseline_prediction=baseline_prediction,
        ensemble=ensemble,
        reports=tuple(reports),
        pseudo_sets=tuple(pseudo_sets),
    )


def _round_dir(checkpoint_dir: Path, j: int) -> Path:
    return Path(checkpoint_dir) / f"round_{j:03d}"


def write_text_atomic(path: Path, text: str) -> None:
    """Write through a sibling temporary file, so readers see old or new text."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# The run settings that decide what a round computes, stamped on every round
# record. The round count is left out, so a resumed run may stop earlier or
# go further.
_STAMPED_SETTINGS = (
    "n_members", "per_step", "learning_rate", "pretrain_epochs", "spel_epochs_effective",
    "batch_size", "seed",
)


def save_round(
    checkpoint_dir: str | Path,
    j: int,
    ensemble: Ensemble,
    states: list[OptimizerState],
    report: RoundReport,
    pseudo: PseudoSet | None,
    config: SpelConfig,
) -> None:
    """Persist one round: member checkpoints, then the round record last
    (its presence marks the round complete), stamped with the run settings.
    An earlier record of the round is removed first, so a rewrite cut short
    leaves the round incomplete."""
    rdir = _round_dir(Path(checkpoint_dir), j)
    rdir.mkdir(parents=True, exist_ok=True)
    (rdir / "round.json").unlink(missing_ok=True)
    for i, (member, state) in enumerate(zip(ensemble.members, states)):
        save_params(rdir / f"member_{i:02d}.npz", member, state)
    payload = {
        "round": report.round_index,
        "pseudo_count": report.pseudo_count,
        "metrics": report.metrics,
        "min_selected_confidence": report.min_selected_confidence,
        "n_members": ensemble.n,
        "config": {name: getattr(config, name) for name in _STAMPED_SETTINGS},
        "pseudo": None
        if pseudo is None
        else {
            "ids": pseudo.ids.tolist(),
            "labels": pseudo.labels.tolist(),
            "confidences": pseudo.confidences.tolist(),
        },
    }
    write_text_atomic(rdir / "round.json", json.dumps(payload, indent=2, sort_keys=True))


def load_round(
    checkpoint_dir: str | Path,
    j: int,
    members: bool = True,
    config: SpelConfig | None = None,
    specs: list[LearnerSpec] | None = None,
):
    """Load one persisted round; returns (ensemble, states, report, pseudo).

    With members=False only the record is read and the first two entries
    are None. Given the run's config (and specs), a record stamped with
    other settings (an unstamped record records None) or members of other
    specs raise ValueError naming the round and the first difference.
    """
    rdir = _round_dir(Path(checkpoint_dir), j)
    record = json.loads((rdir / "round.json").read_text())
    if config is not None:
        stamp = record.get("config", {})
        for name in _STAMPED_SETTINGS:
            if stamp.get(name) != getattr(config, name):
                raise ValueError(
                    f"round {j} checkpoint records {name} = {stamp.get(name)!r}, "
                    f"this run has {name} = {getattr(config, name)!r}"
                )
    report = RoundReport(
        round_index=record["round"],
        pseudo_count=record["pseudo_count"],
        metrics=record["metrics"],
        min_selected_confidence=record["min_selected_confidence"],
    )
    pseudo = None
    if record["pseudo"] is not None:
        raw = record["pseudo"]
        pseudo = PseudoSet(
            ids=np.asarray(raw["ids"], dtype=np.int64),
            labels=np.asarray(raw["labels"], dtype=np.int64),
            confidences=np.asarray(raw["confidences"], dtype=np.float64),
            round_index=record["round"],
        )
    if not members:
        return None, None, report, pseudo
    loaded = [load_params(rdir / f"member_{i:02d}.npz") for i in range(record["n_members"])]
    ensemble = Ensemble(tuple(params for params, _ in loaded))
    states = [state for _, state in loaded]
    if specs is not None:
        loaded_specs = (member.spec for member in ensemble.members)
        for i, (have, want) in enumerate(zip_longest(loaded_specs, specs)):
            if have != want:
                raise ValueError(f"round {j} checkpoint member {i} is {have}, this run has {want}")
    return ensemble, states, report, pseudo


def latest_complete_round(checkpoint_dir: str | Path) -> int | None:
    """Last round of the unbroken run of complete rounds 0, 1, 2, ..., or None.

    A round counts once its record file exists; rounds after a gap, and
    directories that are not round directories, are ignored.
    """
    j = 0
    while (_round_dir(checkpoint_dir, j) / "round.json").exists():
        j += 1
    return j - 1 if j else None
