"""Self-paced ensemble learning driver.

Stage 1 pre-trains every member independently on the labeled source set.
Stage 2 runs a fixed number of rounds: the current ensemble predicts the
whole unlabeled target pool, the most confident min(per_step * j, pool)
samples are selected fresh (previous rounds' selections are discarded,
so stale pseudo-labels get re-evaluated), and every member continues
training on source + pseudo data with its optimizer state carried over.
Stage 3 averages the final members over the test inputs. With zero
rounds the result falls back to the plain pre-trained ensemble.

Both data sources, synthetic and WAV directories, build one
``ExperimentData`` through its constructor, and the run takes it whole:
one float32 image store, the targets of the labeled source and of the
optional validation and the test splits, the pool size and, where the
source knows it, the pool truth. The splits are derived: consecutive
row blocks of the store, viewed as ``LabeledSet``s and the label-free
``UnlabeledSet`` pool, whose ids are its row positions. Training reads
neither the test targets nor the pool truth.

All randomness is derived from the run seed, member index, and round
index, so runs are bitwise reproducible and a resumed run matches an
uninterrupted one.

Work that forks is split by one rule, in one helper (``_fan_out``): its
n items fall into k contiguous blocks in index order, k the smaller of n
and the CPUs this process may run on. The count is derived, not set: it
is the affinity mask (``sched_getaffinity``), not a cgroup CPU quota,
and with one usable CPU or one item nothing is forked. The calling
process runs the first block; each other block runs in a process forked
for it, which reads its inputs by fork and sends back each item as soon
as it has it. Since the blocks are in index order, the lowest failing
item raises, as in a serial loop, and the result is bitwise the same at
any k. Every worker is waited for.

Two kinds of work fork. Both data sources fill their image store
(``fill_store``) a block of rows per process; the store is anonymous
shared memory, so each process writes its rows in place and sends
nothing back. Inside a stage (pretraining, or one round) each member's
training is a pure function of its own parameters, Adam state, rows and
seed, so the members train a block per process; the calling process
writes every checkpoint. Each process also forwards the members it
trained on the splits the run reads next (validation, the pool while a
round follows, test after pretraining and the last round), each split in
its own call, and sends back each member's buffers and posteriors; the
calling process forms each split's ensemble mean in member order, so no
member is forwarded twice and none serially after its stage. Each
process has its own BLAS threads, so on a small host pin BLAS to one
thread (``OPENBLAS_NUM_THREADS=1``).
"""

from __future__ import annotations

import json
import math
import mmap
import operator
import os
import pickle
import signal
import tempfile
import traceback
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from types import MappingProxyType

import numpy as np

from . import learner
from .dsp import IMAGE_DTYPE
from .ensemble import Ensemble, EnsemblePrediction, mean_prediction
from .learner import (
    DivergenceError,
    LabeledSet,
    LearnerSpec,
    OptimizerState,
    atomic_write,
    init_adam,
    init_params,
    load_params,
    save_params,
    train,
)
from .metrics import task_metrics
from .metrics import accuracy, uar  # noqa: F401  wrapped by perfbench/spans.py's tracer
from .ensemble import avg_predict  # noqa: F401  wrapped by perfbench/spans.py's tracer

__all__ = [
    "SpelConfig",
    "UnlabeledSet",
    "ExperimentData",
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
    spel_epochs: int = 3
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.n_members < 1:
            raise ValueError("need at least one member")
        if self.n_steps < 0:
            raise ValueError("round count must be >= 0")
        if self.per_step < 1:
            raise ValueError("per-step sample count must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.pretrain_epochs < 1:
            raise ValueError("pretrain_epochs must be >= 1")
        if self.spel_epochs < 1:
            raise ValueError("spel_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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
class ExperimentData:
    """A run's inputs from either data source. images, the float32 store,
    made read-only here, holds the labeled, validation, unlabeled and test
    splits in that order as consecutive row blocks, each of as many rows
    as it has targets (none for validation_targets None; the pool has
    n_unlabeled).
    rows maps each name to its block and each split is a view of it; the
    pool's ids are its row positions. The test targets and the pool truth
    (None where unknown) are for evaluation only and training reads
    neither. An n_unlabeled that is not a non-negative integer, an empty
    labeled, validation or test split (validation_targets None is no
    validation split), a store of another row count than the splits', or
    a pool truth of another length than the pool raises ValueError."""

    images: np.ndarray
    labeled_targets: np.ndarray
    validation_targets: np.ndarray | None
    n_unlabeled: int
    test_targets: np.ndarray
    n_classes: int
    unlabeled_truth: np.ndarray | None = None
    rows: Mapping[str, slice] = field(init=False)

    def __post_init__(self):
        try:
            valid = operator.index(self.n_unlabeled) >= 0
        except TypeError:  # not an integer, such as 2.5
            valid = False
        if not valid:
            raise ValueError(f"n_unlabeled must be a non-negative integer, got {self.n_unlabeled!r}")
        for name in ("labeled", "validation", "test"):
            targets = getattr(self, f"{name}_targets")
            if targets is not None and len(targets) == 0:
                raise ValueError(f"the {name} split is empty")
        n_validation = 0 if self.validation_targets is None else len(self.validation_targets)
        sizes = (len(self.labeled_targets), n_validation, self.n_unlabeled, len(self.test_targets))
        if len(self.images) != sum(sizes):
            raise ValueError(f"the store has {len(self.images)} rows, the splits {sum(sizes)}")
        if self.unlabeled_truth is not None and len(self.unlabeled_truth) != self.n_unlabeled:
            raise ValueError(f"the pool truth has {len(self.unlabeled_truth)} rows, "
                             f"the pool {self.n_unlabeled}")
        self.images.flags.writeable = False
        ends = np.cumsum(sizes).tolist()
        names = ("labeled", "validation", "unlabeled", "test")
        rows = {name: slice(end - size, end) for name, size, end in zip(names, sizes, ends)}
        object.__setattr__(self, "rows", MappingProxyType(rows))

    @property
    def labeled(self) -> LabeledSet:
        return LabeledSet(self.images[self.rows["labeled"]], self.labeled_targets)

    @property
    def validation(self) -> LabeledSet | None:
        if self.validation_targets is None:
            return None
        return LabeledSet(self.images[self.rows["validation"]], self.validation_targets)

    @property
    def unlabeled(self) -> UnlabeledSet:
        return UnlabeledSet(self.images[self.rows["unlabeled"]], np.arange(self.n_unlabeled))

    @property
    def test(self) -> LabeledSet:
        return LabeledSet(self.images[self.rows["test"]], self.test_targets)


# A pseudo set's arrays, with the dtypes a round record restores them to.
_PSEUDO_DTYPES = {"ids": np.int64, "labels": np.int64, "confidences": np.float64}


@dataclass(frozen=True)
class PseudoSet:
    """Selected identifiers with their ensemble labels, highest confidence
    first. Two sets are equal when their arrays are."""

    ids: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        if not (len(self.ids) == len(self.labels) == len(self.confidences)):
            raise ValueError("ids, labels, confidences differ in length")
        if len(self.ids) == 0:
            raise ValueError("a pseudo set selects at least one sample")
        if np.any(np.diff(self.confidences) > 0):
            raise ValueError("confidences must be non-increasing")

    def __eq__(self, other):
        return isinstance(other, PseudoSet) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _PSEUDO_DTYPES
        )


@dataclass(frozen=True)
class RoundReport:
    """One round's validation metrics and, from round 1 on, the pseudo set
    its members trained on."""

    round_index: int
    metrics: dict[str, float]
    pseudo: PseudoSet | None = None

    @property
    def pseudo_count(self) -> int:
        return 0 if self.pseudo is None else len(self.pseudo.ids)

    @property
    def min_selected_confidence(self) -> float | None:
        return None if self.pseudo is None else float(self.pseudo.confidences[-1])


@dataclass(frozen=True)
class SpelResult:
    prediction: EnsemblePrediction
    baseline_prediction: EnsemblePrediction
    ensemble: Ensemble
    reports: tuple[RoundReport, ...]


def _derive_seed(base: int, *key: int) -> int:
    return int(np.random.SeedSequence([base, *key]).generate_state(1, np.uint64)[0])


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which a cgroup CPU
    quota does not narrow; 1 where the platform has no such mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _collect(items, keep, sent, errors=()):
    """Pass each item that items yields to keep until one raises; returns
    the exception of a sent class or, for errors, the traceback text that
    stopped them, else None."""
    try:
        for item in items:
            keep(item)
    except sent as err:
        return err
    except errors:
        return f"it failed in its worker process:\n{traceback.format_exc().rstrip()}"
    return None


def _write(out, record):
    pickle.dump(record, out, pickle.HIGHEST_PROTOCOL)
    out.flush()


def _fork(items, sent):
    """Collect items in a forked process, which writes each to a file as
    soon as it has it, then its failure or None, and leaves; returns its pid
    and the file.

    A fork, not a spawned interpreter, so that the worker reads the store
    and the members from memory instead of receiving them pickled. A fork
    after BLAS has started its threads is tested not to hang. An unnamed
    file, not a pipe: a pipe holds 64 KiB, so a worker writing its first
    member into one would wait until this process had run its own share.
    """
    out = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except OSError:
        out.close()
        raise
    if pid == 0:
        status = 1
        try:
            failure = _collect(items, lambda item: _write(out, (False, item)), sent, Exception)
            _write(out, (True, failure))
            status = 0
        finally:
            os._exit(status)
    return pid, out


def _join(pid, out):
    """The items the worker pid wrote to out, once it has left, and the
    failure it wrote or, if it left before writing one, the one its wait
    status tells."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    done = []
    with out:
        out.seek(0)
        try:
            while True:
                last, value = pickle.load(out)
                if last:
                    return done, value
                done.append(value)
        except (EOFError, pickle.UnpicklingError):  # cut short: the wait status says why
            pass
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return done, f"the worker process running it {how}"


def _fan_out(n, run, sent, name):
    """Run run(block), which yields one item per index of block, over the
    blocks of range(n) that the module docstring sets out. Returns the
    items in index order and None or, where an index raised an exception
    of a sent class, (i, exc) for the lowest such index i. A worker that
    fails otherwise (raises another class, is killed or exits) raises
    RuntimeError naming name(i), i the index after its last item sent;
    the first block that failed holds the lowest failing index. Any other
    error of this process's own block propagates at once, after the
    workers are killed.
    """
    k = min(n, _usable_cpus())
    edges = [n * w // k for w in range(k + 1)]
    blocks = [range(a, b) for a, b in zip(edges, edges[1:])]
    forked = []  # the workers not yet joined
    try:
        for block in blocks[1:]:
            forked.append(_fork(run(block), sent))
        own = []
        outcomes = [(own, _collect(run(blocks[0]), own.append, sent))]
        while forked:
            outcomes.append(_join(*forked[0]))
            del forked[0]
    finally:
        for pid, out in forked:
            out.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    items = []
    for block, (done, failure) in zip(blocks, outcomes):
        items += done
        if failure is not None:
            # A failure after a block's last item counts at that item's index.
            i = block[min(len(done), len(block) - 1)]
            if not isinstance(failure, sent):
                raise RuntimeError(f"{name(i)}: {failure}")
            return items, (i, failure)
    return items, None


def fill_store(shape, render, name):
    """An IMAGE_DTYPE store of shape, the dtype preprocess returns, filled
    by render(store, rows), which writes each of the rows in turn and
    yields after each, over the rows as _fan_out splits them. The store is
    anonymous shared memory, so each process writes its rows in place and
    nothing is sent back. Of the rows that fail, the lowest raises, as in a
    serial loop: a row's exception as it was raised, a worker killed or
    failing otherwise as RuntimeError naming name(row).
    """
    memory = mmap.mmap(-1, math.prod(shape) * np.dtype(IMAGE_DTYPE).itemsize)
    store = np.ndarray(shape, IMAGE_DTYPE, memory)
    _, failed = _fan_out(shape[0], lambda rows: render(store, rows), Exception, name)
    if failed:
        raise failed[1]
    return store


def _read_next(data: ExperimentData, config: SpelConfig, j: int) -> list[str]:
    """The splits the run reads after stage j (0 is pretraining):
    validation, where there is one; the pool while a round follows; test
    after pretraining, for the baseline, and after the last round."""
    reads = (
        ("validation", data.validation_targets is not None),
        ("unlabeled", j < config.n_steps),
        ("test", j in (0, config.n_steps)),
    )
    return [name for name, read in reads if read]


def _members_predict(ensemble, step, data, names, round_index):
    """Run step(i), which returns a member and what to keep of it, for
    every member i of ensemble, and forward the member it returns on the
    inputs of each split of data that names lists. Returns what step kept,
    by member, and the prediction of each split, by name: the mean of the
    member posteriors in member order (mean_prediction).

    The members run as _fan_out splits them, each forwarded in the process
    that ran it, so the result is bitwise that of running them one after
    another. Of the members that fail, the lowest raises, as in that
    serial loop: a divergence as DivergenceError, a worker's other failure
    as RuntimeError, both naming the member and round_index.
    """
    splits = [data.images[data.rows[name]] for name in names]

    def run(block):
        for i in block:
            member, kept = step(i)
            # Each split is its own call on its own view, so BLAS sees the
            # shapes that a serial avg_predict of that split would.
            yield kept, [learner.forward(member, inputs) for inputs in splits]

    done, failed = _fan_out(ensemble.n, run, DivergenceError,
                            lambda i: f"member {i}, round {round_index}")
    if failed:
        i, failure = failed
        raise DivergenceError(failure.tensor, failure.step, i, round_index) from failure
    predictions = {
        name: mean_prediction(ensemble.task, (posteriors[s] for _, posteriors in done))
        for s, name in enumerate(names)
    }
    return [kept for kept, _ in done], predictions


def _train_members(ensemble, states, data, config, j, pseudo):
    """Stage j (0 is pretraining, pseudo None): continue every member i of
    ensemble from states[i], or from a fresh Adam state when states is
    None, on the store rows of the labeled split followed by those of the
    pseudo set (a pool id being its row's position in the pool), with the
    labeled targets followed by the pseudo labels, for pretrain_epochs in
    pretraining and spel_epochs in a round. Member i shuffles from the seed
    of (run seed, 1, i) in pretraining and (run seed, 2, i, j) in round j,
    and is forwarded on the splits of data the run reads next
    (_read_next). Returns (ensemble, states, report, predictions): the
    report holds the validation metrics and pseudo, and predictions the
    ensemble's prediction of each split read next, by name. The members
    run as _members_predict runs them.
    """
    labeled = data.rows["labeled"]
    rows, targets = np.arange(labeled.start, labeled.stop), data.labeled_targets
    if pseudo is not None:
        rows = np.concatenate([rows, data.rows["unlabeled"].start + pseudo.ids])
        targets = np.concatenate([targets, pseudo.labels], axis=0)
    epochs = config.pretrain_epochs if j == 0 else config.spel_epochs

    def fit(i):
        member = ensemble.members[i]
        # Without states a fresh one is made as member i starts, so the process
        # forwarding its members does not hold every member's initial state.
        state = states[i] if states else init_adam(member, learning_rate=config.learning_rate)
        key = (1, i) if j == 0 else (2, i, j)
        params, state = train(member, data.images, targets, epochs=epochs,
                              batch_size=config.batch_size, state=state,
                              seed=_derive_seed(config.seed, *key), rows=rows)
        return params, (params, state)

    pairs, predictions = _members_predict(ensemble, fit, data, _read_next(data, config, j), j)
    trained = Ensemble(tuple(params for params, _ in pairs))
    metrics = {}
    if data.validation_targets is not None:
        pred = predictions["validation"]
        metrics = task_metrics(trained.task, pred.labels, pred.probabilities,
                               data.validation_targets, trained.n_outputs)
    return trained, [state for _, state in pairs], RoundReport(j, metrics, pseudo), predictions


def pretrain(config: SpelConfig, data: ExperimentData, specs: list[LearnerSpec]):
    """Stage 1: train each member independently from its own derived seed
    on the labeled split; returns (ensemble, states, report, predictions)
    as _train_members does."""
    if len(specs) != config.n_members:
        raise ValueError(
            f"got {len(specs)} specs for an ensemble of {config.n_members} members"
        )
    members = [
        init_params(spec, seed=_derive_seed(config.seed, 0, i)) for i, spec in enumerate(specs)
    ]
    return _train_members(Ensemble(tuple(members)), None, data, config, 0, None)


def select_pseudo(pred: EnsemblePrediction, unlabeled: UnlabeledSet, count: int) -> PseudoSet:
    """Top-count unlabeled samples by the confidence of pred, the
    ensemble's prediction of them, ties to the lower id."""
    if len(unlabeled) == 0:
        raise ValueError("unlabeled set is empty")
    if count < 1:
        raise ValueError("count must be >= 1")
    order = np.lexsort((unlabeled.ids, -pred.confidence))
    take = order[: min(count, len(unlabeled))]
    return PseudoSet(
        ids=unlabeled.ids[take],
        labels=pred.labels[take],
        confidences=pred.confidence[take],
    )


def spel_round(
    ensemble: Ensemble,
    states: list[OptimizerState],
    data: ExperimentData,
    config: SpelConfig,
    j: int,
    pool: EnsemblePrediction,
):
    """One self-paced round from pool, the ensemble's prediction of the
    data's pool: regenerate the pseudo set, continue every member; returns
    (ensemble, states, report, predictions) as pretrain does.

    The pseudo set is rebuilt from scratch with the current ensemble (size
    min(per_step * j, pool size)); the source-labeled data is never relabeled.
    Members train on the labeled split followed by the fresh pseudo
    samples, as _train_members lays them out, so no pool is copied out of
    the store. The report holds the data's validation metrics.
    """
    if j < 1:
        raise ValueError("round index starts at 1")
    pseudo = select_pseudo(pool, data.unlabeled, config.per_step * j)
    return _train_members(ensemble, states, data, config, j, pseudo)


def run_spel(
    data: ExperimentData,
    config: SpelConfig,
    specs: list[LearnerSpec],
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
) -> SpelResult:
    """Full pipeline: pre-train, self-paced rounds, final averaged prediction.

    Emits one report per round including round 0 (the pre-trained baseline),
    with validation metrics whenever the data has a validation split. Each
    stage's members predict, where they train, the splits the run reads
    after it; no prediction is persisted, so a resume forwards its loaded
    members again. Every split the run reads is a row block of the data's
    one read-only image store, and each round trains on rows of that
    store, so the run copies no split. With a checkpoint directory, every
    computed round is persisted; `resume=True` loads the rounds up to the
    latest complete one instead, reproducing the uninterrupted run
    exactly, and refuses no checkpoint directory, or a round of other
    member specs or stamped with other values of the settings its stage
    reads (round 0 stamps neither per_step nor spel_epochs). No round
    reads the round count, so the resumed run may have fewer or more
    rounds than the checkpointed one. Nothing checks that a resume runs on
    the data of its checkpoint.
    """
    if config.n_steps > 0 and data.n_unlabeled == 0:
        raise ValueError("self-paced rounds need a nonempty unlabeled set")
    if resume and checkpoint_dir is None:
        raise ValueError("resume needs a checkpoint_dir")

    last = latest_complete_round(checkpoint_dir) if resume else None
    last = -1 if last is None else min(last, config.n_steps)
    reports: list[RoundReport] = []
    for j in range(config.n_steps + 1):
        if j <= last:
            # A loaded round's members predict the test split where the run
            # reads it and, to continue from it, the pool, in the processes
            # a stage would use; they are read only where they predict.
            names = [name for name in _read_next(data, config, j)
                     if name == "test" or (name == "unlabeled" and j == last)]
            ensemble, states, report = load_round(
                checkpoint_dir, j, config, specs, members=bool(names)
            )
            if names:
                _, predictions = _members_predict(
                    ensemble, lambda i: (ensemble.members[i], None), data, names, j
                )
        elif j == 0:
            ensemble, states, report, predictions = pretrain(config, data, specs)
        else:
            ensemble, states, report, predictions = spel_round(
                ensemble, states, data, config, j, predictions["unlabeled"]
            )
        if j == 0:
            baseline_prediction = predictions["test"]
        if j > last and checkpoint_dir is not None:
            save_round(checkpoint_dir, j, ensemble, states, report, config)
        reports.append(report)

    return SpelResult(
        prediction=predictions["test"],
        baseline_prediction=baseline_prediction,
        ensemble=ensemble,
        reports=tuple(reports),
    )


def _round_dir(checkpoint_dir: Path, j: int) -> Path:
    return Path(checkpoint_dir) / f"round_{j:03d}"


def write_text_atomic(path: Path, text: str) -> None:
    """Write text through atomic_write, so readers see old or new text."""
    with atomic_write(path) as fh:
        fh.write(text)


# The run settings that round j's record stamps, _STAGE_SETTINGS[min(j, 1)]:
# what pretraining reads, and for later rounds, which build on it, also what
# a round reads. No round reads the round count, so a resumed run may stop
# earlier or go further.
_PRETRAIN_SETTINGS = ("n_members", "learning_rate", "pretrain_epochs", "batch_size", "seed")
_STAGE_SETTINGS = (_PRETRAIN_SETTINGS, (*_PRETRAIN_SETTINGS, "per_step", "spel_epochs"))


def save_round(
    checkpoint_dir: str | Path,
    j: int,
    ensemble: Ensemble,
    states: list[OptimizerState],
    report: RoundReport,
    config: SpelConfig,
) -> None:
    """Persist one round: member checkpoints, then the round record last
    (its presence marks the round complete), stamped with the run settings
    its stage reads. An earlier record of the round is removed first, so a
    rewrite cut short leaves the round incomplete."""
    rdir = _round_dir(Path(checkpoint_dir), j)
    rdir.mkdir(parents=True, exist_ok=True)
    (rdir / "round.json").unlink(missing_ok=True)
    for i, (member, state) in enumerate(zip(ensemble.members, states)):
        save_params(rdir / f"member_{i:02d}.npz", member, state)
    payload = {
        "round": report.round_index,
        "metrics": report.metrics,
        "config": {name: getattr(config, name) for name in _STAGE_SETTINGS[min(j, 1)]},
        "pseudo": None
        if report.pseudo is None
        else {name: getattr(report.pseudo, name).tolist() for name in _PSEUDO_DTYPES},
    }
    write_text_atomic(rdir / "round.json", json.dumps(payload, indent=2, sort_keys=True))


def load_round(
    checkpoint_dir: str | Path,
    j: int,
    config: SpelConfig,
    specs: list[LearnerSpec],
    members: bool = True,
):
    """Load one persisted round of the run of config and specs; returns
    (ensemble, states, report).

    With members=False only the record is read and the first two entries
    are None. A malformed record raises ValueError naming its path and
    round, and so does one that names another round, has a pseudo set in
    round 0 and none (or an empty one) later, metrics other than a map of
    metric names to finite numbers (empty without a validation split), or a
    config stamp that is not a map.
    A record whose stamp differs from config in a setting its stage reads
    (an unstamped record records None), or config.n_members members of
    other specs, raise ValueError naming the round and the first
    difference. Keys the record does not read, such as the pseudo count
    and member count older records carry, are ignored.
    """
    rdir = _round_dir(Path(checkpoint_dir), j)
    path = rdir / "round.json"
    try:
        record = json.loads(path.read_text())
        raw = record["pseudo"]
        pseudo = None if raw is None else PseudoSet(
            **{name: np.asarray(raw[name], dtype=dtype) for name, dtype in _PSEUDO_DTYPES.items()}
        )
        if record["round"] != j:
            raise ValueError(f"it records round {record['round']!r}")
        if (pseudo is None) != (j == 0):
            raise ValueError("only round 0 has no pseudo set")
        metrics = record["metrics"]
        if not isinstance(metrics, dict) or not all(
            type(value) in (int, float) and math.isfinite(value) for value in metrics.values()
        ):
            raise ValueError(f"metrics must map metric names to finite numbers, got {metrics!r}")
        report = RoundReport(j, metrics, pseudo)
        stamp = record.get("config", {})
        if not isinstance(stamp, dict):
            raise ValueError(f"its config stamp must map settings to values, got {stamp!r}")
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(
            f"{path}: round {j} record is malformed, {type(err).__name__}: {err}"
        ) from err
    for name in _STAGE_SETTINGS[min(j, 1)]:
        if stamp.get(name) != getattr(config, name):
            raise ValueError(
                f"round {j} checkpoint records {name} = {stamp.get(name)!r}, "
                f"this run has {name} = {getattr(config, name)!r}"
            )
    if not members:
        return None, None, report
    loaded = [load_params(rdir / f"member_{i:02d}.npz") for i in range(config.n_members)]
    ensemble = Ensemble(tuple(params for params, _ in loaded))
    states = [state for _, state in loaded]
    loaded_specs = (member.spec for member in ensemble.members)
    for i, (have, want) in enumerate(zip_longest(loaded_specs, specs)):
        if have != want:
            raise ValueError(f"round {j} checkpoint member {i} is {have}, this run has {want}")
    return ensemble, states, report


def latest_complete_round(checkpoint_dir: str | Path) -> int | None:
    """Last round of the unbroken run of complete rounds 0, 1, 2, ..., or None.

    A round counts once its record file exists; rounds after a gap, and
    directories that are not round directories, are ignored.
    """
    j = 0
    while (_round_dir(checkpoint_dir, j) / "round.json").exists():
        j += 1
    return j - 1 if j else None
