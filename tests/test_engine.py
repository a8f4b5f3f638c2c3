import dataclasses
import json
import math
import os
import shutil
import signal
import time
import zipfile

import numpy as np
import pytest

from spelaudio import engine
from spelaudio.engine import (
    ExperimentData,
    LabeledSet,
    PseudoSet,
    SpelConfig,
    UnlabeledSet,
    _derive_seed,
    latest_complete_round,
    load_round,
    pretrain,
    run_spel,
    save_round,
    select_pseudo,
    spel_round,
)
from spelaudio.ensemble import Ensemble, avg_predict
from spelaudio.learner import (
    DivergenceError,
    LearnerSpec,
    init_adam,
    init_params,
    save_params,
    train,
)
from spelaudio.synthetic import gen_synthetic

from conftest import MINI_MELS, MINI_STFT, mini_learner_spec, mini_spel_config, mini_synthetic_spec


class TestSpelConfig:
    def test_spel_epochs_default_ignores_the_round_count(self):
        assert SpelConfig().spel_epochs == 3
        assert SpelConfig(pretrain_epochs=2, n_steps=5, per_step=10).spel_epochs == 3
        assert SpelConfig(pretrain_epochs=10, n_steps=3, spel_epochs=7).spel_epochs == 7
        with pytest.raises(ValueError, match="spel_epochs must be >= 1"):
            SpelConfig(spel_epochs=0)

    def test_every_setting_but_the_round_count_is_stamped(self):
        """Round 0 stamps what pretraining reads; later rounds add what a
        round reads, and so stamp every setting but the round count."""
        names = {f.name for f in dataclasses.fields(SpelConfig)}
        pretraining, rounds = engine._STAGE_SETTINGS
        assert set(pretraining) == {"n_members", "learning_rate", "pretrain_epochs", "batch_size",
                                    "seed"}
        assert set(rounds) == names - {"n_steps"}

    def test_zero_steps_allowed(self):
        assert SpelConfig(n_steps=0).n_steps == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SpelConfig(seed=-1)

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_learning_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="learning_rate must be positive"):
            SpelConfig(learning_rate=rate)


class TestDatasets:
    def test_unlabeled_has_no_label_field(self):
        names = {f.name for f in dataclasses.fields(UnlabeledSet)}
        assert names == {"inputs", "ids"}

    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError):
            UnlabeledSet(inputs=np.zeros((3, 4)), ids=np.array([0, 1, 1]))

    def test_labeled_set_rejects_empty(self):
        with pytest.raises(ValueError):
            LabeledSet(inputs=np.zeros((0, 4)), targets=np.zeros(0, dtype=int))

    def test_each_split_views_its_rows_of_the_store(self, mini_bundle):
        data = mini_bundle
        for name in ("labeled", "validation", "unlabeled", "test"):
            inputs = getattr(data, name).inputs
            assert np.shares_memory(inputs, data.images), name
            assert np.array_equal(inputs, data.images[data.rows[name]]), name
        assert np.array_equal(data.unlabeled.ids, np.arange(data.n_unlabeled))
        assert data.rows["test"].stop == len(data.images)

    @pytest.mark.parametrize("rows", [-1, 1])
    def test_a_store_at_odds_with_its_targets_is_refused(self, mini_bundle, rows):
        n = len(mini_bundle.images)
        with pytest.raises(ValueError, match=rf"^the store has {n + rows} rows, the splits {n}$"):
            dataclasses.replace(mini_bundle, images=np.zeros((n + rows, 1, 1), np.float32))

    @pytest.mark.parametrize("n_unlabeled", [-1, 2.5])
    def test_a_pool_size_that_is_not_a_count_is_refused(self, n_unlabeled):
        """-1 used to pass when the store's rows still summed, and the test
        split then took labeled row 9; 2.5 failed inside slice unnamed."""
        store = np.zeros((14, 1, 1), np.float32)
        message = rf"^n_unlabeled must be a non-negative integer, got {n_unlabeled}$"
        with pytest.raises(ValueError, match=message):
            ExperimentData(store, np.zeros(10, int), None, n_unlabeled, np.zeros(5, int), 2)

    def test_a_numpy_integer_pool_size_is_accepted(self):
        data = ExperimentData(np.zeros((17, 1, 1), np.float32), np.zeros(10, int), None,
                              np.int64(2), np.zeros(5, int), 2)
        assert data.rows["test"] == slice(12, 17)

    @pytest.mark.parametrize("split", ["labeled", "validation", "test"])
    def test_an_empty_split_is_refused(self, split):
        """An empty validation array is refused too: None says there is no
        validation split. Accepted, each empty split failed only in
        training or in the first forward."""
        targets = {"labeled": np.zeros(10, int), "validation": np.zeros(3, int),
                   "test": np.zeros(5, int)}
        targets[split] = np.zeros(0, int)
        store = np.zeros((sum(map(len, targets.values())) + 2, 1, 1), np.float32)
        with pytest.raises(ValueError, match=rf"^the {split} split is empty$"):
            ExperimentData(store, targets["labeled"], targets["validation"], 2,
                           targets["test"], 2)

    def test_a_pool_truth_of_another_length_is_refused(self, mini_bundle):
        n = mini_bundle.n_unlabeled
        with pytest.raises(ValueError, match=rf"^the pool truth has {n - 1} rows, the pool {n}$"):
            dataclasses.replace(mini_bundle, unlabeled_truth=mini_bundle.unlabeled_truth[1:])

    def test_a_split_cannot_be_replaced_beside_its_store(self, mini_bundle):
        labeled = mini_bundle.labeled
        with pytest.raises(TypeError, match="labeled"):
            dataclasses.replace(mini_bundle, labeled=LabeledSet(labeled.inputs * 2, labeled.targets))

    def test_pseudo_set_requires_sorted_confidences(self):
        with pytest.raises(ValueError):
            PseudoSet(
                ids=np.array([0, 1]),
                labels=np.array([0, 1]),
                confidences=np.array([0.5, 0.9]),
            )


class TestPretrain:
    def test_single_member_equals_direct_train(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_members=1)
        ensemble, *_ = pretrain(config, mini_bundle, [spec])

        params = init_params(spec, seed=_derive_seed(config.seed, 0, 0))
        state = init_adam(params, learning_rate=config.learning_rate)
        params, _ = train(
            params,
            mini_bundle.labeled.inputs,
            mini_bundle.labeled.targets,
            epochs=config.pretrain_epochs,
            batch_size=config.batch_size,
            state=state,
            seed=_derive_seed(config.seed, 1, 0),
        )
        for name in params.tensors:
            assert np.array_equal(ensemble.members[0].tensors[name], params.tensors[name])

    def test_identical_specs_distinct_members(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_members=2)
        ensemble, *_ = pretrain(config, mini_bundle, [spec, spec])
        distance = sum(
            np.abs(a - b).sum()
            for a, b in zip(
                ensemble.members[0].tensors.values(), ensemble.members[1].tensors.values()
            )
        )
        assert distance > 0

    def test_spec_count_mismatch(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        with pytest.raises(ValueError):
            pretrain(mini_spel_config(n_members=2), mini_bundle, [spec])

    def test_divergence_names_member_and_round_zero(self, mini_bundle):
        # Pretraining reads the labeled rows of the store, the first of them here.
        images = mini_bundle.images.copy()
        images[0, 0, 0] = np.nan
        data = ExperimentData(
            images, mini_bundle.labeled_targets, mini_bundle.validation_targets,
            mini_bundle.n_unlabeled, mini_bundle.test_targets, mini_bundle.n_classes,
        )
        spec = mini_learner_spec(mini_bundle)
        with pytest.raises(DivergenceError, match=r"^member 0, round 0: dense0_w .* by step 6$"):
            pretrain(mini_spel_config(pretrain_epochs=1), data, [spec, spec])


def controlled_confidence_ensemble():
    """Single linear member: confidence grows with |first input feature|."""
    spec = LearnerSpec(input_shape=(1, 2), n_outputs=2, hidden_layers=())
    params = init_params(spec, seed=0)
    params.tensors["out_w"][...] = [[1.0, -1.0], [0.0, 0.0]]
    params.tensors["out_b"][...] = 0.0
    return Ensemble((params,))


class TestSelectPseudo:
    def test_top_k_by_confidence(self):
        ensemble = controlled_confidence_ensemble()
        # confidences: sigmoid(2*|x0|) -> x0=3 highest, x0=0 lowest, x0=1 middle
        inputs = np.array([[3.0, 0.0], [0.0, 0.0], [1.0, 0.0]])[:, None, :]
        unlabeled = UnlabeledSet(inputs=inputs, ids=np.arange(3))
        pseudo = select_pseudo(avg_predict(ensemble, inputs), unlabeled, count=2)
        assert pseudo.ids.tolist() == [0, 2]
        assert np.all(np.diff(pseudo.confidences) <= 0)

    def test_count_saturates(self):
        ensemble = controlled_confidence_ensemble()
        inputs = np.array([[3.0, 0.0], [0.0, 0.0], [1.0, 0.0]])[:, None, :]
        unlabeled = UnlabeledSet(inputs=inputs, ids=np.arange(3))
        pseudo = select_pseudo(avg_predict(ensemble, inputs), unlabeled, count=50)
        assert len(pseudo.ids) == 3

    def test_ties_break_to_lower_id(self):
        ensemble = controlled_confidence_ensemble()
        inputs = np.zeros((3, 1, 2))  # all equal confidence 0.5
        unlabeled = UnlabeledSet(inputs=inputs, ids=np.arange(3))
        pseudo = select_pseudo(avg_predict(ensemble, inputs), unlabeled, count=2)
        assert pseudo.ids.tolist() == [0, 1]

    def test_empty_unlabeled_rejected(self):
        ensemble = controlled_confidence_ensemble()
        with pytest.raises(ValueError):
            empty = UnlabeledSet(inputs=np.zeros((0, 1, 2)), ids=np.zeros(0))
            select_pseudo(avg_predict(ensemble, empty.inputs), empty, count=1)

    def test_labels_match_ensemble_predictions(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config()
        ensemble, *_ = pretrain(config, mini_bundle, [spec, spec])
        pred = avg_predict(ensemble, mini_bundle.unlabeled.inputs)
        pseudo = select_pseudo(pred, mini_bundle.unlabeled, count=20)
        for pid, label in zip(pseudo.ids, pseudo.labels):
            row = np.nonzero(mini_bundle.unlabeled.ids == pid)[0][0]
            assert pred.labels[row] == label


class TestSpelRound:
    def test_pseudo_count_law_and_saturation(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(per_step=50)  # pool has 60 unlabeled samples
        ensemble, states, _, predictions = pretrain(config, mini_bundle, [spec, spec])
        ensemble, states, report1, predictions = spel_round(
            ensemble, states, mini_bundle, config, 1, predictions["unlabeled"]
        )
        assert report1.pseudo_count == 50 and len(report1.pseudo.ids) == 50
        pool = predictions["unlabeled"]
        _, _, report2, _ = spel_round(ensemble, states, mini_bundle, config, 2, pool)
        assert report2.pseudo_count == 60 and len(report2.pseudo.ids) == 60

    def test_members_equal_training_on_the_concatenated_pool(self, mini_bundle):
        """The round trains on store rows; a reference that copies the
        labeled split and the pseudo samples into one pool trains the same
        members bit for bit."""
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config()
        j = 2
        ensemble, states, _, predictions = pretrain(config, mini_bundle, [spec, spec])
        got, got_states, report, _ = spel_round(
            ensemble, states, mini_bundle, config, j, predictions["unlabeled"]
        )
        picked = [np.flatnonzero(mini_bundle.unlabeled.ids == i)[0] for i in report.pseudo.ids]
        inputs = np.concatenate([mini_bundle.labeled.inputs, mini_bundle.unlabeled.inputs[picked]])
        targets = np.concatenate([mini_bundle.labeled.targets, report.pseudo.labels])
        for i, (member, state) in enumerate(zip(ensemble.members, states)):
            want, want_state = train(
                member, inputs, targets, epochs=config.spel_epochs, batch_size=config.batch_size,
                state=state, seed=_derive_seed(config.seed, 2, i, j),
            )
            assert np.array_equal(got.members[i].buffer, want.buffer)
            assert got.members[i].step == want.step
            assert np.array_equal(got_states[i].buffer, want_state.buffer)

    def test_source_labels_untouched(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config()
        before = mini_bundle.labeled.targets.copy()
        ensemble, states, _, predictions = pretrain(config, mini_bundle, [spec, spec])
        spel_round(ensemble, states, mini_bundle, config, 1, predictions["unlabeled"])
        assert np.array_equal(mini_bundle.labeled.targets, before)

    def test_round_index_starts_at_one(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config()
        ensemble, states, _, predictions = pretrain(config, mini_bundle, [spec, spec])
        with pytest.raises(ValueError):
            spel_round(ensemble, states, mini_bundle, config, 0, predictions["unlabeled"])

    def test_divergence_names_member_and_round(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(pretrain_epochs=1)
        ensemble, states, _, predictions = pretrain(config, mini_bundle, [spec, spec])
        states[1].m["out_b"][0] = np.nan
        # NaN moments poison out_b at the round's first step and every tensor
        # after it; the first non-finite one in parameter order is reported.
        with pytest.raises(DivergenceError, match=r"^member 1, round 2: dense0_w became") as info:
            spel_round(ensemble, states, mini_bundle, config, 2, predictions["unlabeled"])
        err = info.value
        assert isinstance(err, ValueError)
        assert (err.member, err.round_index, err.tensor) == (1, 2, "dense0_w")
        pool = len(mini_bundle.labeled) + min(2 * config.per_step, len(mini_bundle.unlabeled))
        # Parameters are checked at the end of each epoch, so the first one reports.
        assert err.step == ensemble.members[1].step + math.ceil(pool / config.batch_size)
        assert isinstance(err.__cause__, DivergenceError) and err.__cause__.member is None


class TestRunSpel:
    def test_each_member_forwards_each_split_the_run_reads_once(self, mini_bundle, monkeypatch):
        """Pretraining forwards validation, the pool and test; a round
        validation and the pool, or at the last round validation and test.
        Nothing forwards a member a second time."""
        monkeypatch.setattr(engine, "_usable_cpus", lambda: 1)
        rows, real = [], engine.learner.forward

        def forward(params, inputs):
            rows.append(len(inputs))
            return real(params, inputs)

        monkeypatch.setattr(engine.learner, "forward", forward)
        spec = mini_learner_spec(mini_bundle)
        run_spel(mini_bundle, mini_spel_config(n_steps=2), [spec, spec])
        v, u, t = (len(getattr(mini_bundle, name)) for name in ("validation", "unlabeled", "test"))
        assert len({v, u, t}) == 3
        assert rows == [v, u, t] * 2 + [v, u] * 2 + [v, t] * 2

    def test_reports_cover_every_round(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=2)
        result = run_spel(mini_bundle, config, [spec, spec])
        assert len(result.reports) == 3
        assert [r.round_index for r in result.reports] == [0, 1, 2]
        assert result.reports[0].pseudo_count == 0
        assert "accuracy" in result.reports[0].metrics
        assert result.reports[0].min_selected_confidence is None
        for report in result.reports[1:]:
            assert report.min_selected_confidence == float(report.pseudo.confidences[-1])

    def test_zero_steps_is_baseline(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=0)
        result = run_spel(mini_bundle, config, [spec, spec])
        assert np.array_equal(
            result.prediction.probabilities, result.baseline_prediction.probabilities
        )
        assert np.array_equal(result.prediction.labels, result.baseline_prediction.labels)
        assert len(result.reports) == 1

    def test_deterministic_given_seed(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=2)

        def go():
            return run_spel(mini_bundle, config, [spec, spec])

        a, b = go(), go()
        assert np.array_equal(a.prediction.probabilities, b.prediction.probabilities)
        assert np.array_equal(a.prediction.labels, b.prediction.labels)

    def test_pseudo_ids_subset_of_pool(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=2)
        result = run_spel(mini_bundle, config, [spec, spec])
        for pseudo in (report.pseudo for report in result.reports[1:]):
            assert len(np.unique(pseudo.ids)) == len(pseudo.ids)
            assert np.isin(pseudo.ids, mini_bundle.unlabeled.ids).all()

    def test_training_reads_neither_test_targets_nor_pool_truth(self, mini_bundle):
        """The run receives both truths with its data; changing them changes
        no member tensor, report or prediction."""
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=2)
        blind = dataclasses.replace(
            mini_bundle, test_targets=mini_bundle.test_targets[::-1].copy(), unlabeled_truth=None
        )
        assert not np.array_equal(blind.test.targets, mini_bundle.test.targets)
        TestCheckpoints._assert_same_run(
            run_spel(blind, config, [spec, spec]),
            run_spel(mini_bundle, config, [spec, spec]),
            rounds=2,
        )


    @pytest.mark.parametrize("stem", [(), ((3, 3, 1),)], ids=["dense", "conv"])
    def test_float32_store_runs_as_its_float64_copy(self, mini_bundle, stem):
        """Members cast the rows they read to their own dtype, float32, so a
        run on a float64 copy of the store equals, bitwise, a run on the store."""
        data = mini_bundle
        wide = ExperimentData(
            data.images.astype(np.float64), data.labeled_targets, data.validation_targets,
            data.n_unlabeled, data.test_targets, data.n_classes, data.unlabeled_truth,
        )
        spec = LearnerSpec(data.images.shape[1:], 3, hidden_layers=(12,), conv_stem=stem)
        config = mini_spel_config(n_steps=2)
        assert data.images.dtype == np.float32
        TestCheckpoints._assert_same_run(
            run_spel(data, config, [spec, spec]), run_spel(wide, config, [spec, spec]), rounds=2
        )


class TestCheckpoints:
    @staticmethod
    def _mark_complete(root, *names):
        for name in names:
            (root / name).mkdir(parents=True)
            (root / name / "round.json").write_text("{}")

    def test_failed_text_write_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "results.csv"
        engine.write_text_atomic(path, "round\n")
        with pytest.raises(UnicodeEncodeError):
            engine.write_text_atomic(path, "round\n\ud800\n")
        assert path.read_text() == "round\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.csv"]

    def test_latest_round_ignores_non_numeric_directories(self, tmp_path):
        self._mark_complete(tmp_path, "round_000", "round_001", "round_old")
        assert latest_complete_round(tmp_path) == 1

    def test_latest_round_stops_at_first_gap(self, tmp_path):
        assert latest_complete_round(tmp_path / "missing") is None
        self._mark_complete(tmp_path / "a", "round_001")
        assert latest_complete_round(tmp_path / "a") is None
        self._mark_complete(tmp_path / "b", "round_000", "round_002")
        assert latest_complete_round(tmp_path / "b") == 0

    def test_round_trip_and_selection_dominance(self, mini_bundle, tmp_path):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=2, per_step=20)
        ckpt = tmp_path / "ckpt"
        result = run_spel(mini_bundle, config, [spec, spec], checkpoint_dir=ckpt)
        assert latest_complete_round(ckpt) == 2

        for j in (1, 2):
            # Regeneration: the recorded selection must equal a fresh
            # selection by the pre-round ensemble, and its confidences must
            # dominate every unselected sample's.
            prev_ensemble, _, _ = load_round(ckpt, j - 1, config, [spec, spec])
            pred = avg_predict(prev_ensemble, mini_bundle.unlabeled.inputs)
            expected = select_pseudo(
                pred,
                mini_bundle.unlabeled,
                min(config.per_step * j, len(mini_bundle.unlabeled)),
            )
            recorded = result.reports[j].pseudo
            assert np.array_equal(recorded.ids, expected.ids)
            assert np.array_equal(recorded.labels, expected.labels)

            selected = np.isin(mini_bundle.unlabeled.ids, recorded.ids)
            if (~selected).any():
                assert recorded.confidences.min() >= pred.confidence[~selected].max()

    def test_loaded_round_reproduces_reports(self, mini_bundle, tmp_path):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=1)
        ckpt = tmp_path / "ckpt"
        result = run_spel(mini_bundle, config, [spec, spec], checkpoint_dir=ckpt)
        _, _, report = load_round(ckpt, 1, config, [spec, spec])
        assert report == result.reports[1]

    def test_interrupted_rewrite_leaves_the_round_incomplete(
        self, mini_bundle, tmp_path, monkeypatch
    ):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=1)
        ckpt = tmp_path / "ckpt"
        run_spel(mini_bundle, config, [spec, spec], checkpoint_dir=ckpt)
        assert latest_complete_round(ckpt) == 1
        ensemble, states, report = load_round(ckpt, 1, config, [spec, spec])
        written = []

        def save_one_then_fail(path, params, state=None):
            if written:
                raise OSError("disk full")
            written.append(path)
            save_params(path, params, state)

        monkeypatch.setattr(engine, "save_params", save_one_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_round(ckpt, 1, ensemble, states, report, config)
        assert len(written) == 1
        assert latest_complete_round(ckpt) == 0

    @staticmethod
    def _run(mini_bundle, ckpt, config, specs=None, resume=False):
        spec = mini_learner_spec(mini_bundle)
        return run_spel(
            mini_bundle,
            config,
            specs or [spec, spec],
            checkpoint_dir=ckpt,
            resume=resume,
        )

    @pytest.mark.parametrize(
        "checkpoint_steps, kept_rounds, expected_last",
        [
            (2, 1, 0),  # cut after round 0
            (2, 2, 1),  # cut after round 1
            (2, 3, 2),  # every round complete
            (2, 0, None),  # empty checkpoint directory
            (3, 4, 3),  # checkpoint deeper than the resumed run
        ],
        ids=["after-round-0", "after-round-1", "after-last-round", "empty", "deeper"],
    )
    def test_resume_matches_uninterrupted_run(
        self, mini_bundle, tmp_path, checkpoint_steps, kept_rounds, expected_last
    ):
        full = self._run(mini_bundle, tmp_path / "full", mini_spel_config(n_steps=2))
        ckpt = tmp_path / "ckpt"
        self._run(mini_bundle, ckpt, mini_spel_config(n_steps=checkpoint_steps))
        for j in range(kept_rounds, checkpoint_steps + 1):
            shutil.rmtree(ckpt / f"round_{j:03d}")
        assert latest_complete_round(ckpt) == expected_last
        resumed = self._run(mini_bundle, ckpt, mini_spel_config(n_steps=2), resume=True)
        self._assert_same_run(resumed, full, rounds=2)

    def test_resume_with_more_rounds_matches_uninterrupted_run(self, mini_bundle, tmp_path):
        """Rounds 1-2 of a 2-round run are those of the 3-round run with
        spel_epochs left at its default, so a resume may go further."""
        config = mini_spel_config(n_steps=3, pretrain_epochs=4)
        full = self._run(mini_bundle, tmp_path / "full", config)
        ckpt = tmp_path / "ckpt"
        self._run(mini_bundle, ckpt, dataclasses.replace(config, n_steps=2))
        resumed = self._run(mini_bundle, ckpt, config, resume=True)
        self._assert_same_run(resumed, full, rounds=3)
        assert latest_complete_round(ckpt) == 3

    @staticmethod
    def _assert_same_run(got_run, want_run, rounds):
        for got, want in (
            (got_run.prediction, want_run.prediction),
            (got_run.baseline_prediction, want_run.baseline_prediction),
        ):
            assert np.array_equal(got.probabilities, want.probabilities)
            assert np.array_equal(got.labels, want.labels)
        # Reports compare their pseudo sets array by array.
        assert got_run.reports == want_run.reports
        assert len(got_run.reports) == rounds + 1
        for a, b in zip(got_run.ensemble.members, want_run.ensemble.members):
            assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)

    def test_resume_from_records_that_store_the_derived_fields(self, mini_bundle, tmp_path):
        """Records written with pseudo_count and min_selected_confidence
        beside the pseudo set, the earlier layout, resume to the same run."""
        config = mini_spel_config(n_steps=2)
        full = self._run(mini_bundle, tmp_path / "full", config)
        ckpt = tmp_path / "ckpt"
        self._run(mini_bundle, ckpt, config)
        shutil.rmtree(ckpt / "round_002")
        for report in full.reports[:2]:
            record = ckpt / f"round_{report.round_index:03d}" / "round.json"
            raw = json.loads(record.read_text())
            assert "pseudo_count" not in raw and "min_selected_confidence" not in raw
            raw["pseudo_count"] = report.pseudo_count
            raw["min_selected_confidence"] = report.min_selected_confidence
            record.write_text(json.dumps(raw, indent=2, sort_keys=True))
        resumed = self._run(mini_bundle, ckpt, config, resume=True)
        self._assert_same_run(resumed, full, rounds=2)

    def test_resume_without_a_checkpoint_dir_is_refused(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        with pytest.raises(ValueError, match="resume needs a checkpoint_dir"):
            run_spel(mini_bundle, mini_spel_config(), [spec, spec], resume=True)

    @pytest.mark.parametrize(
        "damage, reason",
        [
            ("cut-in-half", "JSONDecodeError: Expecting"),
            ("no-metrics", "KeyError: 'metrics'"),
            (
                {"metrics": [1, 2]},
                r"ValueError: metrics must map metric names to finite numbers, got \[1, 2\]",
            ),
            (
                {"metrics": {"accuracy": "high"}},
                "ValueError: metrics must map metric names to finite numbers",
            ),
            (
                {"metrics": {"accuracy": math.nan}},
                "ValueError: metrics must map .* got {'accuracy': nan}",
            ),
            (
                {"config": ["seed", 7]},
                r"ValueError: its config stamp must map settings to values, got \['seed', 7\]",
            ),
            ({"config": None}, "ValueError: its config stamp must map settings to values, got None"),
        ],
        ids=["cut-in-half", "no-metrics", "metrics-a-list", "metric-a-string", "metric-nan",
             "config-a-list", "config-null"],
    )
    def test_malformed_round_record_names_its_path_and_round(
        self, mini_bundle, tmp_path, damage, reason
    ):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=1)
        ckpt = tmp_path / "ckpt"
        self._run(mini_bundle, ckpt, config)
        record = ckpt / "round_001" / "round.json"
        text = record.read_text()
        if damage == "cut-in-half":
            record.write_text(text[: len(text) // 2])
        else:
            raw = json.loads(text)
            if damage == "no-metrics":
                del raw["metrics"]
            else:
                raw.update(damage)
            record.write_text(json.dumps(raw))
        match = rf"round_001[/\\]round\.json: round 1 record is malformed, {reason}"
        with pytest.raises(ValueError, match=match):
            load_round(ckpt, 1, config, [spec, spec])
        with pytest.raises(ValueError, match=match):
            self._run(mini_bundle, ckpt, config, resume=True)

    @pytest.mark.parametrize(
        "j, edit, reason",
        [
            (1, {"round": 7}, "ValueError: it records round 7"),
            (
                1,
                {"pseudo": {"ids": [], "labels": [], "confidences": []}},
                "ValueError: a pseudo set selects at least one sample",
            ),
            (
                0,
                {"pseudo": {"ids": [0], "labels": [1], "confidences": [0.9]}},
                "ValueError: only round 0 has no pseudo set",
            ),
        ],
        ids=["another-round", "empty-pseudo-set", "pseudo-set-in-round-0"],
    )
    def test_record_at_odds_with_its_round_is_refused(
        self, mini_bundle, tmp_path, j, edit, reason
    ):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=1)
        ckpt = tmp_path / "ckpt"
        self._run(mini_bundle, ckpt, config)
        record = ckpt / f"round_{j:03d}" / "round.json"
        record.write_text(json.dumps({**json.loads(record.read_text()), **edit}))
        match = rf"round_{j:03d}[/\\]round\.json: round {j} record is malformed, {reason}"
        with pytest.raises(ValueError, match=match):
            load_round(ckpt, j, config, [spec, spec], members=False)
        with pytest.raises(ValueError, match=match):
            self._run(mini_bundle, ckpt, config, resume=True)

    def test_resume_refuses_other_run_settings(self, mini_bundle, tmp_path):
        """A setting pretraining reads is refused at round 0, one only the
        later rounds read at round 1."""
        ckpt = tmp_path / "ckpt"
        self._run(mini_bundle, ckpt, mini_spel_config(per_step=15))
        resumed = mini_spel_config(per_step=15, learning_rate=1e-2)
        with pytest.raises(ValueError, match="round 0 .*learning_rate = 0.003.* = 0.01"):
            self._run(mini_bundle, ckpt, resumed, resume=True)
        with pytest.raises(ValueError, match="round 1 .*per_step = 15.*per_step = 25"):
            self._run(mini_bundle, ckpt, mini_spel_config(per_step=25), resume=True)

    @pytest.mark.parametrize("layout", ["current", "older"])
    def test_resume_from_a_round_0_of_another_per_step(self, mini_bundle, tmp_path, layout):
        """Pretraining reads neither per_step nor spel_epochs, so a round 0
        of per_step = 10 resumes to the uninterrupted per_step = 20 run, down
        to the Adam buffers; so does one in the older layout, which stamps
        every setting but the round count and records the member count."""
        config = mini_spel_config(n_steps=2, per_step=20)
        full = self._run(mini_bundle, tmp_path / "full", config)
        ckpt = tmp_path / "ckpt"
        self._run(mini_bundle, ckpt, dataclasses.replace(config, n_steps=0, per_step=10))
        record = ckpt / "round_000" / "round.json"
        raw = json.loads(record.read_text())
        assert "n_members" not in raw and "per_step" not in raw["config"]
        if layout == "older":
            raw["n_members"] = config.n_members
            raw["config"].update(per_step=10, spel_epochs=config.spel_epochs)
            record.write_text(json.dumps(raw, indent=2, sort_keys=True))
        resumed = self._run(mini_bundle, ckpt, config, resume=True)
        self._assert_same_run(resumed, full, rounds=2)
        spec = mini_learner_spec(mini_bundle)
        for j in range(3):
            (got, got_states, _), (want, want_states, _) = (
                load_round(d, j, config, [spec, spec]) for d in (ckpt, tmp_path / "full")
            )
            for a, b in zip(got.members, want.members):
                assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)
            for a, b in zip(got_states, want_states, strict=True):
                assert np.array_equal(a.buffer, b.buffer)

    def test_resume_refuses_an_unstamped_record(self, mini_bundle, tmp_path):
        ckpt = tmp_path / "ckpt"
        config = mini_spel_config(n_steps=0)
        self._run(mini_bundle, ckpt, config)
        record = ckpt / "round_000" / "round.json"
        raw = json.loads(record.read_text())
        del raw["config"]
        record.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="round 0 checkpoint records n_members = None"):
            self._run(mini_bundle, ckpt, config, resume=True)

    def test_resume_refuses_other_member_specs(self, mini_bundle, tmp_path):
        ckpt = tmp_path / "ckpt"
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=1)
        self._run(mini_bundle, ckpt, config)
        wider = dataclasses.replace(spec, hidden_layers=(24,))
        with pytest.raises(ValueError, match="round 0 checkpoint member 1"):
            self._run(mini_bundle, ckpt, config, specs=[spec, wider], resume=True)


def checkpoint_contents(ckpt):
    """Each file under a checkpoint directory by relative path: its bytes,
    or for a member archive the bytes of each entry, since an archive also
    records when it was written."""
    contents = {}
    for path in sorted(p for p in ckpt.rglob("*") if p.is_file()):
        name = path.relative_to(ckpt).as_posix()
        if path.suffix == ".npz":
            with zipfile.ZipFile(path) as archive:
                contents[name] = {entry: archive.read(entry) for entry in archive.namelist()}
        else:
            contents[name] = path.read_bytes()
    return contents


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """A stage's members train in k = min(members, usable CPUs) contiguous
    blocks; the caller's own process trains the first."""

    @staticmethod
    def _cpus(monkeypatch, n):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: n)

    @staticmethod
    def _counted_forks(monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(engine.os, "fork", lambda: forks.append(1) or fork())
        return forks

    @staticmethod
    def _train_failing(monkeypatch, member, fail):
        """engine.train, but fail() runs in place of training member."""
        real = engine.train

        def fake(params, *args, **kwargs):
            if params is member:
                fail()
            return real(params, *args, **kwargs)

        monkeypatch.setattr(engine, "train", fake)

    def _stage(self, mini_bundle, n_members=3):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(pretrain_epochs=1, n_members=n_members)
        ensemble, states, _, predictions = pretrain(config, mini_bundle, [spec] * n_members)
        return ensemble, states, config, predictions["unlabeled"]

    def _runs_on_1_2_and_3_cpus(self, data, config, specs, tmp_path, monkeypatch):
        """Runs at 1, 2 and 3 usable CPUs, which must equal the 1-CPU run
        down to the checkpoint contents; returns each run's fork count."""
        forks = self._counted_forks(monkeypatch)
        runs, fork_counts = {}, []
        for cpus in (1, 2, 3):
            self._cpus(monkeypatch, cpus)
            ckpt = tmp_path / f"cpus{cpus}"
            result = run_spel(data, config, specs, checkpoint_dir=ckpt)
            _, states, _ = load_round(ckpt, config.n_steps, config, specs)
            runs[cpus] = result, states, checkpoint_contents(ckpt)
            fork_counts.append(len(forks))
            forks.clear()
        want, want_states, want_files = runs[1]
        for got, got_states, got_files in (runs[2], runs[3]):
            TestCheckpoints._assert_same_run(got, want, rounds=config.n_steps)
            for a, b in zip(got.ensemble.members, want.ensemble.members):
                assert a.buffer.tobytes() == b.buffer.tobytes() and a.step == b.step
            for a, b in zip(got_states, want_states):
                assert a.buffer.tobytes() == b.buffer.tobytes()
            assert got_files == want_files
        assert_no_child_left()
        return fork_counts

    @staticmethod
    def _mixed_specs(data, head="multiclass"):
        shape = data.labeled.inputs.shape[1:]
        return [
            LearnerSpec(shape, 3, hidden_layers=(16,), head=head),
            LearnerSpec(shape, 3, hidden_layers=(8, 6), head=head),
            LearnerSpec(shape, 3, hidden_layers=(10,), conv_stem=((2, 3, 2),), head=head),
        ]

    def test_runs_on_1_2_and_3_cpus_are_equal(self, mini_bundle, tmp_path, monkeypatch):
        config = mini_spel_config(n_members=3, n_steps=2, per_step=20)
        forks = self._runs_on_1_2_and_3_cpus(
            mini_bundle, config, self._mixed_specs(mini_bundle), tmp_path, monkeypatch
        )
        # one fork per worker per stage: pretraining and two rounds
        assert forks == [3 * (cpus - 1) for cpus in (1, 2, 3)]

    @pytest.mark.parametrize("case", ["no-rounds", "no-validation", "multilabel"])
    def test_other_runs_on_1_2_and_3_cpus_are_equal(self, mini_bundle, tmp_path, monkeypatch, case):
        """Without rounds the final prediction is pretraining's test
        forward; without validation no stage forwards that split."""
        config = mini_spel_config(n_members=3, n_steps=0 if case == "no-rounds" else 2, per_step=20)
        data, head = mini_bundle, "multiclass"
        if case == "no-validation":
            validation_rows = np.r_[mini_bundle.rows["validation"]]
            data = dataclasses.replace(
                mini_bundle, images=np.delete(mini_bundle.images, validation_rows, axis=0),
                validation_targets=None,
            )
        elif case == "multilabel":
            spec = mini_synthetic_spec(task="multilabel")
            data = gen_synthetic(spec, MINI_STFT, MINI_MELS, seed=1234)
            head = "multilabel"
        forks = self._runs_on_1_2_and_3_cpus(
            data, config, self._mixed_specs(data, head), tmp_path, monkeypatch
        )
        assert forks == [(config.n_steps + 1) * (cpus - 1) for cpus in (1, 2, 3)]

    def test_a_run_resumed_on_2_cpus_equals_the_uninterrupted_run_on_1(
        self, mini_bundle, tmp_path, monkeypatch
    ):
        """The resumed run's loaded rounds 0 and 1 predict the baseline and
        the pool in the processes a stage uses, one fork each."""
        specs = self._mixed_specs(mini_bundle)
        config = mini_spel_config(n_members=3, n_steps=3, per_step=20)
        self._cpus(monkeypatch, 1)
        full = run_spel(mini_bundle, config, specs, checkpoint_dir=tmp_path / "full")
        ckpt = tmp_path / "cut"
        for j in (0, 1):
            shutil.copytree(tmp_path / "full" / f"round_{j:03d}", ckpt / f"round_{j:03d}")
        self._cpus(monkeypatch, 2)
        forks = self._counted_forks(monkeypatch)
        resumed = run_spel(mini_bundle, config, specs, checkpoint_dir=ckpt, resume=True)
        assert len(forks) == 4  # loaded rounds 0 and 1, computed rounds 2 and 3
        TestCheckpoints._assert_same_run(resumed, full, rounds=3)
        assert checkpoint_contents(ckpt) == checkpoint_contents(tmp_path / "full")
        assert_no_child_left()

    def test_members_train_in_contiguous_blocks(self, mini_bundle, monkeypatch, tmp_path):
        """With 5 members on 2 CPUs this process trains members 0 and 1, one
        worker members 2, 3 and 4."""
        ensemble, states, config, pool = self._stage(mini_bundle, n_members=5)
        log, real = tmp_path / "pids", engine.train

        def fake(params, *args, **kwargs):
            member = next(i for i, m in enumerate(ensemble.members) if m is params)
            with open(log, "a") as fh:
                fh.write(f"{member} {os.getpid()}\n")
            return real(params, *args, **kwargs)

        monkeypatch.setattr(engine, "train", fake)
        self._cpus(monkeypatch, 2)
        spel_round(ensemble, states, mini_bundle, config, 2, pool)
        pids = dict(map(int, line.split()) for line in log.read_text().splitlines())
        assert sorted(pids) == [0, 1, 2, 3, 4]
        assert pids[0] == pids[1] == os.getpid()
        assert pids[2] == pids[3] == pids[4] != os.getpid()
        assert_no_child_left()

    def test_a_single_member_never_forks(self, mini_bundle, monkeypatch):
        self._cpus(monkeypatch, 3)

        def no_fork():
            raise AssertionError("a one-member stage forked")

        monkeypatch.setattr(engine.os, "fork", no_fork)
        spec = mini_learner_spec(mini_bundle)
        run_spel(mini_bundle, mini_spel_config(n_members=1, n_steps=1), [spec])

    @pytest.mark.parametrize("poisoned, reported", [((1, 2), 1), ((0, 1), 0)])
    def test_the_lowest_diverged_member_is_reported_across_processes(
        self, mini_bundle, monkeypatch, poisoned, reported
    ):
        """With 2 CPUs this process trains member 0, a worker members 1 and 2."""
        ensemble, states, config, pool = self._stage(mini_bundle)
        for i in poisoned:
            states[i].m["out_b"][0] = np.nan
        self._cpus(monkeypatch, 2)
        with pytest.raises(DivergenceError, match=rf"^member {reported}, round 2: dense0_w") as info:
            spel_round(ensemble, states, mini_bundle, config, 2, pool)
        assert (info.value.member, info.value.round_index) == (reported, 2)
        assert isinstance(info.value.__cause__, DivergenceError)
        assert info.value.__cause__.member is None
        assert_no_child_left()

    def test_a_worker_that_raises_names_member_and_round(self, mini_bundle, monkeypatch):
        ensemble, states, config, pool = self._stage(mini_bundle)

        def fail():
            raise KeyError("no such tensor")

        self._train_failing(monkeypatch, ensemble.members[1], fail)
        self._cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"^member 1, round 2: it failed in its worker") as info:
            spel_round(ensemble, states, mini_bundle, config, 2, pool)
        assert "KeyError: 'no such tensor'" in str(info.value)
        assert_no_child_left()

    def test_a_killed_worker_names_member_and_round(self, mini_bundle, monkeypatch):
        ensemble, states, config, pool = self._stage(mini_bundle)
        parent = os.getpid()

        def die():
            assert os.getpid() != parent, "member 1 trains in a worker"
            os.kill(os.getpid(), signal.SIGKILL)

        self._train_failing(monkeypatch, ensemble.members[1], die)
        self._cpus(monkeypatch, 2)
        with pytest.raises(
            RuntimeError,
            match=rf"^member 1, round 2: the worker process running it was killed by signal {signal.SIGKILL.value}$",
        ):
            spel_round(ensemble, states, mini_bundle, config, 2, pool)
        assert_no_child_left()

    def test_a_worker_killed_on_its_second_member_names_that_member(self, mini_bundle, monkeypatch):
        """With 4 members on 2 CPUs a worker runs members 2 and 3, and it
        has sent member 2 back when it is killed training member 3."""
        ensemble, states, config, pool = self._stage(mini_bundle, n_members=4)
        parent = os.getpid()

        def die():
            assert os.getpid() != parent, "member 3 trains in a worker"
            os.kill(os.getpid(), signal.SIGKILL)

        self._train_failing(monkeypatch, ensemble.members[3], die)
        self._cpus(monkeypatch, 2)
        with pytest.raises(
            RuntimeError,
            match=rf"^member 3, round 2: the worker process running it was killed by signal {signal.SIGKILL.value}$",
        ):
            spel_round(ensemble, states, mini_bundle, config, 2, pool)
        assert_no_child_left()

    def test_a_worker_killed_while_predicting_names_the_member(self, mini_bundle, monkeypatch):
        """The worker's first forward is member 2's, after training it."""
        ensemble, states, config, pool = self._stage(mini_bundle, n_members=4)
        parent, real = os.getpid(), engine.learner.forward

        def forward(params, inputs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(params, inputs)

        monkeypatch.setattr(engine.learner, "forward", forward)
        self._cpus(monkeypatch, 2)
        with pytest.raises(
            RuntimeError,
            match=rf"^member 2, round 2: the worker process running it was killed by signal {signal.SIGKILL.value}$",
        ):
            spel_round(ensemble, states, mini_bundle, config, 2, pool)
        assert_no_child_left()

    def test_a_failing_parent_stops_and_reaps_its_workers(self, mini_bundle, monkeypatch):
        ensemble, states, config, pool = self._stage(mini_bundle, n_members=2)
        real = engine.train

        class Interrupted(Exception):
            pass

        def fake(params, *args, **kwargs):
            if params is ensemble.members[0]:
                raise Interrupted
            time.sleep(60)  # member 1's worker would outlive the stage unless stopped
            return real(params, *args, **kwargs)

        monkeypatch.setattr(engine, "train", fake)
        self._cpus(monkeypatch, 2)
        start = time.perf_counter()
        with pytest.raises(Interrupted):
            spel_round(ensemble, states, mini_bundle, config, 2, pool)
        assert time.perf_counter() - start < 30
        assert_no_child_left()


class TestFanOut:
    """_fan_out over n = 1..7 items at 1, 2 and 3 usable CPUs: k = min(n,
    CPUs) contiguous blocks, the first run in this process."""

    CASES = [(n, cpus) for n in range(1, 8) for cpus in (1, 2, 3)]

    @staticmethod
    def _blocks(n, cpus):
        k = min(n, cpus)
        return [range(n * w // k, n * (w + 1) // k) for w in range(k)]

    @staticmethod
    def _run(fail=()):
        def run(block):
            for i in block:
                if i in fail:
                    raise KeyError(i)
                yield i, os.getpid()
        return run

    @staticmethod
    def _name(i):
        return f"item {i}"

    @pytest.mark.parametrize("n, cpus", CASES)
    def test_items_come_back_in_index_order(self, monkeypatch, n, cpus):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        items, failed = engine._fan_out(n, self._run(), KeyError, self._name)
        assert failed is None
        assert [i for i, _ in items] == list(range(n))
        pids = [pid for _, pid in items]
        blocks = self._blocks(n, cpus)
        per_block = [{pids[i] for i in block} for block in blocks]
        assert per_block[0] == {os.getpid()}
        assert all(len(p) == 1 for p in per_block) and len(set(pids)) == len(blocks)
        assert_no_child_left()

    def _assert_fails_at(self, n, fail, i):
        """A KeyError at each index of fail comes back as (i, exc) when it
        is sent; when it is not, it propagates from this process's own
        block and is a RuntimeError naming item i from a worker's."""
        failed = engine._fan_out(n, self._run(fail), KeyError, self._name)[1]
        assert failed[0] == i and failed[1].args == (i,)
        own = i < self._blocks(n, engine._usable_cpus())[0].stop
        with pytest.raises(KeyError if own else RuntimeError) as info:
            engine._fan_out(n, self._run(fail), ValueError, self._name)
        if own:
            assert info.value.args == (i,)
        else:
            assert str(info.value).startswith(f"item {i}: it failed in its worker process:")
            assert f"KeyError: {i}" in str(info.value)
        assert_no_child_left()

    @pytest.mark.parametrize("n, cpus", CASES)
    def test_a_failure_is_named_by_its_index(self, monkeypatch, n, cpus):
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        for i in range(n):
            self._assert_fails_at(n, {i}, i)

    @pytest.mark.parametrize("n, cpus", CASES)
    def test_of_failures_in_two_blocks_the_earlier_is_named(self, monkeypatch, n, cpus):
        """The earlier block fails at its last index and the later one at
        its first, so the later failure is likely the first in time; the
        earlier block's index is still the one named."""
        monkeypatch.setattr(engine, "_usable_cpus", lambda: cpus)
        blocks = self._blocks(n, cpus)
        for a, early in enumerate(blocks):
            for late in blocks[a + 1:]:
                self._assert_fails_at(n, {early[-1], late[0]}, early[-1])
