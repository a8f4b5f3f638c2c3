import dataclasses
import json
import shutil

import numpy as np
import pytest

from spelaudio import engine
from spelaudio.engine import (
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
from spelaudio.learner import LearnerSpec, init_adam, init_params, save_params, train

from conftest import mini_learner_spec, mini_spel_config


class TestSpelConfig:
    def test_budget_enforced(self):
        with pytest.raises(ValueError):
            SpelConfig(per_step=300, n_steps=4, pseudo_budget=1000)

    def test_budget_boundary_accepted(self):
        cfg = SpelConfig(per_step=150, n_steps=4, pseudo_budget=1000)
        assert cfg.per_step * cfg.n_steps == 600

    def test_spel_epochs_default_derivation(self):
        assert SpelConfig(pretrain_epochs=10, n_steps=3).spel_epochs_effective == 3
        assert SpelConfig(pretrain_epochs=2, n_steps=5, per_step=10).spel_epochs_effective == 1
        assert SpelConfig(pretrain_epochs=10, n_steps=3, spel_epochs=7).spel_epochs_effective == 7

    def test_zero_steps_allowed(self):
        assert SpelConfig(n_steps=0).n_steps == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            SpelConfig(seed=-1)


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

    def test_pseudo_set_requires_sorted_confidences(self):
        with pytest.raises(ValueError):
            PseudoSet(
                ids=np.array([0, 1]),
                labels=np.array([0, 1]),
                confidences=np.array([0.5, 0.9]),
                round_index=1,
            )


class TestPretrain:
    def test_single_member_equals_direct_train(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_members=1)
        ensemble, _ = pretrain(config, mini_bundle.source, [spec])

        params = init_params(spec, seed=_derive_seed(config.seed, 0, 0))
        state = init_adam(params, learning_rate=config.learning_rate)
        params, _ = train(
            params,
            mini_bundle.source.inputs,
            mini_bundle.source.targets,
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
        ensemble, _ = pretrain(config, mini_bundle.source, [spec, spec])
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
            pretrain(mini_spel_config(n_members=2), mini_bundle.source, [spec])


def controlled_confidence_ensemble():
    """Single linear member: confidence grows with |first input feature|."""
    spec = LearnerSpec(input_shape=2, n_outputs=2, hidden_layers=())
    params = init_params(spec, seed=0)
    params.tensors["out_w"][...] = [[1.0, -1.0], [0.0, 0.0]]
    params.tensors["out_b"][...] = 0.0
    return Ensemble((params,))


class TestSelectPseudo:
    def test_top_k_by_confidence(self):
        ensemble = controlled_confidence_ensemble()
        # confidences: sigmoid(2*|x0|) -> x0=3 highest, x0=0 lowest, x0=1 middle
        inputs = np.array([[3.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        unlabeled = UnlabeledSet(inputs=inputs, ids=np.arange(3))
        pseudo = select_pseudo(ensemble, unlabeled, count=2)
        assert pseudo.ids.tolist() == [0, 2]
        assert np.all(np.diff(pseudo.confidences) <= 0)

    def test_count_saturates(self):
        ensemble = controlled_confidence_ensemble()
        inputs = np.array([[3.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        unlabeled = UnlabeledSet(inputs=inputs, ids=np.arange(3))
        pseudo = select_pseudo(ensemble, unlabeled, count=50)
        assert len(pseudo.ids) == 3

    def test_ties_break_to_lower_id(self):
        ensemble = controlled_confidence_ensemble()
        inputs = np.zeros((3, 2))  # all equal confidence 0.5
        unlabeled = UnlabeledSet(inputs=inputs, ids=np.arange(3))
        pseudo = select_pseudo(ensemble, unlabeled, count=2)
        assert pseudo.ids.tolist() == [0, 1]

    def test_empty_unlabeled_rejected(self):
        ensemble = controlled_confidence_ensemble()
        with pytest.raises(ValueError):
            select_pseudo(
                ensemble, UnlabeledSet(inputs=np.zeros((0, 2)), ids=np.zeros(0)), count=1
            )

    def test_labels_match_ensemble_predictions(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config()
        ensemble, _ = pretrain(config, mini_bundle.source, [spec, spec])
        pseudo = select_pseudo(ensemble, mini_bundle.unlabeled, count=20)
        pred = avg_predict(ensemble, mini_bundle.unlabeled.inputs)
        for pid, label in zip(pseudo.ids, pseudo.labels):
            row = np.nonzero(mini_bundle.unlabeled.ids == pid)[0][0]
            assert pred.labels[row] == label


class TestSpelRound:
    def test_pseudo_count_law_and_saturation(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(per_step=50)  # pool has 60 unlabeled samples
        ensemble, states = pretrain(config, mini_bundle.source, [spec, spec])
        ensemble, states, report1, pseudo1 = spel_round(
            ensemble, states, mini_bundle.source, mini_bundle.unlabeled, 1, config
        )
        assert report1.pseudo_count == 50 and len(pseudo1.ids) == 50
        _, _, report2, pseudo2 = spel_round(
            ensemble, states, mini_bundle.source, mini_bundle.unlabeled, 2, config
        )
        assert report2.pseudo_count == 60 and len(pseudo2.ids) == 60

    def test_source_labels_untouched(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config()
        before = mini_bundle.source.targets.copy()
        ensemble, states = pretrain(config, mini_bundle.source, [spec, spec])
        spel_round(ensemble, states, mini_bundle.source, mini_bundle.unlabeled, 1, config)
        assert np.array_equal(mini_bundle.source.targets, before)

    def test_round_index_starts_at_one(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config()
        ensemble, states = pretrain(config, mini_bundle.source, [spec, spec])
        with pytest.raises(ValueError):
            spel_round(ensemble, states, mini_bundle.source, mini_bundle.unlabeled, 0, config)


class TestRunSpel:
    def test_reports_cover_every_round(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=2)
        result = run_spel(
            mini_bundle.source,
            mini_bundle.unlabeled,
            mini_bundle.test_inputs,
            config,
            [spec, spec],
            validation=mini_bundle.validation,
        )
        assert len(result.reports) == 3
        assert [r.round_index for r in result.reports] == [0, 1, 2]
        assert result.reports[0].pseudo_count == 0
        assert "accuracy" in result.reports[0].metrics
        assert result.reports[0].min_selected_confidence is None

    def test_zero_steps_is_baseline(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=0)
        result = run_spel(
            mini_bundle.source,
            mini_bundle.unlabeled,
            mini_bundle.test_inputs,
            config,
            [spec, spec],
        )
        assert np.array_equal(
            result.prediction.probabilities, result.baseline_prediction.probabilities
        )
        assert np.array_equal(result.prediction.labels, result.baseline_prediction.labels)
        assert len(result.reports) == 1

    def test_deterministic_given_seed(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=2)

        def go():
            return run_spel(
                mini_bundle.source,
                mini_bundle.unlabeled,
                mini_bundle.test_inputs,
                config,
                [spec, spec],
            )

        a, b = go(), go()
        assert np.array_equal(a.prediction.probabilities, b.prediction.probabilities)
        assert np.array_equal(a.prediction.labels, b.prediction.labels)

    def test_pseudo_ids_subset_of_pool(self, mini_bundle):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=2)
        result = run_spel(
            mini_bundle.source,
            mini_bundle.unlabeled,
            mini_bundle.test_inputs,
            config,
            [spec, spec],
        )
        for pseudo in result.pseudo_sets:
            assert len(np.unique(pseudo.ids)) == len(pseudo.ids)
            assert np.isin(pseudo.ids, mini_bundle.unlabeled.ids).all()


class TestCheckpoints:
    @staticmethod
    def _mark_complete(root, *names):
        for name in names:
            (root / name).mkdir(parents=True)
            (root / name / "round.json").write_text("{}")

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
        result = run_spel(
            mini_bundle.source,
            mini_bundle.unlabeled,
            mini_bundle.test_inputs,
            config,
            [spec, spec],
            validation=mini_bundle.validation,
            checkpoint_dir=ckpt,
        )
        assert latest_complete_round(ckpt) == 2

        for j in (1, 2):
            # Regeneration: the recorded selection must equal a fresh
            # selection by the pre-round ensemble, and its confidences must
            # dominate every unselected sample's.
            prev_ensemble, _, _, _ = load_round(ckpt, j - 1)
            expected = select_pseudo(
                prev_ensemble,
                mini_bundle.unlabeled,
                min(config.per_step * j, len(mini_bundle.unlabeled)),
                round_index=j,
            )
            recorded = result.pseudo_sets[j - 1]
            assert np.array_equal(recorded.ids, expected.ids)
            assert np.array_equal(recorded.labels, expected.labels)

            pred = avg_predict(prev_ensemble, mini_bundle.unlabeled.inputs)
            selected = np.isin(mini_bundle.unlabeled.ids, recorded.ids)
            if (~selected).any():
                assert recorded.confidences.min() >= pred.confidence[~selected].max()

    def test_loaded_round_reproduces_reports(self, mini_bundle, tmp_path):
        spec = mini_learner_spec(mini_bundle)
        config = mini_spel_config(n_steps=1)
        ckpt = tmp_path / "ckpt"
        result = run_spel(
            mini_bundle.source,
            mini_bundle.unlabeled,
            mini_bundle.test_inputs,
            config,
            [spec, spec],
            validation=mini_bundle.validation,
            checkpoint_dir=ckpt,
        )
        _, _, report, pseudo = load_round(ckpt, 1)
        assert report.pseudo_count == result.reports[1].pseudo_count
        assert report.metrics == pytest.approx(result.reports[1].metrics)
        assert np.array_equal(pseudo.ids, result.pseudo_sets[0].ids)

    def test_interrupted_rewrite_leaves_the_round_incomplete(
        self, mini_bundle, tmp_path, monkeypatch
    ):
        spec = mini_learner_spec(mini_bundle)
        ckpt = tmp_path / "ckpt"
        run_spel(
            mini_bundle.source,
            mini_bundle.unlabeled,
            mini_bundle.test_inputs,
            mini_spel_config(n_steps=1),
            [spec, spec],
            checkpoint_dir=ckpt,
        )
        assert latest_complete_round(ckpt) == 1
        ensemble, states, report, pseudo = load_round(ckpt, 1)
        written = []

        def save_one_then_fail(path, params, state=None):
            if written:
                raise OSError("disk full")
            written.append(path)
            save_params(path, params, state)

        monkeypatch.setattr(engine, "save_params", save_one_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_round(ckpt, 1, ensemble, states, report, pseudo, mini_spel_config(n_steps=1))
        assert len(written) == 1
        assert latest_complete_round(ckpt) == 0

    @staticmethod
    def _run(mini_bundle, ckpt, config, specs=None, resume=False):
        spec = mini_learner_spec(mini_bundle)
        return run_spel(
            mini_bundle.source,
            mini_bundle.unlabeled,
            mini_bundle.test_inputs,
            config,
            specs or [spec, spec],
            validation=mini_bundle.validation,
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

        for got, want in (
            (resumed.prediction, full.prediction),
            (resumed.baseline_prediction, full.baseline_prediction),
        ):
            assert np.array_equal(got.probabilities, want.probabilities)
            assert np.array_equal(got.labels, want.labels)
        assert resumed.reports == full.reports
        assert len(resumed.pseudo_sets) == len(full.pseudo_sets) == 2
        for got, want in zip(resumed.pseudo_sets, full.pseudo_sets):
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.labels, want.labels)
            assert np.array_equal(got.confidences, want.confidences)
        for a, b in zip(resumed.ensemble.members, full.ensemble.members):
            assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)

    def test_resume_refuses_other_run_settings(self, mini_bundle, tmp_path):
        ckpt = tmp_path / "ckpt"
        self._run(mini_bundle, ckpt, mini_spel_config(per_step=15))
        resumed = mini_spel_config(per_step=25, learning_rate=1e-2)
        with pytest.raises(ValueError, match="round 0 .*per_step = 15.*per_step = 25"):
            self._run(mini_bundle, ckpt, resumed, resume=True)

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
