import copy
import json
import math

import numpy as np
import pytest

from spelaudio.learner import (
    EPS,
    LearnerParams,
    LearnerSpec,
    MiniBatch,
    OptimizerState,
    adam_step,
    forward,
    init_adam,
    init_params,
    load_params,
    loss_and_grad,
    n_parameters,
    save_params,
    train,
)


def numeric_gradients(params, batch, h=1e-5):
    """Central finite differences on every parameter component, one at a time."""
    grads = {}
    for name, arr in params.tensors.items():
        num = np.zeros_like(arr)
        flat = arr.ravel()
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            up, _ = loss_and_grad(params, batch)
            flat[idx] = original - h
            down, _ = loss_and_grad(params, batch)
            flat[idx] = original
            num.ravel()[idx] = (up - down) / (2.0 * h)
        grads[name] = num
    return grads


def assert_gradients_match(params, batch, rtol=1e-4):
    _, analytic = loss_and_grad(params, batch)
    numeric = numeric_gradients(params, batch)
    for name in params.tensors:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        worst = np.max(np.abs(a - n) / denom)
        assert worst < rtol, f"{name}: relative error {worst:.3e}"


def random_batch(rng, spec, batch_size=4):
    if isinstance(spec.input_shape, int):
        inputs = rng.normal(size=(batch_size, spec.input_shape))
    else:
        inputs = rng.normal(size=(batch_size, *spec.input_shape))
    if spec.head == "multiclass":
        targets = rng.integers(0, spec.n_outputs, size=batch_size)
    else:
        targets = (rng.uniform(size=(batch_size, spec.n_outputs)) < 0.5).astype(np.float64)
    return MiniBatch(inputs, targets)


def _min_preactivation_magnitude(params, inputs):
    from spelaudio.learner import _forward_cached

    _, caches = _forward_cached(params, inputs)
    gaps = [np.abs(z).min() for _, z in caches["dense"]]
    gaps.extend(np.abs(z).min() for _, _, z, _ in caches["conv"])
    return min(gaps) if gaps else np.inf


def smooth_random_batch(rng, spec, params, batch_size=4, margin=1e-3, attempts=100):
    """A batch whose rectifier preactivations all clear the margin: central
    differences are only meaningful where the loss is locally smooth, so a
    perturbation must not cross a kink."""
    for _ in range(attempts):
        batch = random_batch(rng, spec, batch_size)
        if _min_preactivation_magnitude(params, batch.inputs) > margin:
            return batch
    raise RuntimeError("could not find a kink-free batch")


GRADCHECK_SPECS = [
    LearnerSpec(input_shape=10, n_outputs=3, hidden_layers=(8,)),
    LearnerSpec(input_shape=12, n_outputs=4, hidden_layers=(9, 5)),
    LearnerSpec(input_shape=10, n_outputs=5, hidden_layers=(7,), head="multilabel"),
    LearnerSpec(
        input_shape=(8, 8),
        n_outputs=3,
        hidden_layers=(6,),
        conv_stem=((3, 3, 2), (4, 2, 1)),
    ),
    LearnerSpec(
        input_shape=(7, 9),
        n_outputs=2,
        hidden_layers=(),
        conv_stem=((2, 3, 1),),
        head="multilabel",
    ),
]


class TestGradients:
    @pytest.mark.parametrize("idx", range(len(GRADCHECK_SPECS)))
    def test_matches_finite_differences(self, idx):
        spec = GRADCHECK_SPECS[idx]
        assert n_parameters(spec) <= 2000
        rng = np.random.default_rng(100 + idx)
        params = init_params(spec, seed=100 + idx)
        assert_gradients_match(params, smooth_random_batch(rng, spec, params))


class TestInit:
    def test_deterministic_given_seed(self):
        spec = LearnerSpec(input_shape=20, n_outputs=3, hidden_layers=(16,))
        a = init_params(spec, seed=42)
        b = init_params(spec, seed=42)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_weight_std_tracks_fan_in(self):
        spec = LearnerSpec(input_shape=200, n_outputs=2, hidden_layers=(64,))
        params = init_params(spec, seed=0)
        w = params.tensors["dense0_w"]  # fan_in 200, 12800 draws
        assert w.size >= 10_000
        expected = math.sqrt(2.0 / 200.0)
        assert abs(w.std() - expected) < 0.1 * expected

    def test_biases_exactly_zero(self):
        spec = LearnerSpec(
            input_shape=(6, 6), n_outputs=3, hidden_layers=(5,), conv_stem=((2, 3, 1),)
        )
        params = init_params(spec, seed=1)
        for name, arr in params.tensors.items():
            if name.endswith("_b"):
                assert np.all(arr == 0.0)

    def test_shape_validation(self):
        spec = LearnerSpec(input_shape=4, n_outputs=2, hidden_layers=(3,))
        good = init_params(spec, seed=0)
        bad = dict(good.tensors)
        bad["dense0_w"] = np.zeros((4, 7))
        with pytest.raises(ValueError):
            LearnerParams(spec=spec, tensors=bad)


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        spec = LearnerSpec(input_shape=5, n_outputs=4, hidden_layers=(3,))
        params = init_params(spec, seed=0)
        for arr in params.tensors.values():
            arr[...] = 0.0
        probs = forward(params, np.random.default_rng(0).normal(size=(6, 5)))
        assert np.allclose(probs, 0.25)

    def test_zero_weights_sigmoid_half(self):
        spec = LearnerSpec(input_shape=5, n_outputs=3, hidden_layers=(3,), head="multilabel")
        params = init_params(spec, seed=0)
        for arr in params.tensors.values():
            arr[...] = 0.0
        probs = forward(params, np.random.default_rng(0).normal(size=(6, 5)))
        assert np.all(probs == 0.5)

    def test_rows_sum_to_one(self):
        spec = LearnerSpec(input_shape=9, n_outputs=6, hidden_layers=(12,))
        params = init_params(spec, seed=3)
        probs = forward(params, np.random.default_rng(3).normal(size=(50, 9)))
        assert np.all(np.isfinite(probs))
        assert np.all(probs > 0) and np.all(probs < 1)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12

    def test_shape_mismatch_raises(self):
        spec = LearnerSpec(input_shape=9, n_outputs=3, hidden_layers=(4,))
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 8)))


class TestLoss:
    def test_confident_correct_prediction_near_zero_loss(self):
        spec = LearnerSpec(input_shape=2, n_outputs=2, hidden_layers=())
        params = init_params(spec, seed=0)
        params.tensors["out_w"][...] = 0.0
        params.tensors["out_b"][...] = [30.0, -30.0]
        loss, _ = loss_and_grad(params, MiniBatch(np.zeros((3, 2)), np.zeros(3, dtype=int)))
        assert loss < 1e-9

    def test_uniform_prediction_log_c(self):
        spec = LearnerSpec(input_shape=4, n_outputs=5, hidden_layers=(3,))
        params = init_params(spec, seed=0)
        for arr in params.tensors.values():
            arr[...] = 0.0
        loss, _ = loss_and_grad(
            params, MiniBatch(np.ones((8, 4)), np.arange(8, dtype=int) % 5)
        )
        assert loss == pytest.approx(math.log(5.0), abs=1e-12)

    def test_target_out_of_range_rejected(self):
        spec = LearnerSpec(input_shape=4, n_outputs=3, hidden_layers=())
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError):
            loss_and_grad(params, MiniBatch(np.ones((2, 4)), np.array([0, 3])))


class TestAdam:
    def _scalar_setup(self):
        spec = LearnerSpec(input_shape=2, n_outputs=2, hidden_layers=())
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=0.01)
        return spec, params, state

    def test_zero_gradient_is_noop(self):
        _, params, state = self._scalar_setup()
        zero = {name: np.zeros_like(a) for name, a in params.tensors.items()}
        new_params = copy.deepcopy(params)
        adam_step(state, new_params, zero)
        for name in params.tensors:
            assert np.array_equal(new_params.tensors[name], params.tensors[name])
        assert new_params.step == 1

    def test_first_step_closed_form(self):
        # After bias correction the first update is -lr * g / (|g| + eps).
        _, params, state = self._scalar_setup()
        g = 0.37
        grads = {name: np.full_like(a, g) for name, a in params.tensors.items()}
        new_params = copy.deepcopy(params)
        adam_step(state, new_params, grads)
        expected = -state.learning_rate * g / (abs(g) + EPS)
        for name in params.tensors:
            delta = new_params.tensors[name] - params.tensors[name]
            assert np.allclose(delta, expected, atol=1e-15)
            assert np.all(np.sign(delta) == -np.sign(g))

    def test_deterministic(self):
        _, params, state = self._scalar_setup()
        rng = np.random.default_rng(0)
        grads = {name: rng.normal(size=a.shape) for name, a in params.tensors.items()}
        p1, s1 = copy.deepcopy((params, state))
        adam_step(s1, p1, grads)
        p2, s2 = copy.deepcopy((params, state))
        adam_step(s2, p2, grads)
        for name in params.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name])
            assert np.array_equal(s1.m[name], s2.m[name])

    def test_repeated_steps_decrease_loss(self):
        spec = LearnerSpec(input_shape=6, n_outputs=3, hidden_layers=(8,))
        rng = np.random.default_rng(77)
        batch = MiniBatch(rng.normal(size=(16, 6)), rng.integers(0, 3, size=16))
        improved = 0
        for trial in range(20):
            params = init_params(spec, seed=trial)
            state = init_adam(params, learning_rate=0.01)
            initial, _ = loss_and_grad(params, batch)
            for _ in range(20):
                _, grads = loss_and_grad(params, batch)
                adam_step(state, params, grads)
            final, _ = loss_and_grad(params, batch)
            if final < initial:
                improved += 1
        assert improved >= 18


class TestTrain:
    def test_zero_epochs_noop(self):
        spec = LearnerSpec(input_shape=3, n_outputs=2, hidden_layers=(4,))
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=0.01)
        out, _ = train(
            params,
            np.ones((5, 3)),
            np.zeros(5, dtype=int),
            epochs=0,
            batch_size=2,
            state=state,
            seed=0,
        )
        for name in params.tensors:
            assert np.array_equal(out.tensors[name], params.tensors[name])

    def test_separable_toy_reaches_full_accuracy(self):
        rng = np.random.default_rng(123)
        n = 80
        x0 = rng.normal(loc=[-2.0, -2.0], scale=0.4, size=(n, 2))
        x1 = rng.normal(loc=[2.0, 2.0], scale=0.4, size=(n, 2))
        inputs = np.vstack([x0, x1])
        targets = np.array([0] * n + [1] * n)
        spec = LearnerSpec(input_shape=2, n_outputs=2, hidden_layers=(8,))
        params = init_params(spec, seed=5)
        state = init_adam(params, learning_rate=0.01)
        params, _ = train(
            params, inputs, targets, epochs=50, batch_size=16, state=state, seed=5
        )
        predicted = forward(params, inputs).argmax(axis=1)
        assert np.mean(predicted == targets) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(30, 4))
        targets = rng.integers(0, 3, size=30)
        spec = LearnerSpec(input_shape=4, n_outputs=3, hidden_layers=(6,))

        def run():
            params = init_params(spec, seed=11)
            state = init_adam(params, learning_rate=5e-3)
            return train(
                params, inputs, targets, epochs=3, batch_size=8, state=state, seed=21
            )[0]

        a, b = run(), run()
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_empty_dataset_rejected(self):
        spec = LearnerSpec(input_shape=4, n_outputs=2, hidden_layers=())
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        with pytest.raises(ValueError):
            train(
                params,
                np.zeros((0, 4)),
                np.zeros(0, dtype=int),
                epochs=1,
                batch_size=4,
                state=state,
                seed=0,
            )

    def test_optimizer_state_continues_across_calls(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(20, 3))
        targets = rng.integers(0, 2, size=20)
        spec = LearnerSpec(input_shape=3, n_outputs=2, hidden_layers=(4,))
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        p1, s1 = train(params, inputs, targets, epochs=2, batch_size=5, state=state, seed=9)
        assert p1.step == 2 * 4  # 4 batches per epoch
        p2, _ = train(p1, inputs, targets, epochs=1, batch_size=5, state=s1, seed=10)
        assert p2.step == 3 * 4


def reference_train(params, inputs, targets, *, epochs, batch_size, state, seed):
    """Textbook copy-on-step Adam: every step builds new arrays from the old."""
    spec, step, lr = params.spec, params.step, state.learning_rate
    tensors, m, v = dict(params.tensors), dict(state.m), dict(state.v)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(inputs))
        for start in range(0, len(inputs), batch_size):
            sel = order[start : start + batch_size]
            current = LearnerParams(spec=spec, tensors=tensors, step=step)
            _, grads = loss_and_grad(current, MiniBatch(inputs[sel], targets[sel]))
            step += 1
            bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for name, g in grads.items():
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
                m_hat, v_hat = m[name] / bc1, v[name] / bc2
                tensors[name] = tensors[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return LearnerParams(spec=spec, tensors=tensors, step=step), m, v


TRAIN_SPECS = [
    LearnerSpec(input_shape=6, n_outputs=3, hidden_layers=(8, 5)),
    LearnerSpec(input_shape=(8, 7), n_outputs=3, hidden_layers=(6,), conv_stem=((3, 3, 2),)),
]


def _train_data(spec, n=23, seed=4):
    rng = np.random.default_rng(seed)
    shape = spec.input_shape if isinstance(spec.input_shape, tuple) else (spec.input_shape,)
    return rng.normal(size=(n, *shape)), rng.integers(0, spec.n_outputs, size=n)


class TestTrainContract:
    @pytest.mark.parametrize("idx", range(len(TRAIN_SPECS)))
    def test_bitwise_equal_to_copy_on_step_reference(self, idx):
        spec = TRAIN_SPECS[idx]
        inputs, targets = _train_data(spec)
        params = init_params(spec, seed=idx)
        state = init_adam(params, learning_rate=3e-3)
        got, got_state = train(
            params, inputs, targets, epochs=3, batch_size=5, state=state, seed=7
        )
        want, want_m, want_v = reference_train(
            params, inputs, targets, epochs=3, batch_size=5, state=state, seed=7
        )
        assert got.step == want.step == 3 * 5
        for name in params.tensors:
            assert np.array_equal(got.tensors[name], want.tensors[name])
            assert np.array_equal(got_state.m[name], want_m[name])
            assert np.array_equal(got_state.v[name], want_v[name])

    def test_arguments_left_unchanged(self):
        spec = TRAIN_SPECS[1]
        inputs, targets = _train_data(spec)
        params = init_params(spec, seed=1)
        state = init_adam(params, learning_rate=3e-3)
        params, state = train(params, inputs, targets, epochs=1, batch_size=5, state=state, seed=1)
        before_params, before_state = copy.deepcopy((params, state))
        out, out_state = train(
            params, inputs, targets, epochs=2, batch_size=5, state=state, seed=2
        )
        assert out is not params and out_state is not state
        assert params.step == before_params.step
        assert state.learning_rate == before_state.learning_rate
        for name in params.tensors:
            assert np.array_equal(params.tensors[name], before_params.tensors[name])
            assert np.array_equal(state.m[name], before_state.m[name])
            assert np.array_equal(state.v[name], before_state.v[name])

    def test_nan_inputs_raise_naming_tensor_and_step(self):
        spec = TRAIN_SPECS[0]
        inputs, targets = _train_data(spec)
        inputs[3, 2] = np.nan
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        with pytest.raises(ValueError, match=r"dense0_w .*non-finite.* step 5\b"):
            train(params, inputs, targets, epochs=2, batch_size=5, state=state, seed=0)

    def test_params_validated_once_per_call_not_per_step(self, monkeypatch):
        spec = TRAIN_SPECS[0]
        inputs, targets = _train_data(spec)
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        checks = []
        validate = LearnerParams.__post_init__

        def counting_validate(self):
            checks.append(self.step)
            validate(self)

        monkeypatch.setattr(LearnerParams, "__post_init__", counting_validate)
        out, _ = train(params, inputs, targets, epochs=4, batch_size=2, state=state, seed=0)
        assert out.step == 4 * 12
        assert len(checks) == 1


def _rewrite_checkpoint(path, **replace):
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    payload.update(replace)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


class TestSerialization:
    def test_round_trip_params_and_state(self, tmp_path):
        spec = LearnerSpec(
            input_shape=(6, 5),
            n_outputs=3,
            hidden_layers=(7,),
            conv_stem=((2, 2, 1),),
            head="multilabel",
        )
        params = init_params(spec, seed=3)
        state = init_adam(params, learning_rate=2e-3)
        rng = np.random.default_rng(0)
        grads = {name: rng.normal(size=a.shape) for name, a in params.tensors.items()}
        adam_step(state, params, grads)

        path = tmp_path / "member.npz"
        save_params(path, params, state)
        loaded_params, loaded_state = load_params(path)

        assert loaded_params.spec == spec
        assert loaded_params.step == params.step
        for name in params.tensors:
            assert np.array_equal(loaded_params.tensors[name], params.tensors[name])
            assert np.array_equal(loaded_state.m[name], state.m[name])
            assert np.array_equal(loaded_state.v[name], state.v[name])
        assert loaded_state.learning_rate == state.learning_rate

    def test_params_only_round_trip(self, tmp_path):
        spec = LearnerSpec(input_shape=4, n_outputs=2, hidden_layers=())
        params = init_params(spec, seed=1)
        path = tmp_path / "weights.npz"
        save_params(path, params)
        loaded, state = load_params(path)
        assert state is None
        assert np.array_equal(loaded.tensors["out_w"], params.tensors["out_w"])

    def test_stored_adam_constants_must_match(self, tmp_path):
        spec = LearnerSpec(input_shape=4, n_outputs=2, hidden_layers=(3,))
        params = init_params(spec, seed=1)
        path = tmp_path / "member.npz"
        save_params(path, params, init_adam(params, learning_rate=1e-3))
        assert load_params(path)[1].learning_rate == 1e-3
        _rewrite_checkpoint(path, **{"adam/hyper": np.array([1e-3, 0.8, 0.999, 1e-8])})
        with pytest.raises(ValueError, match="member.npz.*beta1"):
            load_params(path)

    def test_stored_activation_must_be_relu(self, tmp_path):
        spec = LearnerSpec(input_shape=4, n_outputs=2, hidden_layers=(3,))
        path = tmp_path / "member.npz"
        save_params(path, init_params(spec, seed=1))
        with np.load(path, allow_pickle=False) as archive:
            raw = json.loads(str(archive["spec_json"]))
        assert raw["activation"] == "relu"
        raw["activation"] = "tanh"
        _rewrite_checkpoint(path, spec_json=np.array(json.dumps(raw)))
        with pytest.raises(ValueError, match="member.npz.*activation 'tanh'"):
            load_params(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.array(999))
        with pytest.raises(ValueError, match="version"):
            load_params(path)


class TestSpecValidation:
    def test_multiclass_needs_two_outputs(self):
        with pytest.raises(ValueError):
            LearnerSpec(input_shape=4, n_outputs=1)

    def test_multilabel_allows_one_output(self):
        spec = LearnerSpec(input_shape=4, n_outputs=1, head="multilabel")
        assert spec.n_outputs == 1

    def test_conv_needs_2d_input(self):
        with pytest.raises(ValueError):
            LearnerSpec(input_shape=16, n_outputs=2, conv_stem=((2, 3, 1),))

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError):
            LearnerSpec(input_shape=(4, 4), n_outputs=2, conv_stem=((2, 5, 1),))
