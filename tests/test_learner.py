import copy
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import spelaudio
import spelaudio.learner
from spelaudio.learner import (
    BETA1,
    BETA2,
    EPS,
    DivergenceError,
    LabeledSet,
    LearnerParams,
    LearnerSpec,
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
    _checked_targets,
    _views,
)

from conftest import float64_member


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
    _, flat = loss_and_grad(params, batch)
    analytic = _views(flat, params.tensors)
    numeric = numeric_gradients(params, batch)
    for name in params.tensors:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        worst = np.max(np.abs(a - n) / denom)
        assert worst < rtol, f"{name}: relative error {worst:.3e}"


def random_batch(rng, spec, batch_size=4):
    inputs = rng.normal(size=(batch_size, *spec.input_shape))
    if spec.head == "multiclass":
        targets = rng.integers(0, spec.n_outputs, size=batch_size)
    else:
        targets = (rng.uniform(size=(batch_size, spec.n_outputs)) < 0.5).astype(np.float64)
    return LabeledSet(inputs, targets)


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
    LearnerSpec(input_shape=(1, 10), n_outputs=3, hidden_layers=(8,)),
    LearnerSpec(input_shape=(1, 12), n_outputs=4, hidden_layers=(9, 5)),
    LearnerSpec(input_shape=(1, 10), n_outputs=5, hidden_layers=(7,), head="multilabel"),
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
    # Stride equal to kernel, the geometry of the conv workloads: windows
    # tile the input without overlap and the last row and column are cropped.
    LearnerSpec(input_shape=(10, 11), n_outputs=3, hidden_layers=(5,), conv_stem=((2, 3, 3),)),
    # A second layer with stride equal to kernel, so its input gradient is checked.
    LearnerSpec(
        input_shape=(11, 11),
        n_outputs=3,
        hidden_layers=(6,),
        conv_stem=((3, 3, 1), (2, 2, 2)),
    ),
]


class TestGradients:
    @pytest.mark.parametrize("idx", range(len(GRADCHECK_SPECS)))
    def test_matches_finite_differences(self, idx):
        spec = GRADCHECK_SPECS[idx]
        assert n_parameters(spec) <= 2000
        rng = np.random.default_rng(100 + idx)
        params = float64_member(init_params(spec, seed=100 + idx))
        assert_gradients_match(params, smooth_random_batch(rng, spec, params))

    @pytest.mark.parametrize("idx", range(len(GRADCHECK_SPECS)))
    def test_float32_gradient_near_the_float64_one(self, idx):
        """At the same weights and inputs, each tensor of a float32 member's
        gradient is within 1e-5 of the float64 member's, relative to that
        tensor's norm: float32 rounding (eps 1.2e-7) summed over a layer."""
        spec = GRADCHECK_SPECS[idx]
        rng = np.random.default_rng(200 + idx)
        narrow = init_params(spec, seed=200 + idx)
        batch = random_batch(rng, spec, batch_size=16)
        inputs = batch.inputs.astype(np.float32)
        _, g32 = loss_and_grad(
            narrow, LabeledSet(inputs, _checked_targets(spec, batch.targets, np.float32))
        )
        _, g64 = loss_and_grad(
            float64_member(narrow), LabeledSet(inputs.astype(np.float64), batch.targets)
        )
        assert (g32.dtype, g64.dtype) == (np.float32, np.float64)
        got = _views(g32, narrow.tensors)
        for name, want in _views(g64, narrow.tensors).items():
            assert np.linalg.norm(got[name] - want) <= 1e-5 * np.linalg.norm(want), name


class TestInit:
    def test_deterministic_given_seed(self):
        spec = LearnerSpec(input_shape=(1, 20), n_outputs=3, hidden_layers=(16,))
        a = init_params(spec, seed=42)
        b = init_params(spec, seed=42)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_weight_std_tracks_fan_in(self):
        spec = LearnerSpec(input_shape=(1, 200), n_outputs=2, hidden_layers=(64,))
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
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        good = init_params(spec, seed=0)
        bad = dict(good.tensors)
        bad["dense0_w"] = np.zeros((4, 7))
        with pytest.raises(ValueError):
            LearnerParams(spec=spec, tensors=bad)


class TestForward:
    def test_zero_weights_uniform_softmax(self):
        spec = LearnerSpec(input_shape=(1, 5), n_outputs=4, hidden_layers=(3,))
        params = init_params(spec, seed=0)
        for arr in params.tensors.values():
            arr[...] = 0.0
        probs = forward(params, np.random.default_rng(0).normal(size=(6, 1, 5)))
        assert np.allclose(probs, 0.25)

    def test_zero_weights_sigmoid_half(self):
        spec = LearnerSpec(input_shape=(1, 5), n_outputs=3, hidden_layers=(3,), head="multilabel")
        params = init_params(spec, seed=0)
        for arr in params.tensors.values():
            arr[...] = 0.0
        probs = forward(params, np.random.default_rng(0).normal(size=(6, 1, 5)))
        assert np.all(probs == 0.5)

    def test_rows_sum_to_one(self):
        spec = LearnerSpec(input_shape=(1, 9), n_outputs=6, hidden_layers=(12,))
        params = float64_member(init_params(spec, seed=3))
        probs = forward(params, np.random.default_rng(3).normal(size=(50, 1, 9)))
        assert np.all(np.isfinite(probs))
        assert np.all(probs > 0) and np.all(probs < 1)
        assert np.max(np.abs(probs.sum(axis=1) - 1.0)) <= 1e-12

    def test_shape_mismatch_raises(self):
        spec = LearnerSpec(input_shape=(1, 9), n_outputs=3, hidden_layers=(4,))
        params = init_params(spec, seed=0)
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 1, 8)))

    def test_complex_inputs_rejected(self):
        """Casting would drop the imaginary part with only a warning."""
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=(4,))
        params = init_params(spec, seed=0)
        inputs = np.ones((2, 1, 4)) + 1j
        with pytest.raises(ValueError, match="inputs must be real, got complex128"):
            forward(params, inputs)
        with pytest.raises(ValueError, match="inputs must be real, got complex128"):
            train(params, inputs, np.array([0, 1]), epochs=1, batch_size=2,
                  state=init_adam(params, learning_rate=1e-3), seed=0)


class TestLoss:
    def test_confident_correct_prediction_near_zero_loss(self):
        spec = LearnerSpec(input_shape=(1, 2), n_outputs=2, hidden_layers=())
        params = init_params(spec, seed=0)
        params.tensors["out_w"][...] = 0.0
        params.tensors["out_b"][...] = [30.0, -30.0]
        loss, _ = loss_and_grad(params, LabeledSet(np.zeros((3, 1, 2)), np.zeros(3, dtype=int)))
        assert loss < 1e-9

    def test_uniform_prediction_log_c(self):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=5, hidden_layers=(3,))
        params = float64_member(init_params(spec, seed=0))
        for arr in params.tensors.values():
            arr[...] = 0.0
        loss, _ = loss_and_grad(
            params, LabeledSet(np.ones((8, 1, 4)), np.arange(8, dtype=int) % 5)
        )
        assert loss == pytest.approx(math.log(5.0), abs=1e-12)

    def test_target_out_of_range_rejected(self):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=())
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        with pytest.raises(ValueError, match=r"outside \[0, n_outputs\)"):
            train(
                params, np.ones((2, 1, 4)), np.array([0, 3]),
                epochs=1, batch_size=2, state=state, seed=0,
            )

    # A (batch, 1) column would broadcast against the batch in the fancy
    # index, and a fractional value would be truncated to a class.
    BAD_MULTICLASS_TARGETS = [
        pytest.param([[0], [1], [2], [1]], r"shape \(4,\), got \(4, 1\)", id="column"),
        pytest.param([0.0, 1.7, 2.0, 1.0], r"whole class indices, got 1\.7$", id="fractional"),
        pytest.param([0.0, np.nan, 2.0, 1.0], r"whole class indices, got nan$", id="nan"),
    ]

    @pytest.mark.parametrize("targets, message", BAD_MULTICLASS_TARGETS)
    def test_malformed_multiclass_targets_rejected(self, targets, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=())
        with pytest.raises(ValueError, match=message):
            _checked_targets(spec, np.array(targets), np.float32)

    @pytest.mark.parametrize("targets, message", BAD_MULTICLASS_TARGETS)
    def test_malformed_multiclass_targets_rejected_by_train(self, targets, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=())
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        with pytest.raises(ValueError, match=message):
            train(
                params, np.ones((4, 1, 4)), np.array(targets),
                epochs=1, batch_size=4, state=state, seed=0,
            )

    # A target outside {0, 1} would still yield a finite loss and train.
    BAD_MULTILABEL_TARGETS = [
        pytest.param([[0, 3, 0], [1, 0, -2]], r"0 or 1, got 3$", id="three"),
        pytest.param([[0, 1, 0], [1, 0.6, 0]], r"0 or 1, got 0\.6$", id="fraction"),
        pytest.param([[0, 1, 0], [1, 0, np.nan]], r"0 or 1, got nan$", id="nan"),
    ]

    @pytest.mark.parametrize("targets, message", BAD_MULTILABEL_TARGETS)
    def test_multilabel_targets_outside_0_1_rejected(self, targets, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=(), head="multilabel")
        with pytest.raises(ValueError, match=message):
            _checked_targets(spec, np.array(targets), np.float32)

    @pytest.mark.parametrize("targets, message", BAD_MULTILABEL_TARGETS)
    def test_multilabel_targets_outside_0_1_rejected_by_train(self, targets, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=(), head="multilabel")
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        with pytest.raises(ValueError, match=message):
            train(
                params, np.ones((2, 1, 4)), np.array(targets),
                epochs=1, batch_size=2, state=state, seed=0,
            )

    def test_whole_float_targets_equal_integer_targets(self):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=(5,))
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        inputs = np.random.default_rng(0).normal(size=(4, 1, 4))
        labels = np.array([0, 1, 2, 1])
        kwargs = dict(epochs=2, batch_size=3, state=state, seed=0)
        got, got_state = train(params, inputs, labels.astype(float), **kwargs)
        want, want_state = train(params, inputs, labels, **kwargs)
        assert np.array_equal(got.buffer, want.buffer)
        assert np.array_equal(got_state.buffer, want_state.buffer)


class TestAdam:
    def _scalar_setup(self):
        spec = LearnerSpec(input_shape=(1, 2), n_outputs=2, hidden_layers=())
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=0.01)
        return spec, params, state

    @pytest.mark.parametrize("rate", [0.0, -1e-3, math.nan, math.inf])
    def test_a_rate_not_positive_and_finite_is_refused(self, rate):
        _, params, _ = self._scalar_setup()
        with pytest.raises(ValueError, match=f"^learning_rate must be .* finite, got {rate}$"):
            init_adam(params, learning_rate=rate)

    def test_zero_gradient_is_noop(self):
        _, params, state = self._scalar_setup()
        new_params = copy.deepcopy(params)
        adam_step(state, new_params, np.zeros_like(params.buffer))
        for name in params.tensors:
            assert np.array_equal(new_params.tensors[name], params.tensors[name])
        assert new_params.step == 1

    def test_first_step_closed_form(self):
        # After bias correction the first update is -lr * g / (|g| + eps).
        _, params, state = self._scalar_setup()
        g = 0.37
        new_params = copy.deepcopy(params)
        adam_step(state, new_params, np.full_like(params.buffer, g))
        expected = -state.learning_rate * g / (abs(g) + EPS)
        for name in params.tensors:
            delta = new_params.tensors[name] - params.tensors[name]
            assert np.allclose(delta, expected, atol=1e-15)
            assert np.all(np.sign(delta) == -np.sign(g))

    def test_deterministic(self):
        _, params, state = self._scalar_setup()
        rng = np.random.default_rng(0)
        g = rng.normal(size=params.buffer.shape)
        p1, s1 = copy.deepcopy((params, state))
        adam_step(s1, p1, g)
        p2, s2 = copy.deepcopy((params, state))
        adam_step(s2, p2, g)
        for name in params.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name])
            assert np.array_equal(s1.m[name], s2.m[name])

    def test_repeated_steps_decrease_loss(self):
        spec = LearnerSpec(input_shape=(1, 6), n_outputs=3, hidden_layers=(8,))
        rng = np.random.default_rng(77)
        batch = LabeledSet(rng.normal(size=(16, 1, 6)), rng.integers(0, 3, size=16))
        improved = 0
        for trial in range(20):
            params = init_params(spec, seed=trial)
            state = init_adam(params, learning_rate=0.01)
            initial, _ = loss_and_grad(params, batch)
            for _ in range(20):
                _, g = loss_and_grad(params, batch)
                adam_step(state, params, g)
            final, _ = loss_and_grad(params, batch)
            if final < initial:
                improved += 1
        assert improved >= 18


class TestTrain:
    def test_zero_epochs_noop(self):
        spec = LearnerSpec(input_shape=(1, 3), n_outputs=2, hidden_layers=(4,))
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=0.01)
        out, _ = train(
            params,
            np.ones((5, 1, 3)),
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
        inputs = np.vstack([x0, x1])[:, None, :]
        targets = np.array([0] * n + [1] * n)
        spec = LearnerSpec(input_shape=(1, 2), n_outputs=2, hidden_layers=(8,))
        params = init_params(spec, seed=5)
        state = init_adam(params, learning_rate=0.01)
        params, _ = train(
            params, inputs, targets, epochs=50, batch_size=16, state=state, seed=5
        )
        predicted = forward(params, inputs).argmax(axis=1)
        assert np.mean(predicted == targets) == 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(30, 1, 4))
        targets = rng.integers(0, 3, size=30)
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=(6,))

        def run():
            params = init_params(spec, seed=11)
            state = init_adam(params, learning_rate=5e-3)
            return train(
                params, inputs, targets, epochs=3, batch_size=8, state=state, seed=21
            )[0]

        a, b = run(), run()
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_rows_train_as_the_gathered_inputs(self):
        rng = np.random.default_rng(8)
        inputs = rng.normal(size=(30, 1, 4))
        rows = rng.permutation(30)[:17]
        targets = rng.integers(0, 3, size=17)
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=(6,))
        params = init_params(spec, seed=11)
        state = init_adam(params, learning_rate=5e-3)
        kwargs = dict(epochs=2, batch_size=8, state=state, seed=21)
        got, _ = train(params, inputs, targets, rows=rows, **kwargs)
        want, _ = train(params, inputs[rows], targets, **kwargs)
        assert np.array_equal(got.buffer, want.buffer)
        with pytest.raises(ValueError, match="17 training rows but 16 targets"):
            train(params, inputs, targets[:16], rows=rows, **kwargs)

    # A negative row would wrap to the end of inputs; a row past the end or
    # a float row would stop training mid-epoch with a bare IndexError.
    @pytest.mark.parametrize(
        "rows, message",
        [
            pytest.param([3, -1, 0], r"got -1$", id="negative"),
            pytest.param([3, 4, 0], r"got 4$", id="past-the-end"),
            pytest.param([3.0, 1.0, 0.0], r"got 3\.0$", id="float"),
        ],
    )
    def test_bad_rows_rejected_naming_the_first(self, rows, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=3, hidden_layers=())
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        with pytest.raises(ValueError, match=r"rows must be 1-D integers in \[0, 4\), " + message):
            train(
                params, np.ones((4, 1, 4)), np.array([0, 1, 2]),
                epochs=1, batch_size=2, state=state, seed=0, rows=np.array(rows),
            )

    def test_empty_dataset_rejected(self):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=())
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        with pytest.raises(ValueError):
            train(
                params,
                np.zeros((0, 1, 4)),
                np.zeros(0, dtype=int),
                epochs=1,
                batch_size=4,
                state=state,
                seed=0,
            )

    def test_optimizer_state_continues_across_calls(self):
        rng = np.random.default_rng(2)
        inputs = rng.normal(size=(20, 1, 3))
        targets = rng.integers(0, 2, size=20)
        spec = LearnerSpec(input_shape=(1, 3), n_outputs=2, hidden_layers=(4,))
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
            _, flat = loss_and_grad(current, LabeledSet(inputs[sel], targets[sel]))
            step += 1
            bc1, bc2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            for name, g in _views(flat, current.tensors).items():
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * (g * g)
                m_hat, v_hat = m[name] / bc1, v[name] / bc2
                tensors[name] = tensors[name] - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return LearnerParams(spec=spec, tensors=tensors, step=step), m, v


TRAIN_SPECS = [
    LearnerSpec(input_shape=(1, 6), n_outputs=3, hidden_layers=(8, 5)),
    LearnerSpec(input_shape=(8, 7), n_outputs=3, hidden_layers=(6,), conv_stem=((3, 3, 2),)),
    # No hidden layer: the images enter the head directly.
    LearnerSpec(input_shape=(1, 6), n_outputs=3, hidden_layers=()),
    LearnerSpec(input_shape=(2, 3), n_outputs=4, hidden_layers=(5,), head="multilabel"),
]


def _train_data(spec, n=23, seed=4):
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, *spec.input_shape))
    if spec.head == "multilabel":
        return inputs, (rng.uniform(size=(n, spec.n_outputs)) < 0.5).astype(np.float64)
    return inputs, rng.integers(0, spec.n_outputs, size=n)


class TestTrainContract:
    def _assert_equals_reference(self, params):
        """The reference's unchecked steps get inputs and multi-label targets
        in the member's dtype, as train's checks hand them on."""
        spec, dtype = params.spec, params.buffer.dtype
        inputs, targets = _train_data(spec)
        state = init_adam(params, learning_rate=3e-3)
        got, got_state = train(
            params, inputs, targets, epochs=3, batch_size=5, state=state, seed=7
        )
        if spec.head == "multilabel":
            targets = targets.astype(dtype)
        want, want_m, want_v = reference_train(
            params, inputs.astype(dtype), targets, epochs=3, batch_size=5, state=state, seed=7
        )
        assert got.step == want.step == 3 * 5
        for name in params.tensors:
            assert np.array_equal(got.tensors[name], want.tensors[name])
            assert np.array_equal(got_state.m[name], want_m[name])
            assert np.array_equal(got_state.v[name], want_v[name])

    @pytest.mark.parametrize("idx", range(len(TRAIN_SPECS)))
    def test_bitwise_equal_to_copy_on_step_reference(self, idx):
        self._assert_equals_reference(float64_member(init_params(TRAIN_SPECS[idx], seed=idx)))

    @pytest.mark.parametrize("idx", range(len(TRAIN_SPECS)))
    def test_float32_member_bitwise_equal_to_copy_on_step_reference(self, idx):
        self._assert_equals_reference(init_params(TRAIN_SPECS[idx], seed=idx))

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
        inputs[3, 0, 2] = np.nan
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

    @pytest.mark.parametrize("idx", range(len(TRAIN_SPECS)))
    def test_inputs_and_targets_checked_once_per_call_not_per_step(self, idx, monkeypatch):
        spec = TRAIN_SPECS[idx]
        inputs, targets = _train_data(spec)
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        checks = []
        for name in ("_check_input_shape", "_checked_targets"):
            check = getattr(spelaudio.learner, name)

            def counting_check(*args, _name=name, _check=check):
                checks.append(_name)
                return _check(*args)

            monkeypatch.setattr(spelaudio.learner, name, counting_check)
        out, _ = train(params, inputs, targets, epochs=4, batch_size=2, state=state, seed=0)
        assert out.step == 4 * 12
        assert sorted(checks) == ["_check_input_shape", "_checked_targets"]

    def test_one_gradient_and_one_adam_step_per_batch(self, monkeypatch):
        """train reaches loss_and_grad and adam_step through the module, once a
        batch, and each batch holds that batch's inputs in shuffle order."""
        spec = TRAIN_SPECS[0]
        inputs, targets = _train_data(spec)
        rows = np.arange(len(inputs))[::-1][:20]
        params = init_params(spec, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        batches, steps = [], []
        loss_and_grad_, adam_step_ = spelaudio.learner.loss_and_grad, spelaudio.learner.adam_step

        def recording_loss_and_grad(params, batch):
            batches.append(batch.inputs.copy())
            return loss_and_grad_(params, batch)

        def recording_adam_step(state, params, g):
            steps.append(params.step)
            adam_step_(state, params, g)

        monkeypatch.setattr(spelaudio.learner, "loss_and_grad", recording_loss_and_grad)
        monkeypatch.setattr(spelaudio.learner, "adam_step", recording_adam_step)
        epochs, batch_size = 3, 6
        train(params, inputs, targets[rows], epochs=epochs, batch_size=batch_size,
              state=state, seed=5, rows=rows)
        assert len(batches) == len(steps) == epochs * math.ceil(20 / batch_size)
        assert steps == list(range(len(steps)))
        rng = np.random.default_rng(5)
        narrow = inputs.astype(np.float32)  # the member's dtype
        want = np.concatenate([narrow[rows[rng.permutation(20)]] for _ in range(epochs)])
        assert [len(b) for b in batches] == [6, 6, 6, 2] * epochs
        assert np.array_equal(np.concatenate(batches), want)

    def test_package_exports_no_step_functions(self):
        assert not hasattr(spelaudio, "loss_and_grad")
        assert not hasattr(spelaudio, "adam_step")
        assert "loss_and_grad" not in spelaudio.learner.__all__
        assert "adam_step" not in spelaudio.learner.__all__


def _member(spec, dtype, seed=0):
    """A member of spec in dtype, "float32" as runs build it or "float64"."""
    params = init_params(spec, seed=seed)
    return params if dtype == "float32" else float64_member(params)


# A dense member, and a conv member whose 2x2 windows at stride 4 cover a
# quarter of each 16x16 image, so a float64 member's im2col columns are a
# quarter the size of its inputs widened.
STORE_SPECS = {
    "dense": LearnerSpec(input_shape=(16, 16), n_outputs=3, hidden_layers=(8,)),
    "conv": LearnerSpec(
        input_shape=(16, 16), n_outputs=3, hidden_layers=(8,), conv_stem=((2, 2, 4),)
    ),
}


def _float32_store(n=400, seed=5):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, 16, 16)).astype(np.float32)


def traced_peak(fn):
    """fn's result, and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFloat32Store:
    """A float32 store is read as it is: a float32 member computes on it and
    a float64 member's first layer widens only the rows it copies anyway,
    so the results are those of the store widened to float64, and training
    never holds a float64 copy of the store. Each check runs both members."""

    @pytest.mark.parametrize("kind", sorted(STORE_SPECS))
    def test_trains_and_predicts_as_the_store_widened(self, kind):
        store = _float32_store(n=60)
        wide = store.astype(np.float64)
        rng = np.random.default_rng(1)
        rows = rng.permutation(60)[:37]
        targets = rng.integers(0, 3, size=37)
        for dtype in ("float32", "float64"):
            params = _member(STORE_SPECS[kind], dtype, seed=2)
            kwargs = dict(epochs=2, batch_size=8, state=init_adam(params, 3e-3), seed=3, rows=rows)
            got, got_state = train(params, store, targets, **kwargs)
            want, want_state = train(params, wide, targets, **kwargs)
            assert np.array_equal(got.buffer, want.buffer)
            assert np.array_equal(got_state.buffer, want_state.buffer)
            assert np.array_equal(forward(got, store[20:]), forward(got, wide[20:]))

    @pytest.mark.parametrize("kind", sorted(STORE_SPECS))
    def test_train_on_a_few_rows_allocates_no_float64_store(self, kind):
        store = _float32_store()
        rows, targets = np.arange(0, 400, 50), np.arange(8) % 3
        for dtype in ("float32", "float64"):
            params = _member(STORE_SPECS[kind], dtype)
            state = init_adam(params, learning_rate=1e-3)

            def run():
                return train(
                    params, store, targets, epochs=1, batch_size=4, state=state, seed=0, rows=rows
                )

            run()  # warm up numpy's own caches
            _, peak = traced_peak(run)
            assert peak < store.size * 8

    def test_conv_forward_allocates_no_float64_store(self):
        """A float64 dense member's first layer widens its flattened inputs
        whole; a float64 conv member widens only its im2col columns."""
        store = _float32_store()
        for dtype in ("float32", "float64"):
            params = _member(STORE_SPECS["conv"], dtype)
            forward(params, store)  # warm up numpy's own caches
            _, peak = traced_peak(lambda: forward(params, store))
            assert peak < store.size * 8


def assert_tiled(buffer, views):
    """The views lay end to end over the flat buffer, in order: values
    written through the buffer read back, in order, through the views."""
    buffer[...] = np.arange(buffer.size)
    assert sum(arr.size for arr in views.values()) == buffer.size
    assert np.array_equal(
        np.concatenate([arr.ravel() for arr in views.values()]), np.arange(buffer.size)
    )


def assert_packed(params, state):
    assert params.buffer.dtype == state.buffer.dtype == np.float32
    assert state.buffer.shape == (2, params.buffer.size)
    assert_tiled(params.buffer, params.tensors)
    assert_tiled(state.buffer[0], state.m)
    assert_tiled(state.buffer[1], state.v)


class TestStorage:
    SPEC = LearnerSpec(input_shape=(6, 5), n_outputs=3, hidden_layers=(4,), conv_stem=((2, 2, 1),))

    def _trained(self):
        inputs, targets = _train_data(self.SPEC)
        params = init_params(self.SPEC, seed=0)
        state = init_adam(params, learning_rate=1e-3)
        return train(params, inputs, targets, epochs=1, batch_size=5, state=state, seed=0)

    def test_init_and_train_keep_one_buffer(self):
        params = init_params(self.SPEC, seed=0)
        assert_packed(params, init_adam(params, learning_rate=1e-3))
        assert_packed(*self._trained())

    def test_load_keeps_one_buffer(self, tmp_path):
        path = tmp_path / "member.npz"
        save_params(path, *self._trained())
        assert_packed(*load_params(path))

    def test_caller_arrays_are_copied_into_float64(self):
        params = init_params(self.SPEC, seed=0)
        wide = {name: arr.astype(np.float64) for name, arr in params.tensors.items()}
        packed = LearnerParams(spec=self.SPEC, tensors=wide)
        assert packed.buffer.dtype == np.float64
        assert not any(np.shares_memory(packed.buffer, arr) for arr in wide.values())

    def test_mappings_are_read_only(self):
        params, state = self._trained()
        for mapping in (params.tensors, state.m, state.v):
            with pytest.raises(TypeError):
                mapping["out_b"] = np.zeros(3)

    def test_deepcopy_has_its_own_buffer_tied_to_its_views(self):
        params, state = self._trained()
        before_params, before_state = copy.deepcopy((params, state))
        twin, twin_state = copy.deepcopy((params, state))
        assert not np.shares_memory(twin.buffer, params.buffer)
        assert not np.shares_memory(twin_state.buffer, state.buffer)
        adam_step(twin_state, twin, np.ones_like(params.buffer))
        for name in params.tensors:
            assert not np.array_equal(twin.tensors[name], before_params.tensors[name])
            assert not np.array_equal(twin_state.m[name], before_state.m[name])
            assert np.array_equal(params.tensors[name], before_params.tensors[name])
            assert np.array_equal(state.m[name], before_state.m[name])
            assert np.array_equal(state.v[name], before_state.v[name])
        assert_packed(twin, twin_state)

    def test_pickle_round_trip_keeps_buffers_tied_to_their_views(self):
        params, state = self._trained()
        twin, twin_state = pickle.loads(pickle.dumps((params, state), pickle.HIGHEST_PROTOCOL))
        assert (twin.spec, twin.step) == (params.spec, params.step)
        assert twin.buffer.tobytes() == params.buffer.tobytes()
        assert twin_state.buffer.tobytes() == state.buffer.tobytes()
        assert twin_state.learning_rate == state.learning_rate
        assert_packed(twin, twin_state)

    def test_divergence_error_pickles_with_its_fields(self):
        err = pickle.loads(pickle.dumps(DivergenceError("out_b", 12, 3, 2)))
        assert (err.tensor, err.step, err.member, err.round_index) == ("out_b", 12, 3, 2)
        assert str(err) == "member 3, round 2: out_b became non-finite by step 12"

    def test_deepcopy_of_a_diverged_member(self):
        params, _ = self._trained()
        params.tensors["out_b"][1] = np.nan
        twin = copy.deepcopy(params)
        assert np.isnan(twin.tensors["out_b"][1])
        assert_tiled(twin.buffer, twin.tensors)

    def test_adam_step_allocates_no_buffer_sized_array(self):
        params, state = self._trained()
        g = np.random.default_rng(0).normal(size=params.buffer.shape).astype(np.float32)
        before = g.copy()
        adam_step(state, params, g)  # warm up numpy's own caches
        tracemalloc.start()
        try:
            adam_step(state, params, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.buffer.nbytes
        assert np.array_equal(g, before)

    def test_a_trained_state_holds_only_its_moments(self):
        """Its scratch rows are for training; adam_step makes them again."""
        params, state = self._trained()
        assert state.scratch is None
        twin_params, twin_state = copy.deepcopy((params, state))
        g = np.random.default_rng(1).normal(size=params.buffer.shape)
        adam_step(state, params, g)
        assert state.scratch.shape == state.buffer.shape
        twin_state.scratch = np.full_like(twin_state.buffer, np.nan)  # carries nothing
        adam_step(twin_state, twin_params, g)
        assert np.array_equal(params.buffer, twin_params.buffer)
        assert np.array_equal(state.buffer, twin_state.buffer)

    def test_state_of_other_parameters_rejected(self):
        params = init_params(self.SPEC, seed=0)
        other = init_params(TRAIN_SPECS[0], seed=0)
        inputs, targets = _train_data(self.SPEC)
        state = init_adam(other, learning_rate=1e-3)
        with pytest.raises(ValueError, match="optimizer state differs"):
            train(params, inputs, targets, epochs=1, batch_size=5, state=state, seed=0)

    def test_moments_of_differing_layout_rejected(self):
        state = init_adam(init_params(self.SPEC, seed=0), learning_rate=1e-3)
        v = {name: np.zeros(3) if name == "out_w" else arr for name, arr in state.v.items()}
        with pytest.raises(ValueError, match="m and v differ"):
            OptimizerState(m=state.m, v=v, learning_rate=1e-3)


class TestMemberDtype:
    """A member computes, steps and saves in its buffer's dtype."""

    @pytest.mark.parametrize("idx", [1, 3])  # a conv member and a multilabel one
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dtype_follows_the_member(self, tmp_path, idx, dtype):
        spec = TRAIN_SPECS[idx]
        inputs, targets = _train_data(spec)
        params = _member(spec, dtype)
        assert params.buffer.dtype == dtype
        for x in (inputs, inputs.astype(np.float32)):
            assert forward(params, x).dtype == dtype
        batch = LabeledSet(inputs[:5].astype(dtype), _checked_targets(spec, targets[:5], dtype))
        _, g = loss_and_grad(params, batch)
        assert g.dtype == dtype
        state = init_adam(params, learning_rate=1e-3)
        adam_step(state, copy.deepcopy(params), g)
        assert state.buffer.dtype == state.scratch.dtype == dtype
        trained, trained_state = train(
            params, inputs, targets, epochs=1, batch_size=5, state=state, seed=0
        )
        assert trained.buffer.dtype == trained_state.buffer.dtype == dtype
        path = tmp_path / "member.npz"
        save_params(path, trained, trained_state)
        loaded, loaded_state = load_params(path)
        assert loaded.buffer.dtype == loaded_state.buffer.dtype == dtype
        assert loaded.buffer.tobytes() == trained.buffer.tobytes()
        assert loaded_state.buffer.tobytes() == trained_state.buffer.tobytes()

    @pytest.mark.parametrize("dtype, other", [("float32", "float64"), ("float64", "float32")])
    def test_train_refuses_a_state_of_the_other_dtype(self, dtype, other):
        spec = TRAIN_SPECS[0]
        inputs, targets = _train_data(spec)
        state = init_adam(_member(spec, other), learning_rate=1e-3)
        with pytest.raises(
            ValueError, match=f"optimizer state is {other} but the parameters are {dtype}"
        ):
            train(_member(spec, dtype), inputs, targets, epochs=1, batch_size=5, state=state,
                  seed=0)

    @pytest.mark.parametrize(
        "dtype_of, got",
        [
            pytest.param(lambda name: "float64" if name == "out_b" else "float32",
                         "float32, float64", id="mixed"),
            pytest.param(lambda name: "float16", "float16", id="float16"),
            pytest.param(lambda name: "int64" if name == "out_w" else "float32",
                         "float32, int64", id="integer"),
        ],
    )
    def test_tensors_must_share_float32_or_float64(self, dtype_of, got):
        params = init_params(TRAIN_SPECS[0], seed=0)
        tensors = {name: arr.astype(dtype_of(name)) for name, arr in params.tensors.items()}
        message = f"tensors must all be float32 or all float64, got {got}$"
        with pytest.raises(ValueError, match=message):
            LearnerParams(spec=params.spec, tensors=tensors)
        with pytest.raises(ValueError, match=message):
            OptimizerState(m=tensors, v=tensors, learning_rate=1e-3)


def _rewrite_checkpoint(path, drop=(), **replace):
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files if key not in drop}
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
        adam_step(state, params, np.random.default_rng(0).normal(size=params.buffer.shape))

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
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=())
        params = init_params(spec, seed=1)
        path = tmp_path / "weights.npz"
        save_params(path, params)
        loaded, state = load_params(path)
        assert state is None
        assert np.array_equal(loaded.tensors["out_w"], params.tensors["out_w"])

    def test_stored_adam_constants_must_match(self, tmp_path):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        params = init_params(spec, seed=1)
        path = tmp_path / "member.npz"
        save_params(path, params, init_adam(params, learning_rate=1e-3))
        assert load_params(path)[1].learning_rate == 1e-3
        _rewrite_checkpoint(path, **{"adam/hyper": np.array([1e-3, 0.8, 0.999, 1e-8])})
        with pytest.raises(ValueError, match="member.npz.*beta1"):
            load_params(path)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
    def test_stored_learning_rate_must_be_positive_and_finite(self, tmp_path, rate):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        params = init_params(spec, seed=1)
        path = tmp_path / "member.npz"
        save_params(path, params, init_adam(params, learning_rate=1e-3))
        _rewrite_checkpoint(path, **{"adam/hyper": np.array([rate, BETA1, BETA2, EPS])})
        with pytest.raises(ValueError, match=f"member.npz: learning_rate must be .*, got {rate}$"):
            load_params(path)

    def test_stored_activation_must_be_relu(self, tmp_path):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        path = tmp_path / "member.npz"
        save_params(path, init_params(spec, seed=1))
        with np.load(path, allow_pickle=False) as archive:
            raw = json.loads(str(archive["spec_json"]))
        assert raw["activation"] == "relu"
        raw["activation"] = "tanh"
        _rewrite_checkpoint(path, spec_json=np.array(json.dumps(raw)))
        with pytest.raises(ValueError, match="member.npz.*activation 'tanh'"):
            load_params(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("adam/m/out_w", np.zeros((1, 2)), r"adam/m/out_w has shape \(1, 2\), expected"),
            ("adam/v/dense0_b", np.array([0, np.nan, 0]), "adam/v/dense0_b contains non-finite"),
            ("adam/m/extra", np.zeros(2), r"adam/m/\* names .* differ from the parameters"),
        ],
    )
    def test_adam_moments_checked_at_load(self, tmp_path, key, value, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        params = init_params(spec, seed=1)
        path = tmp_path / "member.npz"
        save_params(path, params, init_adam(params, learning_rate=1e-3))
        _rewrite_checkpoint(path, **{key: value})
        with pytest.raises(ValueError, match=rf"member\.npz: {message}"):
            load_params(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("param/out_w", np.array([[0.0, np.nan]] * 3), "param/out_w contains non-finite"),
            ("param/dense0_b", np.zeros(4), r"param/dense0_b has shape \(4,\), expected \(3,\)"),
            ("param/extra", np.zeros(2), r"param/\* names .* differ from the parameters"),
        ],
    )
    def test_param_tensors_checked_at_load(self, tmp_path, key, value, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        path = tmp_path / "member.npz"
        save_params(path, init_params(spec, seed=1))
        _rewrite_checkpoint(path, **{key: value})
        with pytest.raises(ValueError, match=rf"member\.npz: {message}"):
            load_params(path)

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        old, new = init_params(spec, seed=1), init_params(spec, seed=2)
        path = tmp_path / "member.npz"
        save_params(path, old)

        def savez_cut_short(fh, **payload):
            fh.write(b"PK\x03\x04 cut short")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_cut_short)
        with pytest.raises(OSError, match="disk full"):
            save_params(path, new)
        monkeypatch.undo()
        loaded, _ = load_params(path)
        assert np.array_equal(loaded.tensors["out_w"], old.tensors["out_w"])
        assert [p.name for p in tmp_path.iterdir()] == ["member.npz"]

    @pytest.mark.parametrize(
        "rewrite, message",
        [
            pytest.param(
                lambda raw: json.dumps({k: v for k, v in raw.items() if k != "activation"}),
                "malformed, KeyError: 'activation'",
                id="no-activation",
            ),
            pytest.param(lambda raw: "{not json", "malformed, JSONDecodeError: ", id="not-json"),
            pytest.param(
                lambda raw: json.dumps({**raw, "n_outputs": 1}),
                "multiclass head needs n_outputs >= 2",
                id="invalid-spec",
            ),
            # A checkpoint of a flat-input learner, a form members no longer take.
            pytest.param(
                lambda raw: json.dumps({**raw, "input_shape": 4}),
                r"input_shape must be \(frames, mels\)",
                id="flat-input",
            ),
        ],
    )
    def test_malformed_spec_rejected_naming_the_path(self, tmp_path, rewrite, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        path = tmp_path / "member.npz"
        save_params(path, init_params(spec, seed=1))
        with np.load(path, allow_pickle=False) as archive:
            raw = json.loads(str(archive["spec_json"]))
        _rewrite_checkpoint(path, spec_json=np.array(rewrite(raw)))
        with pytest.raises(ValueError, match=rf"member\.npz: {message}"):
            load_params(path)

    def test_missing_step_rejected_naming_the_path(self, tmp_path):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        path = tmp_path / "member.npz"
        save_params(path, init_params(spec, seed=1))
        _rewrite_checkpoint(path, drop=("step",))
        with pytest.raises(ValueError, match=r"member\.npz: malformed, KeyError: 'step is not"):
            load_params(path)

    @pytest.mark.parametrize("keep", [0.5, 0.0])
    def test_cut_short_checkpoint_rejected_naming_the_path(self, tmp_path, keep):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        path = tmp_path / "member.npz"
        save_params(path, init_params(spec, seed=1))
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * keep)])
        with pytest.raises(ValueError, match=r"member\.npz: malformed, (BadZipFile|EOFError)"):
            load_params(path)

    def test_file_that_is_not_a_zip_archive_rejected_naming_the_path(self, tmp_path):
        path = tmp_path / "member.npz"
        path.write_text("garbage")
        with pytest.raises(ValueError, match=r"member\.npz: not a zip archive$"):
            load_params(path)

    def test_version_1_file_loads_as_a_float64_member(self, tmp_path):
        """Version 1 wrote every array in float64, as its members computed."""
        spec = LearnerSpec(input_shape=(6, 5), n_outputs=3, hidden_layers=(4,),
                           conv_stem=((2, 2, 1),))
        params = float64_member(init_params(spec, seed=3))
        state = init_adam(params, learning_rate=2e-3)
        adam_step(state, params, np.random.default_rng(0).normal(size=params.buffer.shape))
        raw = {"input_shape": [6, 5], "n_outputs": 3, "hidden_layers": [4],
               "conv_stem": [[2, 2, 1]], "activation": "relu", "head": "multiclass"}
        payload = {
            "format_version": np.array(1),
            "spec_json": np.array(json.dumps(raw)),
            "step": np.array(params.step),
            "adam/hyper": np.array([2e-3, 0.9, 0.999, 1e-8]),
        }
        for name in params.tensors:
            payload[f"param/{name}"] = params.tensors[name]
            payload[f"adam/m/{name}"] = state.m[name]
            payload[f"adam/v/{name}"] = state.v[name]
        assert all(arr.dtype == np.float64 for arr in payload.values() if arr.ndim)
        path = tmp_path / "member.npz"
        np.savez(path, **payload)
        loaded, loaded_state = load_params(path)
        assert (loaded.spec, loaded.step) == (spec, params.step)
        assert loaded.buffer.dtype == loaded_state.buffer.dtype == np.float64
        assert loaded.buffer.tobytes() == params.buffer.tobytes()
        assert loaded_state.buffer.tobytes() == state.buffer.tobytes()
        assert loaded_state.learning_rate == 2e-3

    @pytest.mark.parametrize(
        "keys, message",
        [
            pytest.param(["param/out_b"], "tensors must all be float32 or all float64, "
                         "got float32, float64", id="params"),
            pytest.param(["adam/v/dense0_w"], "tensors must all be float32 or all float64, "
                         "got float32, float64", id="moments"),
            pytest.param([f"adam/{row}/{name}" for row in "mv" for name in
                          ("dense0_w", "dense0_b", "out_w", "out_b")],
                         "optimizer state is float64 but the parameters are float32", id="state"),
        ],
    )
    def test_tensors_of_mixed_dtypes_refused_naming_the_path(self, tmp_path, keys, message):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=2, hidden_layers=(3,))
        params = init_params(spec, seed=1)
        path = tmp_path / "member.npz"
        save_params(path, params, init_adam(params, learning_rate=1e-3))
        with np.load(path, allow_pickle=False) as archive:
            wide = {key: archive[key].astype(np.float64) for key in keys}
        _rewrite_checkpoint(path, **wide)
        with pytest.raises(ValueError, match=rf"member\.npz: {message}$"):
            load_params(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.array(999))
        with pytest.raises(ValueError, match="version"):
            load_params(path)


class TestSpecValidation:
    def test_multiclass_needs_two_outputs(self):
        with pytest.raises(ValueError):
            LearnerSpec(input_shape=(1, 4), n_outputs=1)

    def test_multilabel_allows_one_output(self):
        spec = LearnerSpec(input_shape=(1, 4), n_outputs=1, head="multilabel")
        assert spec.n_outputs == 1

    def test_flat_input_shape_rejected(self):
        # Members take (frames, mels) images; a flat vector is a (1, d) image.
        for shape in (16, (16,), (4, 4, 1), (0, 4)):
            with pytest.raises(ValueError, match=r"input_shape must be \(frames, mels\)"):
                LearnerSpec(input_shape=shape, n_outputs=2)

    def test_kernel_too_large_rejected(self):
        with pytest.raises(ValueError):
            LearnerSpec(input_shape=(4, 4), n_outputs=2, conv_stem=((2, 5, 1),))
