"""Compact gradient-trained classifiers.

A learner is a feed-forward network with an optional strided 2-D
convolutional stem, a rectified-linear body, and either a softmax
(multi-class) or per-output sigmoid (multi-label) head. Forward, loss,
and gradients are implemented directly on numpy arrays in double
precision; training is plain shuffled mini-batch Adam. ``adam_step``
updates parameters and optimizer state in place; ``train`` steps private
copies, so its caller's objects never change. Seeded runs are bitwise
reproducible because the data order is a pure function of the seed and
every step runs the same arithmetic in the same order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .metrics import TASK_METRICS

__all__ = [
    "LearnerSpec",
    "LearnerParams",
    "OptimizerState",
    "MiniBatch",
    "init_params",
    "init_adam",
    "forward",
    "loss_and_grad",
    "adam_step",
    "train",
    "n_parameters",
    "save_params",
    "load_params",
]

FORMAT_VERSION = 1

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class LearnerSpec:
    """Architecture description: input geometry, stem, hidden widths, head."""

    input_shape: tuple[int, int] | int
    n_outputs: int
    hidden_layers: tuple[int, ...] = (64,)
    conv_stem: tuple[tuple[int, int, int], ...] = ()
    head: str = "multiclass"

    def __post_init__(self):
        if isinstance(self.input_shape, (list, tuple)):
            shape = tuple(int(v) for v in self.input_shape)
            if len(shape) != 2 or min(shape) < 1:
                raise ValueError(f"2-D input_shape must be two positive ints, got {shape}")
            object.__setattr__(self, "input_shape", shape)
        else:
            if int(self.input_shape) < 1:
                raise ValueError("flat input dimension must be positive")
            object.__setattr__(self, "input_shape", int(self.input_shape))
        object.__setattr__(
            self, "hidden_layers", tuple(int(w) for w in self.hidden_layers)
        )
        object.__setattr__(
            self,
            "conv_stem",
            tuple((int(c), int(k), int(s)) for c, k, s in self.conv_stem),
        )
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError("hidden layer widths must be positive")
        if self.head not in TASK_METRICS:
            raise ValueError(f"head must be one of {tuple(TASK_METRICS)}, got {self.head!r}")
        minimum = 2 if self.head == "multiclass" else 1
        if self.n_outputs < minimum:
            raise ValueError(f"{self.head} head needs n_outputs >= {minimum}")
        if self.conv_stem and not isinstance(self.input_shape, tuple):
            raise ValueError("a conv stem requires a 2-D input_shape")
        self._stem_geometry()  # validates kernel/stride fit

    def _stem_geometry(self):
        """Channel/height/width after each stem layer; raises if a kernel no longer fits."""
        if not isinstance(self.input_shape, tuple):
            return []
        c, h, w = 1, self.input_shape[0], self.input_shape[1]
        shapes = []
        for idx, (out_c, kernel, stride) in enumerate(self.conv_stem):
            if out_c < 1 or kernel < 1 or stride < 1:
                raise ValueError(f"conv layer {idx}: channels, kernel, stride must be positive")
            if kernel > h or kernel > w:
                raise ValueError(
                    f"conv layer {idx}: kernel {kernel} exceeds feature map {h}x{w}"
                )
            h = (h - kernel) // stride + 1
            w = (w - kernel) // stride + 1
            c = out_c
            shapes.append((c, h, w))
        return shapes

    @property
    def feature_dim(self) -> int:
        """Flattened width entering the dense body."""
        if isinstance(self.input_shape, int):
            return self.input_shape
        shapes = self._stem_geometry()
        if shapes:
            c, h, w = shapes[-1]
            return c * h * w
        return self.input_shape[0] * self.input_shape[1]


def param_shapes(spec: LearnerSpec) -> dict[str, tuple[int, ...]]:
    """Ordered parameter name -> shape map (stem, body, output head)."""
    shapes: dict[str, tuple[int, ...]] = {}
    in_c = 1
    for i, (out_c, kernel, _) in enumerate(spec.conv_stem):
        shapes[f"conv{i}_w"] = (out_c, in_c, kernel, kernel)
        shapes[f"conv{i}_b"] = (out_c,)
        in_c = out_c
    width = spec.feature_dim
    for j, hidden in enumerate(spec.hidden_layers):
        shapes[f"dense{j}_w"] = (width, hidden)
        shapes[f"dense{j}_b"] = (hidden,)
        width = hidden
    shapes["out_w"] = (width, spec.n_outputs)
    shapes["out_b"] = (spec.n_outputs,)
    return shapes


def _fan_in(name: str, shape: tuple[int, ...]) -> int:
    if name.startswith("conv"):
        return shape[1] * shape[2] * shape[3]
    return shape[0]


@dataclass
class LearnerParams:
    """One member's weight set plus its optimizer step counter."""

    spec: LearnerSpec
    tensors: dict[str, np.ndarray]
    step: int = 0

    def __post_init__(self):
        expected = param_shapes(self.spec)
        if list(self.tensors) != list(expected):
            raise ValueError("tensor names do not match the spec's parameter map")
        for name, arr in self.tensors.items():
            if arr.shape != expected[name]:
                raise ValueError(
                    f"{name}: expected shape {expected[name]}, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        if self.step < 0:
            raise ValueError("step counter must be non-negative")


@dataclass
class OptimizerState:
    """Adam accumulators; shapes mirror the parameters they update."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    learning_rate: float

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class MiniBatch:
    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if len(self.inputs) < 1:
            raise ValueError("mini-batch must contain at least one sample")
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets differ in length")


def init_params(spec: LearnerSpec, seed: int) -> LearnerParams:
    """Fan-in-scaled Gaussian weights (std sqrt(2/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape, dtype=np.float64)
        else:
            std = math.sqrt(2.0 / _fan_in(name, shape))
            tensors[name] = rng.normal(0.0, std, size=shape)
    return LearnerParams(spec=spec, tensors=tensors, step=0)


def init_adam(params: LearnerParams, learning_rate: float) -> OptimizerState:
    zeros = {name: np.zeros_like(arr) for name, arr in params.tensors.items()}
    return OptimizerState(
        m=zeros,
        v={name: np.zeros_like(arr) for name, arr in params.tensors.items()},
        learning_rate=learning_rate,
    )


def _relu(z):
    return np.maximum(z, 0.0)


def _softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _conv_forward(x, w, b, stride):
    kernel = w.shape[2]
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    out = np.einsum("bchwij,ocij->bohw", windows, w, optimize=True)
    return out + b[None, :, None, None], windows


def _conv_backward(x_shape, windows, w, stride, dout):
    kernel = w.shape[2]
    db = dout.sum(axis=(0, 2, 3))
    dw = np.einsum("bchwij,bohw->ocij", windows, dout, optimize=True)
    dx = np.zeros(x_shape, dtype=np.float64)
    spread = np.einsum("bohw,ocij->bchwij", dout, w, optimize=True)
    h_out, w_out = dout.shape[2], dout.shape[3]
    for i in range(kernel):
        for j in range(kernel):
            dx[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                spread[..., i, j]
            )
    return dx, dw, db


def _check_input_shape(spec: LearnerSpec, inputs: np.ndarray) -> np.ndarray:
    x = np.asarray(inputs, dtype=np.float64)
    if isinstance(spec.input_shape, int):
        if x.ndim != 2 or x.shape[1] != spec.input_shape:
            raise ValueError(
                f"expected inputs of shape (batch, {spec.input_shape}), got {x.shape}"
            )
    else:
        if x.ndim != 3 or x.shape[1:] != spec.input_shape:
            raise ValueError(
                f"expected inputs of shape (batch, {spec.input_shape[0]}, "
                f"{spec.input_shape[1]}), got {x.shape}"
            )
    return x


def _forward_cached(params: LearnerParams, inputs: np.ndarray):
    spec = params.spec
    x = _check_input_shape(spec, inputs)
    t = params.tensors
    caches = {"conv": [], "dense": []}

    if spec.conv_stem:
        a = x[:, None, :, :]
        for i, (_, _, stride) in enumerate(spec.conv_stem):
            z, windows = _conv_forward(a, t[f"conv{i}_w"], t[f"conv{i}_b"], stride)
            a_next = _relu(z)
            caches["conv"].append((a.shape, windows, z, stride))
            a = a_next
        a = a.reshape(len(a), -1)
    else:
        a = x.reshape(len(x), -1)

    for j in range(len(spec.hidden_layers)):
        z = a @ t[f"dense{j}_w"] + t[f"dense{j}_b"]
        caches["dense"].append((a, z))
        a = _relu(z)

    logits = a @ t["out_w"] + t["out_b"]
    caches["head_input"] = a
    return logits, caches


def forward(params: LearnerParams, inputs: np.ndarray) -> np.ndarray:
    """Class probabilities: softmax rows (multi-class) or per-output sigmoids."""
    logits, _ = _forward_cached(params, inputs)
    if params.spec.head == "multiclass":
        return _softmax(logits)
    return _sigmoid(logits)


def _loss_and_dlogits(spec: LearnerSpec, logits: np.ndarray, targets: np.ndarray):
    batch = len(logits)
    if spec.head == "multiclass":
        t = np.asarray(targets)
        if t.ndim != 1 or not np.issubdtype(t.dtype, np.integer):
            t = t.astype(np.int64)
        if t.min() < 0 or t.max() >= spec.n_outputs:
            raise ValueError("class indices outside [0, n_outputs)")
        log_probs = logits - logits.max(axis=1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        loss = -log_probs[np.arange(batch), t].mean()
        dlogits = np.exp(log_probs)
        dlogits[np.arange(batch), t] -= 1.0
        return loss, dlogits / batch
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ValueError(f"multilabel targets must have shape {logits.shape}, got {t.shape}")
    # Stable binary cross-entropy straight from logits, summed over labels.
    per_element = np.maximum(logits, 0.0) - logits * t + np.log1p(np.exp(-np.abs(logits)))
    loss = per_element.sum(axis=1).mean()
    return loss, (_sigmoid(logits) - t) / batch


def loss_and_grad(params: LearnerParams, batch: MiniBatch):
    """Mean loss over the batch and gradients matching the parameter map."""
    spec = params.spec
    t = params.tensors
    logits, caches = _forward_cached(params, batch.inputs)
    loss, dlogits = _loss_and_dlogits(spec, logits, batch.targets)

    grads: dict[str, np.ndarray] = {}
    a = caches["head_input"]
    grads["out_w"] = a.T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    da = dlogits @ t["out_w"].T

    for j in reversed(range(len(spec.hidden_layers))):
        a_prev, z = caches["dense"][j]
        dz = da * (z > 0)
        grads[f"dense{j}_w"] = a_prev.T @ dz
        grads[f"dense{j}_b"] = dz.sum(axis=0)
        da = dz @ t[f"dense{j}_w"].T

    if spec.conv_stem:
        c, h, w = spec._stem_geometry()[-1]
        da = da.reshape(len(da), c, h, w)
        for i in reversed(range(len(spec.conv_stem))):
            x_shape, windows, z, stride = caches["conv"][i]
            dz = da * (z > 0)
            da, dw, db = _conv_backward(x_shape, windows, t[f"conv{i}_w"], stride, dz)
            grads[f"conv{i}_w"] = dw
            grads[f"conv{i}_b"] = db

    return loss, {name: grads[name] for name in t}


def adam_step(
    state: OptimizerState, params: LearnerParams, grads: dict[str, np.ndarray]
) -> None:
    """One bias-corrected Adam update of params and state, in place; increments the step."""
    t = params.step + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, theta in params.tensors.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        theta -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    params.step = t


def train(
    params: LearnerParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    *,
    epochs: int,
    batch_size: int,
    state: OptimizerState,
    seed: int,
):
    """Shuffled mini-batch Adam for a fixed number of full passes.

    Returns trained copies of params and state; the arguments themselves
    are left unchanged. The shuffle order is a pure function of the seed,
    and the returned state lets a later call continue training where this
    one stopped. Raises ValueError naming the tensor and step if a
    parameter is non-finite at the end of an epoch.
    """
    n = len(inputs)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    params = LearnerParams(params.spec, _float64_copies(params.tensors), params.step)
    state = OptimizerState(_float64_copies(state.m), _float64_copies(state.v), state.learning_rate)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start : start + batch_size]
            _, grads = loss_and_grad(params, MiniBatch(inputs[sel], targets[sel]))
            adam_step(state, params, grads)
        for name, arr in params.tensors.items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} became non-finite by step {params.step}")
    return params, state


def _float64_copies(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    # Fresh float64 buffers: in-place steps must neither reach the caller's
    # arrays nor round into a narrower dtype.
    return {name: np.array(arr, dtype=np.float64) for name, arr in arrays.items()}


def n_parameters(obj: LearnerParams | LearnerSpec) -> int:
    shapes = param_shapes(obj if isinstance(obj, LearnerSpec) else obj.spec)
    return sum(int(np.prod(s)) for s in shapes.values())


def _spec_to_json(spec: LearnerSpec) -> str:
    return json.dumps(
        {
            "input_shape": list(spec.input_shape)
            if isinstance(spec.input_shape, tuple)
            else spec.input_shape,
            "n_outputs": spec.n_outputs,
            "hidden_layers": list(spec.hidden_layers),
            "conv_stem": [list(layer) for layer in spec.conv_stem],
            "activation": "relu",
            "head": spec.head,
        }
    )


def _spec_from_json(text: str, path) -> LearnerSpec:
    raw = json.loads(text)
    if raw["activation"] != "relu":
        raise ValueError(f"{path}: unsupported activation {raw['activation']!r}")
    shape = raw["input_shape"]
    return LearnerSpec(
        input_shape=tuple(shape) if isinstance(shape, list) else shape,
        n_outputs=raw["n_outputs"],
        hidden_layers=tuple(raw["hidden_layers"]),
        conv_stem=tuple(tuple(layer) for layer in raw["conv_stem"]),
        head=raw["head"],
    )


def save_params(path, params: LearnerParams, state: OptimizerState | None = None) -> None:
    """Checkpoint spec + tensors (+ optional Adam state) to a single .npz file."""
    payload = {
        "format_version": np.array(FORMAT_VERSION),
        "spec_json": np.array(_spec_to_json(params.spec)),
        "step": np.array(params.step),
    }
    for name, arr in params.tensors.items():
        payload[f"param/{name}"] = arr
    if state is not None:
        payload["adam/hyper"] = np.array([state.learning_rate, BETA1, BETA2, EPS])
        for name in params.tensors:
            payload[f"adam/m/{name}"] = state.m[name]
            payload[f"adam/v/{name}"] = state.v[name]
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_params(path):
    """Inverse of save_params; returns (params, state-or-None)."""
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        spec = _spec_from_json(str(archive["spec_json"]), path)
        tensors = {
            name: archive[f"param/{name}"] for name in param_shapes(spec)
        }
        params = LearnerParams(spec=spec, tensors=tensors, step=int(archive["step"]))
        state = None
        if "adam/hyper" in archive.files:
            lr, *hyper = archive["adam/hyper"].tolist()
            if hyper != [BETA1, BETA2, EPS]:
                raise ValueError(
                    f"{path}: Adam beta1, beta2, eps {hyper} differ from {BETA1}, {BETA2}, {EPS}"
                )
            state = OptimizerState(
                m={name: archive[f"adam/m/{name}"] for name in tensors},
                v={name: archive[f"adam/v/{name}"] for name in tensors},
                learning_rate=lr,
            )
    return params, state
