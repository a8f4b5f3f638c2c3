"""Compact gradient-trained classifiers.

A learner is a feed-forward network with an optional strided 2-D
convolutional stem, a rectified-linear body, and either a softmax
(multi-class) or per-output sigmoid (multi-label) head. Forward, loss,
and gradients are implemented directly on numpy arrays and compute in the
member's dtype: float32 for every member ``init_params`` builds, float64
for one built from float64 tensors, as checks held to double precision
are. Float32 inputs, such as the image store, are read as they are:
training gathers each batch's rows, which a float32 member computes on
directly and a float64 member widens where its first layer copies them
anyway (a conv stem's unfolded windows, or the flattened input of the
dense body), so training on rows of the store never copies it. Float32
keeps the stable softmax, binary cross-entropy and ``EPS`` as they are
but narrows the finite range: a float32 member diverges near 3.4e38.

Training is plain shuffled mini-batch Adam. Each conv layer is one matrix
product over its unfolded windows (im2col), cached from the forward pass
for the weight gradient; whichever layer the input images enter, the
gradient with respect to them is never formed. A member keeps its
parameters in one contiguous buffer and its Adam moments in another, both
in its dtype, behind read-only mappings of per-tensor views. ``train``
checks its data once per call and steps private copies, so its caller's
objects never change; a step writes one flat gradient and updates both
buffers in place from it. Seeded runs are bitwise reproducible because
the data order is a pure function of the seed and every step runs the
same arithmetic.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from zipfile import BadZipFile

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .metrics import TASK_METRICS

__all__ = [
    "LearnerSpec",
    "LearnerParams",
    "OptimizerState",
    "LabeledSet",
    "DivergenceError",
    "init_params",
    "init_adam",
    "forward",
    "train",
    "n_parameters",
    "save_params",
    "load_params",
]

FORMAT_VERSION = 2

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class LearnerSpec:
    """Architecture description: input image (frames, mels), stem, hidden widths, head."""

    input_shape: tuple[int, int]
    n_outputs: int
    hidden_layers: tuple[int, ...] = (64,)
    conv_stem: tuple[tuple[int, int, int], ...] = ()
    head: str = "multiclass"

    def __post_init__(self):
        try:
            shape = tuple(int(v) for v in self.input_shape)
        except (TypeError, ValueError):
            shape = ()
        if len(shape) != 2 or min(shape) < 1:
            raise ValueError(
                f"input_shape must be (frames, mels), two positive ints, got {self.input_shape!r}"
            )
        object.__setattr__(self, "input_shape", shape)
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
        self._stem_geometry()  # validates kernel/stride fit

    def _stem_geometry(self):
        """Channel/height/width after each stem layer; raises if a kernel no longer fits."""
        c, (h, w) = 1, self.input_shape
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


def _views(buffer: np.ndarray, like: Mapping[str, np.ndarray]) -> Mapping[str, np.ndarray]:
    """Read-only name -> view mapping that lays like's shapes end to end over
    buffer; like maps each name to an array or to its shape."""
    views, start = {}, 0
    for name, arr in like.items():
        shape = getattr(arr, "shape", arr)
        size = math.prod(shape)
        views[name] = buffer[start : start + size].reshape(shape)
        start += size
    return MappingProxyType(views)


def _layout(arrays: Mapping[str, np.ndarray]) -> list[tuple[str, tuple[int, ...]]]:
    return [(name, arr.shape) for name, arr in arrays.items()]


def _one_dtype(arrays) -> np.dtype:
    """The dtype all arrays share, float32 or float64 (the dtypes a member
    computes in), or ValueError."""
    names = sorted({arr.dtype.name for arr in arrays})
    if names not in (["float32"], ["float64"]):
        raise ValueError(f"tensors must all be float32 or all float64, got {', '.join(names)}")
    return np.dtype(names[0])


def _check_same_dtype(state: OptimizerState, params: LearnerParams) -> None:
    if state.buffer.dtype != params.buffer.dtype:
        raise ValueError(
            f"optimizer state is {state.buffer.dtype} but the parameters are {params.buffer.dtype}"
        )


def _first_nonfinite(buffer: np.ndarray, views: Mapping[str, np.ndarray]) -> str | None:
    """Name of the first view holding a non-finite value, or None."""
    if np.isfinite(buffer).all():
        return None
    return next(name for name, arr in views.items() if not np.isfinite(arr).all())


@dataclass
class LearnerParams:
    """One member's weight set plus its optimizer step counter.

    The tensors, all float32 or all float64, are packed, as copies in
    parameter order and in their dtype, into one fresh buffer; ``tensors``
    maps each name to its view of that buffer. The member computes in
    that dtype.
    """

    spec: LearnerSpec
    tensors: Mapping[str, np.ndarray]
    step: int = 0
    buffer: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = param_shapes(self.spec)
        if list(self.tensors) != list(expected):
            raise ValueError("tensor names do not match the spec's parameter map")
        for name, arr in self.tensors.items():
            if arr.shape != expected[name]:
                raise ValueError(
                    f"{name}: expected shape {expected[name]}, got {arr.shape}"
                )
        if self.step < 0:
            raise ValueError("step counter must be non-negative")
        tensors = list(self.tensors.values())
        self.buffer = np.concatenate(tensors, axis=None, dtype=_one_dtype(tensors))
        self.tensors = _views(self.buffer, self.tensors)
        bad = _first_nonfinite(self.buffer, self.tensors)
        if bad is not None:
            raise ValueError(f"{bad} contains non-finite values")

    # A member pickles, and copies, as its spec, step and buffer, and its
    # copy views its own buffer again. The copy skips validation: a
    # diverged member copies too.
    def __getstate__(self):
        return self.spec, self.step, self.buffer

    def __setstate__(self, state):
        self.spec, self.step, self.buffer = state
        self.tensors = _views(self.buffer, param_shapes(self.spec))


@dataclass
class OptimizerState:
    """Adam accumulators; shapes mirror the parameters they update.

    Both moments, all float32 or all float64, are packed, as copies in
    their dtype, into one fresh (2, n) buffer: ``m`` maps each name to its
    view of row 0, ``v`` of row 1. ``init_adam`` gives the parameters'
    dtype, and ``train`` refuses a state of another.
    ``scratch`` is two rows ``adam_step`` overwrites, its only temporaries;
    they carry nothing from one step to the next. ``train`` drops them
    when it returns and a state read back from a pickle has none, so a
    trained member's state holds only its moments; ``adam_step`` allocates
    them again on a state without them.
    """

    m: Mapping[str, np.ndarray]
    v: Mapping[str, np.ndarray]
    learning_rate: float
    buffer: np.ndarray = field(init=False, repr=False, compare=False)
    scratch: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if _layout(self.m) != _layout(self.v):
            raise ValueError("m and v differ in tensor names or shapes")
        moments = [*self.m.values(), *self.v.values()]
        self.buffer = np.concatenate(moments, axis=None, dtype=_one_dtype(moments)).reshape(2, -1)
        self.m, self.v = _views(self.buffer[0], self.m), _views(self.buffer[1], self.v)
        self.scratch = np.empty_like(self.buffer)

    def __getstate__(self):
        return dict(_layout(self.m)), self.learning_rate, self.buffer

    def __setstate__(self, state):
        layout, self.learning_rate, self.buffer = state
        self.m, self.v = _views(self.buffer[0], layout), _views(self.buffer[1], layout)
        self.scratch = None


@dataclass(frozen=True)
class LabeledSet:
    """Inputs with their targets: a labeled split, or one training mini-batch."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets differ in length")
        if len(self.inputs) == 0:
            raise ValueError("labeled set is empty")

    def __len__(self) -> int:
        return len(self.inputs)


class DivergenceError(ValueError):
    """A parameter became non-finite in training: which tensor, by which step,
    and, once the engine has seen it, which member in which round."""

    def __init__(
        self, tensor: str, step: int, member: int | None = None, round_index: int | None = None
    ):
        self.tensor, self.step = tensor, step
        self.member, self.round_index = member, round_index
        where = "" if member is None else f"member {member}, round {round_index}: "
        super().__init__(f"{where}{tensor} became non-finite by step {step}")

    def __reduce__(self):
        return DivergenceError, (self.tensor, self.step, self.member, self.round_index)


def init_params(spec: LearnerSpec, seed: int) -> LearnerParams:
    """A float32 member: fan-in-scaled Gaussian weights (std sqrt(2/fan_in)),
    drawn in float64 and rounded once, and zero biases."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape, dtype=np.float32)
        else:
            std = math.sqrt(2.0 / _fan_in(name, shape))
            tensors[name] = rng.normal(0.0, std, size=shape).astype(np.float32)
    return LearnerParams(spec=spec, tensors=tensors, step=0)


def init_adam(params: LearnerParams, learning_rate: float) -> OptimizerState:
    """Zero moments in the parameters' layout and dtype."""
    zeros = _views(np.zeros_like(params.buffer), params.tensors)
    return OptimizerState(m=zeros, v=zeros, learning_rate=learning_rate)


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
    # im2col: one copy of the strided windows, a row per output position.
    # The columns take the member's dtype whatever the input's: the copy casts.
    kernel = w.shape[2]
    windows = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    windows = windows.transpose(0, 2, 3, 1, 4, 5)
    h_out, w_out = windows.shape[1:3]
    cols = np.empty(windows.shape, dtype=w.dtype)
    np.copyto(cols, windows)
    cols = cols.reshape(-1, w[0].size)
    z = (cols @ w.reshape(len(w), -1).T).reshape(len(x), h_out, w_out, len(w))
    return z.transpose(0, 3, 1, 2) + b[None, :, None, None], cols


def _conv_input_grad(x_shape, w, stride, dout2d, h_out, w_out):
    """Gradient in one conv layer's input, from its (B*h*w, O) output-gradient rows."""
    spread = (dout2d @ w.reshape(len(w), -1)).reshape(x_shape[0], h_out, w_out, *w.shape[1:])
    dx = np.zeros(x_shape, dtype=w.dtype)
    for i in range(w.shape[2]):
        for j in range(w.shape[3]):
            dx[:, :, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += (
                spread[..., i, j].transpose(0, 3, 1, 2)
            )
    return dx


def _check_input_shape(spec: LearnerSpec, inputs: np.ndarray, dtype) -> np.ndarray:
    """inputs as a real (batch, frames, mels) array, or ValueError. A float32
    array, such as the store, is returned as it is: a float32 member reads
    it, and a float64 member's first layer widens the rows it copies anyway.
    Anything else is cast to dtype, the member's."""
    x = np.asarray(inputs)
    if np.iscomplexobj(x):
        raise ValueError(f"inputs must be real, got {x.dtype}")
    if x.dtype != np.float32:
        x = x.astype(dtype, copy=False)
    if x.ndim != 3 or x.shape[1:] != spec.input_shape:
        frames, mels = spec.input_shape
        raise ValueError(f"expected inputs of shape (batch, {frames}, {mels}), got {x.shape}")
    return x


def _forward_cached(params: LearnerParams, x: np.ndarray):
    spec = params.spec
    t = params.tensors
    caches = {"conv": [], "dense": []}

    if spec.conv_stem:
        a = x[:, None, :, :]
        for i, (_, _, stride) in enumerate(spec.conv_stem):
            z, cols = _conv_forward(a, t[f"conv{i}_w"], t[f"conv{i}_b"], stride)
            a_next = _relu(z)
            caches["conv"].append((a.shape, cols, z, stride))
            a = a_next
        a = a.reshape(len(a), -1)
    else:
        a = x.reshape(len(x), -1).astype(params.buffer.dtype, copy=False)

    for j in range(len(spec.hidden_layers)):
        z = a @ t[f"dense{j}_w"] + t[f"dense{j}_b"]
        caches["dense"].append((a, z))
        a = _relu(z)

    logits = a @ t["out_w"] + t["out_b"]
    caches["head_input"] = a
    return logits, caches


def forward(params: LearnerParams, inputs: np.ndarray) -> np.ndarray:
    """Class probabilities: softmax rows (multi-class) or per-output sigmoids."""
    x = _check_input_shape(params.spec, inputs, params.buffer.dtype)
    logits, _ = _forward_cached(params, x)
    if params.spec.head == "multiclass":
        return _softmax(logits)
    return _sigmoid(logits)


def _checked_targets(spec: LearnerSpec, targets: np.ndarray, dtype) -> np.ndarray:
    """targets as int64 class indices (multi-class) or 0/1 rows of dtype, the
    member's (multi-label), or ValueError naming the first bad value."""
    n = len(targets)
    if spec.head == "multiclass":
        t = np.asarray(targets)
        if t.shape != (n,):
            raise ValueError(f"multiclass targets must have shape ({n},), got {t.shape}")
        if not np.issubdtype(t.dtype, np.integer):
            fractional = np.flatnonzero(t != np.round(t))
            if fractional.size:
                raise ValueError(
                    f"multiclass targets must be whole class indices, got {t[fractional[0]]}"
                )
        if t.min() < 0 or t.max() >= spec.n_outputs:
            raise ValueError("class indices outside [0, n_outputs)")
        return t.astype(np.int64, copy=False)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != (n, spec.n_outputs):
        raise ValueError(f"multilabel targets must have shape {(n, spec.n_outputs)}, got {t.shape}")
    not_binary = np.flatnonzero((t != 0.0) & (t != 1.0))
    if not_binary.size:
        raise ValueError(
            f"multilabel targets must be 0 or 1, got {np.asarray(targets).flat[not_binary[0]]}"
        )
    return t.astype(dtype, copy=False)


def _loss_and_dlogits(spec: LearnerSpec, logits: np.ndarray, t: np.ndarray):
    batch = len(logits)
    if spec.head == "multiclass":
        log_probs = logits - logits.max(axis=1, keepdims=True)
        log_probs -= np.log(np.exp(log_probs).sum(axis=1, keepdims=True))
        loss = -log_probs[np.arange(batch), t].mean()
        dlogits = np.exp(log_probs)
        dlogits[np.arange(batch), t] -= 1.0
        return loss, dlogits / batch
    # Stable binary cross-entropy straight from logits, summed over labels.
    per_element = np.maximum(logits, 0.0) - logits * t + np.log1p(np.exp(-np.abs(logits)))
    loss = per_element.sum(axis=1).mean()
    return loss, (_sigmoid(logits) - t) / batch


def loss_and_grad(params: LearnerParams, batch: LabeledSet):
    """Mean loss over the batch and its gradient, laid out like params.buffer.
    The batch is unchecked: train checks its inputs and targets once."""
    spec, t = params.spec, params.tensors
    logits, caches = _forward_cached(params, batch.inputs)
    loss, dlogits = _loss_and_dlogits(spec, logits, batch.targets)

    flat = np.empty_like(params.buffer)
    grad = _views(flat, t)
    a = caches["head_input"]
    np.matmul(a.T, dlogits, out=grad["out_w"])
    np.sum(dlogits, axis=0, out=grad["out_b"])
    # dz enters the layer of weights `above`; the gradient leaving that
    # layer is formed only where a layer below reads it.
    dz, above = dlogits, t["out_w"]

    for j in reversed(range(len(spec.hidden_layers))):
        a_prev, z = caches["dense"][j]
        dz = (dz @ above.T) * (z > 0)
        above = t[f"dense{j}_w"]
        np.matmul(a_prev.T, dz, out=grad[f"dense{j}_w"])
        np.sum(dz, axis=0, out=grad[f"dense{j}_b"])

    if spec.conv_stem:
        da = (dz @ above.T).reshape(caches["conv"][-1][2].shape)
        for i in reversed(range(len(spec.conv_stem))):
            x_shape, cols, z, stride = caches["conv"][i]
            w = t[f"conv{i}_w"]
            dz = da * (z > 0)
            np.sum(dz, axis=(0, 2, 3), out=grad[f"conv{i}_b"])
            dz2d = dz.transpose(0, 2, 3, 1).reshape(-1, len(w))
            np.matmul(dz2d.T, cols, out=grad[f"conv{i}_w"].reshape(len(w), -1))
            # Nothing reads the gradient with respect to the input images.
            if i > 0:
                da = _conv_input_grad(x_shape, w, stride, dz2d, *z.shape[2:])

    return loss, flat


def adam_step(state: OptimizerState, params: LearnerParams, g: np.ndarray) -> None:
    """One bias-corrected Adam update of params and state, in place, from the
    flat gradient g, which it only reads; increments the step.

    Each operation of

        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        theta -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

    runs once over the whole buffer, into the state's scratch rows: with
    buffer-sized temporaries instead, the allocator handed pages back to the
    system and faulted them in again many times a step.
    """
    t = params.step + 1
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    m, v = state.buffer
    if state.scratch is None:
        state.scratch = np.empty_like(state.buffer)
    tmp, denom = state.scratch
    m *= BETA1
    m += np.multiply(1.0 - BETA1, g, out=tmp)
    v *= BETA2
    v += np.multiply(1.0 - BETA2, np.multiply(g, g, out=tmp), out=tmp)
    update = np.multiply(state.learning_rate, np.divide(m, bc1, out=tmp), out=tmp)
    update /= np.add(np.sqrt(np.divide(v, bc2, out=denom), out=denom), EPS, out=denom)
    params.buffer -= update
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
    rows: np.ndarray | None = None,
):
    """Shuffled mini-batch Adam for a fixed number of full passes.

    The training samples are the rows of inputs that rows lists, paired in
    order with targets, or every row when rows is None; each batch gathers
    its own rows, so no training set is copied out of inputs. Inputs, targets
    and rows are checked once per call, not per step. Returns trained copies
    of params and state; the arguments themselves are left unchanged. The
    shuffle order is a pure function of the seed, and the returned state lets
    a later call continue training where this one stopped. Raises
    DivergenceError naming the tensor and step if a parameter is non-finite
    at the end of an epoch.
    """
    x = _check_input_shape(params.spec, inputs, params.buffer.dtype)
    rows = np.arange(len(x)) if rows is None else np.asarray(rows)
    whole = rows.ndim == 1 and np.issubdtype(rows.dtype, np.integer)
    bad = np.flatnonzero((rows < 0) | (rows >= len(x))) if whole else np.arange(rows.size)
    if bad.size:
        raise ValueError(f"rows must be 1-D integers in [0, {len(x)}), got {rows.flat[bad[0]]}")
    n = len(rows)
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    if len(targets) != n:
        raise ValueError(f"{n} training rows but {len(targets)} targets")
    targets = _checked_targets(params.spec, targets, params.buffer.dtype)
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    if _layout(state.m) != _layout(params.tensors):
        raise ValueError("optimizer state differs from the parameters in tensor names or shapes")
    _check_same_dtype(state, params)
    params = LearnerParams(params.spec, params.tensors, params.step)
    state = OptimizerState(state.m, state.v, state.learning_rate)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            sel = order[start : start + batch_size]
            _, g = loss_and_grad(params, LabeledSet(x[rows[sel]], targets[sel]))
            adam_step(state, params, g)
        bad = _first_nonfinite(params.buffer, params.tensors)
        if bad is not None:
            raise DivergenceError(bad, params.step)
    state.scratch = None
    return params, state


def n_parameters(obj: LearnerParams | LearnerSpec) -> int:
    shapes = param_shapes(obj if isinstance(obj, LearnerSpec) else obj.spec)
    return sum(int(np.prod(s)) for s in shapes.values())


def _spec_to_json(spec: LearnerSpec) -> str:
    return json.dumps(
        {
            "input_shape": list(spec.input_shape),
            "n_outputs": spec.n_outputs,
            "hidden_layers": list(spec.hidden_layers),
            "conv_stem": [list(layer) for layer in spec.conv_stem],
            "activation": "relu",
            "head": spec.head,
        }
    )


def _spec_from_json(text: str) -> LearnerSpec:
    raw = json.loads(text)
    if raw["activation"] != "relu":
        raise ValueError(f"unsupported activation {raw['activation']!r}")
    return LearnerSpec(
        input_shape=raw["input_shape"],
        n_outputs=raw["n_outputs"],
        hidden_layers=tuple(raw["hidden_layers"]),
        conv_stem=tuple(tuple(layer) for layer in raw["conv_stem"]),
        head=raw["head"],
    )


def save_params(path, params: LearnerParams, state: OptimizerState | None = None) -> None:
    """Checkpoint spec + tensors (+ optional Adam state), in the member's
    dtype, to a single .npz file."""
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
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **payload)


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a sibling temporary file for writing and move it over path when
    the block completes, so readers see the old file or the new one. A
    write that fails leaves path as it was and removes the temporary file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_params(path):
    """Inverse of save_params; returns (params, state-or-None). A file that
    is not a zip archive, or a checkpoint that is malformed, cut short or
    fails a check, raises ValueError naming the path."""
    try:
        with open(path, "rb") as fh:
            # np.load would read any other file as a pickle and refuse that;
            # an empty file fails in np.load as cut short.
            if fh.read(4) not in (b"", b"PK\x03\x04", b"PK\x05\x06"):
                raise ValueError("not a zip archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                return _read_checkpoint(archive)
    except (KeyError, TypeError, ValueError, EOFError, BadZipFile) as err:
        what = err if type(err) is ValueError else f"malformed, {type(err).__name__}: {err}"
        raise ValueError(f"{path}: {what}") from err


def _read_checkpoint(archive):
    # Version 1 wrote float64 arrays only; version 2 writes the member's dtype.
    version = int(archive["format_version"])
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported checkpoint format version {version}")
    spec = _spec_from_json(str(archive["spec_json"]))
    shapes = param_shapes(spec)
    tensors = _load_tensors(archive, "param/", shapes)
    params = LearnerParams(spec=spec, tensors=tensors, step=int(archive["step"]))
    if "adam/hyper" not in archive.files:
        return params, None
    lr, *hyper = archive["adam/hyper"].tolist()
    if hyper != [BETA1, BETA2, EPS]:
        raise ValueError(f"Adam beta1, beta2, eps {hyper} differ from {BETA1}, {BETA2}, {EPS}")
    state = OptimizerState(
        m=_load_tensors(archive, "adam/m/", shapes),
        v=_load_tensors(archive, "adam/v/", shapes),
        learning_rate=lr,
    )
    _check_same_dtype(state, params)
    return params, state


def _load_tensors(archive, prefix: str, shapes: dict[str, tuple[int, ...]]):
    """One tensor per parameter under prefix, of its shape and finite, or ValueError."""
    names = [key[len(prefix):] for key in archive.files if key.startswith(prefix)]
    if sorted(names) != sorted(shapes):
        raise ValueError(f"{prefix}* names {names} differ from the parameters {list(shapes)}")
    tensors = {name: archive[prefix + name] for name in shapes}
    for name, arr in tensors.items():
        if arr.shape != shapes[name]:
            raise ValueError(f"{prefix}{name} has shape {arr.shape}, expected {shapes[name]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{prefix}{name} contains non-finite values")
    return tensors
