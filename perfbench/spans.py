"""In-memory span tracer that wraps spelaudio's public functions.

Each wrapper replaces a function at the module attribute where the caller
looks it up (for example ``spelaudio.engine.train``, which the engine
calls, rather than ``spelaudio.learner.train``), so the program itself is
not edited. A span records its name, start, end, parent and a few counts;
spans stay in a list until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import numpy as np

import spelaudio.dsp
import spelaudio.engine
import spelaudio.experiment
import spelaudio.learner
import spelaudio.synthetic


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _stft_frames(args, kwargs):
    signal, config = _arg(args, kwargs, 0, "signal"), _arg(args, kwargs, 1, "config")
    return {"frames": spelaudio.dsp.frame_count(len(signal), config)}


def _batch_samples(args, kwargs):
    return {"samples": len(_arg(args, kwargs, 1, "batch").inputs)}


def _forward_samples(args, kwargs):
    return {"samples": len(_arg(args, kwargs, 1, "inputs"))}


def _round_index(args, kwargs):
    return {"round": int(_arg(args, kwargs, 4, "j"))}


def _file_path(args, kwargs):
    # Replaced by {"bytes": size} once the call has returned.
    return {"path": _arg(args, kwargs, 0, "path")}


# (module, attribute, span name, counts taken from the call's arguments).
# A function reached through two modules is wrapped at both attributes; each
# wrapper calls the original, so one call never yields two spans.
TARGETS = (
    (spelaudio.experiment, "run_experiment", "experiment.run_experiment", None),
    (spelaudio.experiment, "build_data", "experiment.build_data", None),
    (spelaudio.experiment, "write_results", "experiment.write_results", None),
    (spelaudio.experiment, "sliding_window_predict", "experiment.sliding_window_predict", None),
    (spelaudio.experiment, "gen_synthetic", "synthetic.gen_synthetic", None),
    (spelaudio.experiment, "load_wav", "wavio.load_wav", _file_path),
    (spelaudio.experiment, "preprocess", "dsp.preprocess", None),
    (spelaudio.synthetic, "preprocess", "dsp.preprocess", None),
    (spelaudio.dsp, "stft", "dsp.stft", _stft_frames),
    (spelaudio.experiment, "run_spel", "engine.run_spel", None),
    (spelaudio.engine, "pretrain", "engine.pretrain", None),
    (spelaudio.engine, "spel_round", "engine.spel_round", _round_index),
    (spelaudio.engine, "select_pseudo", "engine.select_pseudo", None),
    (spelaudio.engine, "save_round", "engine.save_round", None),
    (spelaudio.engine, "train", "learner.train", None),
    (spelaudio.learner, "loss_and_grad", "learner.loss_and_grad", _batch_samples),
    (spelaudio.learner, "adam_step", "learner.adam_step", None),
    (spelaudio.learner, "forward", "learner.forward", _forward_samples),
    (spelaudio.engine, "save_params", "learner.save_params", _file_path),
    (spelaudio.engine, "load_params", "learner.load_params", None),
    (spelaudio.learner, "load_params", "learner.load_params", None),
    (spelaudio.engine, "avg_predict", "ensemble.avg_predict", None),
    (spelaudio.experiment, "avg_predict", "ensemble.avg_predict", None),
    (spelaudio.engine, "accuracy", "metrics.accuracy", None),
    (spelaudio.engine, "uar", "metrics.uar", None),
    (spelaudio.experiment, "accuracy", "metrics.accuracy", None),
    (spelaudio.experiment, "uar", "metrics.uar", None),
    (spelaudio.experiment, "mcnemar", "metrics.mcnemar", None),
)


class Tracer:
    """Records spans while entered (``with tracer:``), which swaps every
    target in TARGETS for its wrapper; ``span`` opens one around any block."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name, attrs) -> Span:
        span = Span(name, 0.0, self._stack[-1] if self._stack else None, attrs)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, counts(args, kwargs) if counts else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if span.attrs and "path" in span.attrs:
                span.attrs["bytes"] = os.path.getsize(span.attrs.pop("path"))
            return result

        return wrapper

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, counts in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.duration
    return out


def check_nesting(spans: list[Span], tolerance: float = 1e-9) -> list[str]:
    """Problems found: children that leave their parent's interval, or
    siblings that overlap. An empty list means the trace is well nested."""
    problems = []
    last_end: dict[int | None, float] = {}
    for i, span in enumerate(spans):
        if span.end < span.start:
            problems.append(f"span {i} ({span.name}) ends before it starts")
        if span.parent is not None:
            parent = spans[span.parent]
            if span.start < parent.start - tolerance or span.end > parent.end + tolerance:
                problems.append(f"span {i} ({span.name}) leaves parent {parent.name}")
        if span.start < last_end.get(span.parent, -np.inf) - tolerance:
            problems.append(f"span {i} ({span.name}) overlaps its previous sibling")
        last_end[span.parent] = span.end
    return problems


def write_spans(spans: list[Span], path) -> None:
    """One JSON array per line: name, start, end, parent index."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        for s in spans:
            fh.write(f'["{s.name}",{s.start!r},{s.end!r},{-1 if s.parent is None else s.parent}]\n')
    os.replace(tmp, path)


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer figures from a trace, per timed phase (per op).

    Layers that did no work in this workload read 0.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def durs(name):
        return [spans[i].duration for i in by_name.get(name, ())]

    def busy(name):
        return sum(durs(name))

    def self_sum(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    def count(name, key):
        return sum(spans[i].attrs[key] for i in by_name.get(name, ()))

    def share(num, den):
        return num / den if den else 0.0

    n = max(n_ops, 1)
    m: dict[str, float] = {}
    pre = durs("dsp.preprocess")
    m["dsp.preprocess.calls"] = len(pre) / n
    m["dsp.preprocess.ms_per_clip_p50"] = _pct(pre, 50) * 1e3
    m["dsp.preprocess.ms_per_clip_p99"] = _pct(pre, 99) * 1e3
    m["dsp.preprocess.busy_s"] = sum(pre) / n
    m["dsp.stft.share"] = share(busy("dsp.stft"), sum(pre))
    m["dsp.frames_computed"] = count("dsp.stft", "frames") / n

    loads = durs("wavio.load_wav")
    m["wavio.load_wav.calls"] = len(loads) / n
    m["wavio.load_wav.ms_per_file"] = share(sum(loads), len(loads)) * 1e3
    m["wavio.mb_read"] = count("wavio.load_wav", "bytes") / 1e6 / n

    m["synthetic.gen_synthetic.self_s"] = self_sum("synthetic.gen_synthetic") / n

    grads, steps = durs("learner.loss_and_grad"), durs("learner.adam_step")
    m["learner.steps"] = len(grads) / n
    m["learner.step_us_p50"] = _pct([g + a for g, a in zip(grads, steps)], 50) * 1e6
    m["learner.loss_and_grad.busy_s"] = sum(grads) / n
    m["learner.adam_step.busy_s"] = sum(steps) / n
    m["learner.train.self_s"] = self_sum("learner.train") / n
    m["learner.samples_per_s"] = share(
        count("learner.loss_and_grad", "samples"), busy("learner.train")
    )
    m["learner.forward.calls"] = len(durs("learner.forward")) / n
    m["learner.forward.us_per_sample"] = share(
        busy("learner.forward"), count("learner.forward", "samples")
    ) * 1e6
    m["learner.save_params.busy_s"] = busy("learner.save_params") / n
    m["learner.checkpoint_mb"] = count("learner.save_params", "bytes") / 1e6 / n
    m["learner.load_params.busy_s"] = busy("learner.load_params") / n

    m["ensemble.avg_predict.calls"] = len(durs("ensemble.avg_predict")) / n
    m["ensemble.avg_predict.busy_s"] = busy("ensemble.avg_predict") / n
    m["ensemble.avg_predict.self_s"] = self_sum("ensemble.avg_predict") / n

    m["engine.pretrain.s"] = busy("engine.pretrain") / n
    for j in (1, 2, 3):
        m[f"engine.spel_round.r{j}.s"] = sum(
            spans[i].duration for i in by_name.get("engine.spel_round", ())
            if spans[i].attrs["round"] == j
        ) / n
    m["engine.select_pseudo.ms"] = busy("engine.select_pseudo") * 1e3 / n
    m["engine.save_round.ms"] = busy("engine.save_round") * 1e3 / n

    m["experiment.build_data.s"] = busy("experiment.build_data") / n
    m["experiment.write_results.ms"] = busy("experiment.write_results") * 1e3 / n
    m["experiment.run_experiment.self_s"] = self_sum("experiment.run_experiment") / n
    m["metrics.busy_ms"] = sum(
        busy(name) for name in ("metrics.accuracy", "metrics.uar", "metrics.mcnemar")
    ) * 1e3 / n
    m["trace.spans"] = len(spans) / n
    return m
