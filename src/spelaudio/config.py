"""Experiment configuration: a line-based ``key = value`` format with
``[section]`` headers, chosen for diff-friendliness and zero-dependency
parsing. Full-line comments start with ``#``; unknown sections, unknown
keys, duplicates, and malformed values are all reported with their line
number. An unset key takes the default of the dataclass field it fills.
A key that the chosen source or task does not read is rejected.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .dsp import StftConfig, frame_count
from .engine import SpelConfig
from .learner import LearnerSpec
from .metrics import DEFAULT_METRIC, TASK_METRICS
from .synthetic import DOMAINS, SyntheticSpec

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "config_from_text"]

# The section each data source reads; the other sources' sections are rejected.
SOURCE_SECTIONS = {"synthetic": "synthetic", "wav-dir": "data"}
# Fields run_experiment does not read: where the results go and the sweep's grid.
_UNHASHED = ("output_dir", "sweep_m_grid", "sweep_budget", "sweep_k_max")


class ConfigError(ValueError):
    """Config-file problem, annotated with the offending line number."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings. The data source follows from them: synthetic when a
    synthetic spec is given, else WAV directories, which need both paths.
    The metric defaults to the task's DEFAULT_METRIC."""

    task: str = "multiclass"
    output_dir: Path | None = None
    metric: str | None = None

    stft: StftConfig = field(default_factory=StftConfig)
    n_mels: int = 256
    fmin: float = 0.0
    fmax: float | None = None
    clip_seconds: float = 4.0

    spel: SpelConfig = field(default_factory=SpelConfig)
    hidden_specs: tuple[tuple[int, ...], ...] = ((64,),)
    conv_specs: tuple[tuple[tuple[int, int, int], ...], ...] = ((),)

    synthetic: SyntheticSpec | None = None
    source_dir: Path | None = None
    target_dir: Path | None = None
    train_fraction: float = 0.7
    val_fraction: float = 0.15
    unlabeled_fraction: float = 0.7

    sweep_m_grid: tuple[int, ...] = (50, 100, 150, 200)
    sweep_budget: int = 1000
    sweep_k_max: int | None = None

    def __post_init__(self):
        # The source clips left after train and val are its test split.
        total = self.train_fraction + self.val_fraction
        if total > 1:
            raise ValueError(f"train and val fractions sum to {total}, more than 1")
        if not 0 < self.unlabeled_fraction <= 1:
            raise ValueError("unlabeled_fraction must lie in (0, 1]")
        if self.synthetic is not None and self.synthetic.duration != self.clip_seconds:
            raise ValueError(f"synthetic duration {self.synthetic.duration} != clip_seconds")
        if self.synthetic is not None and self.synthetic.task != self.task:
            raise ValueError(f"synthetic task {self.synthetic.task!r} != task {self.task!r}")
        if self.synthetic is not None and (
            self.source_dir is not None or self.target_dir is not None
        ):
            raise ValueError("synthetic data reads no source_dir or target_dir")
        if self.synthetic is None and (self.source_dir is None or self.target_dir is None):
            raise ValueError("wav-dir data (no synthetic spec) needs source_dir and target_dir")
        if self.task not in TASK_METRICS:
            raise ValueError(f"task must be one of {tuple(TASK_METRICS)}, got {self.task!r}")
        if self.synthetic is None and self.task != "multiclass":
            raise ValueError(f"wav-dir data is multiclass only, not task {self.task!r}")
        if self.metric is None:
            object.__setattr__(self, "metric", DEFAULT_METRIC[self.task])
        if self.metric not in TASK_METRICS[self.task]:
            raise ValueError(
                f"task {self.task!r} scores {TASK_METRICS[self.task]}, not metric {self.metric!r}"
            )

    @property
    def source(self) -> str:
        return "synthetic" if self.synthetic is not None else "wav-dir"

    @property
    def seed(self) -> int:
        return self.spel.seed

    @property
    def config_hash(self) -> str:
        """Hash of the settings a run reads; the fields in _UNHASHED change nothing it does."""
        kept = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _UNHASHED}
        return hashlib.sha256(repr(kept).encode()).hexdigest()[:16]

    def clip_samples(self, sample_rate: int) -> int:
        return int(round(self.clip_seconds * sample_rate))

    def learner_specs(self, input_shape, n_classes: int) -> list[LearnerSpec]:
        """Per-member architectures; hidden/conv groups cycle over the members."""
        return [
            LearnerSpec(
                input_shape=input_shape,
                n_outputs=n_classes,
                hidden_layers=self.hidden_specs[i % len(self.hidden_specs)],
                conv_stem=self.conv_specs[i % len(self.conv_specs)],
                head=self.task,
            )
            for i in range(self.spel.n_members)
        ]


def _parse_lines(text: str):
    """section -> key -> (value, line number); syntax errors carry line numbers."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ConfigError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    return sections


class _Section:
    def __init__(self, name: str, values: dict[str, tuple[str, int]]):
        self.name = name
        self.values = dict(values)
        self.lines = {key: lineno for key, (_, lineno) in values.items()}

    def parsed(self, key, default, parser, kind):
        """The value run through parser. An empty or 'none' value means None
        where the default is None; elsewhere the parser judges it."""
        if key not in self.values:
            return default
        value, lineno = self.values.pop(key)
        if default is None and value.lower() in ("", "none"):
            return None
        try:
            return parser(value)
        except (ValueError, TypeError, KeyError):
            raise ConfigError(f"line {lineno}: [{self.name}] {key} must be {kind}, got {value!r}")

    def str(self, key, default=None):
        return self.parsed(key, default, str, "a string")

    def int(self, key, default=None):
        return self.parsed(key, default, int, "an integer")

    def float(self, key, default=None):
        return self.parsed(key, default, float, "a number")

    def count(self, key, default=None):
        return self.parsed(key, default, _count, "a non-negative integer")

    def positive_int(self, key, default=None):
        return self.parsed(key, default, _positive_int, "a positive integer")

    def positive_float(self, key, default=None):
        return self.parsed(key, default, _positive_float, "a positive number")

    def fraction(self, key, default=None):
        return self.parsed(key, default, _fraction, "a number in [0, 1]")

    def choice(self, key, default, choices, kind=None):
        lookup = {choice: choice for choice in choices}
        return self.parsed(key, default, lookup.__getitem__, kind or f"one of {tuple(choices)}")

    def unset(self, why, *keys):
        """Reject the named keys, or every key left, as not read; why says what rules them out."""
        for key in keys or list(self.values):
            self.choice(key, "", (), kind=f"unset {why}")

    def setting(self, key, value) -> str:
        """'key = value', with its line when this config set it."""
        lineno = self.lines.get(key)
        return f"{key} = {value}" + ("" if lineno is None else f" (line {lineno})")

    def where(self, *keys) -> str:
        """'line N: ' or 'lines N, M: ' for the named keys, or every key, this
        config set; empty when it set none of them."""
        lines = sorted(self.lines[key] for key in keys or self.lines if key in self.lines)
        return f"line{'s' * (len(lines) > 1)} {', '.join(map(str, lines))}: " if lines else ""

    def build(self, factory, **kwargs):
        """factory(**kwargs), its ValueError re-raised naming this section and
        the lines of the keys it set."""
        try:
            return factory(**kwargs)
        except ValueError as err:
            raise ConfigError(f"{self.where()}[{self.name}] {err}") from err

    def finish(self):
        for key, (_, lineno) in self.values.items():
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{self.name}]")


def _in_range(cast, ok):
    """A parser of cast values for which ok holds."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise ValueError(text)
        return value

    return parse


_count = _in_range(int, lambda v: v >= 0)
_positive_int = _in_range(int, lambda v: v >= 1)
_positive_float = _in_range(float, lambda v: 0 < v < float("inf"))
_non_negative_float = _in_range(float, lambda v: 0 <= v < float("inf"))
_fraction = _in_range(float, lambda v: 0 <= v <= 1)


def _positive_int_list(text: str) -> tuple[int, ...]:
    values = tuple(_positive_int(p.strip()) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(text)
    return values


def _parse_groups(value: str, parse_item):
    """';'-separated groups of ','-separated items; an empty or 'none' group is ()."""
    groups = []
    for group in value.split(";"):
        group = group.strip()
        if not group or group.lower() == "none":
            groups.append(())
        else:
            groups.append(tuple(parse_item(p.strip()) for p in group.split(",") if p.strip()))
    return tuple(groups)


def _parse_conv_layer(text: str) -> tuple[int, int, int]:
    dims = text.split("x")
    if len(dims) != 3:
        raise ValueError(text)
    return tuple(_positive_int(d.strip()) for d in dims)


def config_from_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from config text; relative paths resolve
    against base_dir and referenced directories must exist."""
    sections = _parse_lines(text)
    known = {"experiment", "dsp", "spel", "learner", "sweep", *SOURCE_SECTIONS.values()}
    for name in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")

    def section(name):
        return _Section(name, sections.get(name, {}))

    exp = section("experiment")
    source = exp.choice("source", "synthetic", SOURCE_SECTIONS)
    with_source = f"with {exp.setting('source', source)}"
    # wav-dir labels each clip by its class subdirectory.
    tasks = tuple(TASK_METRICS) if source == "synthetic" else ("multiclass",)
    task = exp.choice("task", ExperimentConfig.task, tasks, kind=f"one of {tasks} {with_source}")
    with_task = f"with {exp.setting('task', task)}"
    seed = exp.count("seed", SpelConfig.seed)
    metrics = TASK_METRICS[task]
    kind = f"one of {metrics} {with_task}; per task: {TASK_METRICS}"
    metric = exp.choice("metric", ExperimentConfig.metric, metrics, kind=kind)
    # Only the synthetic generator renders validation clips of either domain.
    if source != "synthetic":
        exp.unset(with_source, "val_domain")
    val_domain = exp.choice("val_domain", SyntheticSpec.val_domain, DOMAINS)
    output_dir = exp.str("output_dir", ExperimentConfig.output_dir)
    exp.finish()
    for name in set(SOURCE_SECTIONS.values()) - {SOURCE_SECTIONS[source]}:
        section(name).unset(with_source)

    dsp = section("dsp")
    stft = dsp.build(
        StftConfig,
        n_fft=dsp.positive_int("n_fft", StftConfig.n_fft),
        hop=dsp.positive_int("hop", StftConfig.hop),
        win_length=dsp.positive_int("win_length", StftConfig.win_length),
    )
    n_mels = dsp.positive_int("n_mels", ExperimentConfig.n_mels)
    fmin = dsp.parsed("fmin", ExperimentConfig.fmin, _non_negative_float, "a non-negative number")
    fmax = dsp.float("fmax", ExperimentConfig.fmax)
    clip_seconds = dsp.positive_float("clip_seconds", ExperimentConfig.clip_seconds)
    dsp.finish()
    if fmax is not None and not fmin < fmax:
        where = dsp.where("fmin", "fmax")
        raise ConfigError(f"{where}[dsp] need fmin < fmax, got fmin = {fmin}, fmax = {fmax}")

    sp = section("spel")
    spel = SpelConfig(
        n_members=sp.positive_int("members", SpelConfig.n_members),
        n_steps=sp.count("steps", SpelConfig.n_steps),
        per_step=sp.positive_int("per_step", SpelConfig.per_step),
        learning_rate=sp.positive_float("learning_rate", SpelConfig.learning_rate),
        pretrain_epochs=sp.positive_int("pretrain_epochs", SpelConfig.pretrain_epochs),
        spel_epochs=sp.positive_int("spel_epochs", SpelConfig.spel_epochs),
        batch_size=sp.positive_int("batch_size", SpelConfig.batch_size),
        seed=seed,
    )
    sp.finish()

    lrn = section("learner")
    hidden_specs = lrn.parsed(
        "hidden",
        ExperimentConfig.hidden_specs,
        lambda v: _parse_groups(v, _positive_int),
        "';'-separated groups of ','-separated positive widths",
    )
    conv_specs = lrn.parsed(
        "conv",
        ExperimentConfig.conv_specs,
        lambda v: _parse_groups(v, _parse_conv_layer),
        "';'-separated groups of ','-separated 'channels x kernel x stride' layers",
    )
    lrn.finish()

    synthetic = None
    if source == "synthetic":
        syn = section("synthetic")
        if task != "multilabel":
            syn.unset(with_task, "label_density")
        synthetic = syn.build(
            SyntheticSpec,
            n_classes=syn.int("classes", SyntheticSpec.n_classes),
            n_source=syn.int("source_samples", SyntheticSpec.n_source),
            n_val=syn.int("val_samples", SyntheticSpec.n_val),
            n_unlabeled=syn.int("unlabeled_samples", SyntheticSpec.n_unlabeled),
            n_test=syn.int("test_samples", SyntheticSpec.n_test),
            base_freq=syn.float("base_freq", SyntheticSpec.base_freq),
            freq_step=syn.float("freq_step", SyntheticSpec.freq_step),
            freq_jitter=syn.float("freq_jitter", SyntheticSpec.freq_jitter),
            n_harmonics=syn.int("harmonics", SyntheticSpec.n_harmonics),
            source_noise=syn.float("source_noise", SyntheticSpec.source_noise),
            target_freq_offset=syn.float("target_offset", SyntheticSpec.target_freq_offset),
            target_noise=syn.float("target_noise", SyntheticSpec.target_noise),
            amp_min=syn.float("amp_min", SyntheticSpec.amp_min),
            amp_max=syn.float("amp_max", SyntheticSpec.amp_max),
            sample_rate=syn.int("sample_rate", SyntheticSpec.sample_rate),
            duration=clip_seconds,
            task=task,
            label_density=syn.float("label_density", SyntheticSpec.label_density),
            val_domain=val_domain,
        )
        syn.finish()
        # The mel band ends at fmax, or at the Nyquist frequency when fmax is unset.
        rate = syn.setting("sample_rate", synthetic.sample_rate)
        nyquist = synthetic.sample_rate / 2
        if fmax is not None and fmax > nyquist:
            raise ConfigError(
                f"{dsp.where('fmax')}[dsp] fmax = {fmax} exceeds the Nyquist frequency "
                f"{nyquist} of [synthetic] {rate}"
            )
        if fmax is None and fmin >= nyquist:
            raise ConfigError(
                f"{dsp.where('fmin')}[dsp] fmin = {fmin} is not below the Nyquist frequency "
                f"{nyquist} of [synthetic] {rate}"
            )
        # Member input geometry, known before any clip is rendered.
        n_frames = dsp.build(frame_count, n_samples=synthetic.clip_samples, config=stft)

    data = section("data")
    source_dir = data.str("source_dir", ExperimentConfig.source_dir)
    target_dir = data.str("target_dir", ExperimentConfig.target_dir)
    train_fraction = data.fraction("train_fraction", ExperimentConfig.train_fraction)
    val_fraction = data.fraction("val_fraction", ExperimentConfig.val_fraction)
    unlabeled_fraction = data.fraction("unlabeled_fraction", ExperimentConfig.unlabeled_fraction)
    data.finish()

    def resolve(p):
        if p is None:
            return None
        path = Path(p)
        if not path.is_absolute() and base_dir is not None:
            path = Path(base_dir) / path
        return path

    source_dir = resolve(source_dir)
    target_dir = resolve(target_dir)
    for label, path in (("source_dir", source_dir), ("target_dir", target_dir)):
        if path is not None and not path.is_dir():
            raise ConfigError(f"{data.where(label)}[data] {label} does not exist: {path}")

    sweep = section("sweep")
    sweep_m_grid = sweep.parsed(
        "m_grid",
        ExperimentConfig.sweep_m_grid,
        _positive_int_list,
        "comma-separated positive integers",
    )
    sweep_budget = sweep.positive_int("budget", ExperimentConfig.sweep_budget)
    sweep_k_max = sweep.positive_int("k_max", ExperimentConfig.sweep_k_max)
    sweep.finish()

    cfg = data.build(
        ExperimentConfig,
        task=task,
        output_dir=resolve(output_dir),
        metric=metric,
        stft=stft,
        n_mels=n_mels,
        fmin=fmin,
        fmax=fmax,
        clip_seconds=clip_seconds,
        spel=spel,
        hidden_specs=hidden_specs,
        conv_specs=conv_specs,
        synthetic=synthetic,
        source_dir=source_dir,
        target_dir=target_dir,
        train_fraction=train_fraction,
        val_fraction=val_fraction,
        unlabeled_fraction=unlabeled_fraction,
        sweep_m_grid=sweep_m_grid,
        sweep_budget=sweep_budget,
        sweep_k_max=sweep_k_max,
    )
    if synthetic is not None:
        lrn.build(cfg.learner_specs, input_shape=(n_frames, n_mels), n_classes=synthetic.n_classes)
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return config_from_text(path.read_text(), base_dir=path.parent)
