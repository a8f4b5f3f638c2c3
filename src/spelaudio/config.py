"""Experiment configuration: a line-based ``key = value`` format with
``[section]`` headers, chosen for diff-friendliness and zero-dependency
parsing. Full-line comments start with ``#``; unknown sections, unknown
keys, duplicates, and malformed values are all reported with their line
number. Defaults are the library's standard settings (batch 16,
learning rate 5e-4, transform 1024/64/512, 256 mel bands, pseudo-label
budget 1000).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from .dsp import StftConfig
from .engine import SpelConfig
from .metrics import DEFAULT_METRIC, TASK_METRICS
from .synthetic import DOMAINS, SyntheticSpec

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "config_from_text"]

SOURCES = ("synthetic", "wav-dir")


class ConfigError(ValueError):
    """Config-file problem, annotated with the offending line number."""


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "multiclass"
    source: str = "synthetic"
    output_dir: Path | None = None
    seed: int = 0
    metric: str = "accuracy"

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
    test_fraction: float = 0.15
    unlabeled_fraction: float = 0.7

    sweep_m_grid: tuple[int, ...] = (50, 100, 150, 200)
    sweep_budget: int = 1000
    sweep_k_max: int | None = None

    raw_text: str = ""

    def __post_init__(self):
        if self.metric not in TASK_METRICS[self.task]:
            tasks = [task for task, names in TASK_METRICS.items() if self.metric in names]
            if not tasks:
                raise ConfigError(f"unknown metric {self.metric!r}; per task: {TASK_METRICS}")
            raise ConfigError(f"metric {self.metric} needs a {' or '.join(tasks)} task")
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"train/val/test fractions sum to {total}, expected 1")
        if not 0 < self.unlabeled_fraction <= 1:
            raise ConfigError("unlabeled_fraction must lie in (0, 1]")

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode()).hexdigest()[:16]

    def clip_samples(self, sample_rate: int) -> int:
        return int(round(self.clip_seconds * sample_rate))


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
        return self.parsed(key, default, _text, "a string")

    def int(self, key, default=None):
        return self.parsed(key, default, int, "an integer")

    def float(self, key, default=None):
        return self.parsed(key, default, float, "a number")

    def choice(self, key, default, choices, kind=None):
        lookup = {choice: choice for choice in choices}
        return self.parsed(key, default, lookup.__getitem__, kind or f"one of {tuple(choices)}")

    def finish(self):
        for key, (_, lineno) in self.values.items():
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{self.name}]")


def _text(text: str) -> str:
    if text.lower() in ("", "none"):
        raise ValueError(text)
    return text


def _int_list(text: str) -> tuple[int, ...]:
    values = tuple(int(p.strip()) for p in text.split(",") if p.strip())
    if not values:
        raise ValueError(text)
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


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
    known = {"experiment", "dsp", "spel", "learner", "synthetic", "data", "sweep"}
    for name in sections:
        if name not in known:
            raise ConfigError(f"unknown section [{name}]")

    def section(name):
        return _Section(name, sections.get(name, {}))

    exp = section("experiment")
    task = exp.choice("task", "multiclass", TASK_METRICS)
    source = exp.choice("source", "synthetic", SOURCES)
    seed = exp.int("seed", 0)
    metric = exp.str("metric", None) or DEFAULT_METRIC[task]
    # Only the synthetic generator renders validation clips of either domain.
    if source == "synthetic":
        val_domain = exp.choice("val_domain", "target", DOMAINS)
    else:
        exp.choice("val_domain", "target", (), kind=f"unset with source = {source}")
    output_dir = exp.str("output_dir", None)
    exp.finish()

    dsp = section("dsp")
    stft = StftConfig(
        n_fft=dsp.int("n_fft", 1024),
        hop=dsp.int("hop", 64),
        win_length=dsp.int("win_length", 512),
    )
    n_mels = dsp.int("n_mels", 256)
    fmin = dsp.float("fmin", 0.0)
    fmax = dsp.float("fmax", None)
    clip_seconds = dsp.float("clip_seconds", 4.0)
    dsp.finish()

    sp = section("spel")
    spel = SpelConfig(
        n_members=sp.int("members", 5),
        n_steps=sp.int("steps", 3),
        per_step=sp.int("per_step", 50),
        learning_rate=sp.float("learning_rate", 5e-4),
        pretrain_epochs=sp.int("pretrain_epochs", 10),
        spel_epochs=sp.int("spel_epochs", None),
        batch_size=sp.int("batch_size", 16),
        seed=seed,
        pseudo_budget=sp.int("pseudo_budget", 1000),
    )
    sp.finish()

    lrn = section("learner")
    hidden_specs = lrn.parsed(
        "hidden",
        ((64,),),
        lambda v: _parse_groups(v, _positive_int),
        "';'-separated groups of ','-separated positive widths",
    )
    conv_specs = lrn.parsed(
        "conv",
        ((),),
        lambda v: _parse_groups(v, _parse_conv_layer),
        "';'-separated groups of ','-separated 'channels x kernel x stride' layers",
    )
    lrn.finish()

    synthetic = None
    if source == "synthetic":
        syn = section("synthetic")
        synthetic = SyntheticSpec(
            n_classes=syn.int("classes", 6),
            n_source=syn.int("source_samples", 1200),
            n_val=syn.int("val_samples", 300),
            n_unlabeled=syn.int("unlabeled_samples", 600),
            n_test=syn.int("test_samples", 600),
            base_freq=syn.float("base_freq", 400.0),
            freq_step=syn.float("freq_step", 180.0),
            freq_jitter=syn.float("freq_jitter", 0.0),
            n_harmonics=syn.int("harmonics", 2),
            source_noise=syn.float("source_noise", 0.05),
            target_freq_offset=syn.float("target_offset", 60.0),
            target_noise=syn.float("target_noise", 0.30),
            amp_min=syn.float("amp_min", 0.85),
            amp_max=syn.float("amp_max", 1.0),
            sample_rate=syn.int("sample_rate", 8000),
            duration=syn.float("duration", 0.3),
            task=task,
            label_density=syn.float("label_density", 0.3),
            val_domain=val_domain,
        )
        syn.finish()
    elif "synthetic" in sections:
        raise ConfigError("[synthetic] section given but source is not 'synthetic'")

    data = section("data")
    source_dir = data.str("source_dir", None)
    target_dir = data.str("target_dir", None)
    train_fraction = data.float("train_fraction", 0.7)
    val_fraction = data.float("val_fraction", 0.15)
    test_fraction = data.float("test_fraction", 0.15)
    unlabeled_fraction = data.float("unlabeled_fraction", 0.7)
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
    if source == "wav-dir":
        if source_dir is None or target_dir is None:
            raise ConfigError("wav-dir mode needs [data] source_dir and target_dir")
        for label, path in (("source_dir", source_dir), ("target_dir", target_dir)):
            if not path.is_dir():
                raise ConfigError(f"[data] {label} does not exist: {path}")

    sweep = section("sweep")
    sweep_m_grid = sweep.parsed(
        "m_grid", (50, 100, 150, 200), _int_list, "a comma-separated integer list"
    )
    sweep_budget = sweep.int("budget", 1000)
    sweep_k_max = sweep.int("k_max", None)
    sweep.finish()

    return ExperimentConfig(
        task=task,
        source=source,
        output_dir=resolve(output_dir),
        seed=seed,
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
        test_fraction=test_fraction,
        unlabeled_fraction=unlabeled_fraction,
        sweep_m_grid=sweep_m_grid,
        sweep_budget=sweep_budget,
        sweep_k_max=sweep_k_max,
        raw_text=text,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return config_from_text(path.read_text(), base_dir=path.parent)
