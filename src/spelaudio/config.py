"""Experiment configuration: a line-based ``key = value`` format with
``[section]`` headers, chosen for diff-friendliness and zero-dependency
parsing. Full-line comments start with ``#``; unknown sections, unknown
keys, duplicates, and malformed values are all reported with their line
number. One table, ``_KEYS``, names each key once: its section, the field
it fills, its parser and what a value must be. An unset key takes the
default of the dataclass field it fills. A key that the chosen source or
task does not read is rejected. ``canonical`` writes a config back as the
text of the keys it reads, and ``config_hash`` hashes that text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

from .dsp import MelFilterbank, StftConfig, frame_count, mel_filterbank
from .engine import SpelConfig
from .learner import LearnerSpec
from .metrics import DEFAULT_METRIC, TASK_METRICS
from .synthetic import DOMAINS, SyntheticSpec

__all__ = ["ConfigError", "ExperimentConfig", "canonical", "config_from_text", "load_config"]


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
        # Every m_grid entry makes at least one (per_step, steps) pair.
        grid, budget, k_max = self.sweep_m_grid, self.sweep_budget, self.sweep_k_max
        if budget < 1 or (k_max is not None and k_max < 1):
            raise ValueError(f"sweep budget and k_max must be >= 1, got {budget} and {k_max}")
        if not grid or not all(1 <= m <= budget for m in grid):
            raise ValueError(f"sweep m_grid entries must lie in [1, budget = {budget}], got {grid}")
        if len(set(grid)) != len(grid):  # a repeated entry would run its pairs twice
            raise ValueError(f"sweep m_grid entries must be distinct, got {grid}")

    @property
    def source(self) -> str:
        return "synthetic" if self.synthetic is not None else "wav-dir"

    @property
    def seed(self) -> int:
        return self.spel.seed

    @property
    def config_hash(self) -> str:
        """Hash of the canonical text of the keys a run reads."""
        return hashlib.sha256(canonical(self, run_only=True).encode()).hexdigest()[:16]

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

    def filterbank_at(self, rate: int, rate_from: str,
                      where=lambda section, key: "") -> MelFilterbank:
        """The mel filterbank at sample rate rate, once the mel band, the clip
        length and the member input shape that the rate fixes are checked.
        A failed check raises a ConfigError naming the setting's lines, as
        where(section, key) gives them, rate_from (where the rate came from),
        the setting as config text, and the reason. Members are checked at
        two classes, the fewest any data source has."""
        band = "fmin" if self.fmax is None else "fmax"
        setting = ("dsp", band, getattr(self, band))  # the one the next step checks
        try:
            fb = mel_filterbank(self.n_mels, self.stft.n_fft, rate, self.fmin, self.fmax)
            setting = ("dsp", "clip_seconds", self.clip_seconds)
            n_frames = frame_count(self.clip_samples(rate), self.stft)
            setting = ("learner", "conv", self.conv_specs)
            self.learner_specs((n_frames, self.n_mels), 2)
        except ValueError as err:
            section, key, value = setting
            raise ConfigError(
                f"{where(section, key)}{rate_from}: [{section}] {key} = {_text(value)}: {err}"
            ) from err
        return fb


def _in_range(cast, ok):
    """A parser of cast values for which ok holds."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise ValueError(text)
        return value

    return parse


def _one_of(choices):
    """A parser of the choices, and its kind."""
    choices = tuple(choices)
    return {choice: choice for choice in choices}.__getitem__, f"one of {choices}"


def _groups(parse_item):
    """A parser of ';'-separated groups of ','-separated items; an empty or
    'none' group is ()."""

    def parse(text: str):
        groups = (group.strip() for group in text.split(";"))
        return tuple(
            tuple(parse_item(p) for p in group.split(",") if p.strip())
            if group.lower() not in ("", "none") else ()
            for group in groups
        )

    return parse


def _directory(text: str) -> Path:
    """A path that must name a directory once resolved."""
    return Path(text)


_positive_int = _in_range(int, lambda v: v >= 1)
_conv_layer = _in_range(lambda t: tuple(map(_positive_int, t.split("x"))), lambda v: len(v) == 3)
# Parsers with the kind of value they accept. Numbers are finite.
_INT = (int, "an integer")
_COUNT = (_in_range(int, lambda v: v >= 0), "a non-negative integer")
_POSITIVE_INT = (_positive_int, "a positive integer")
_NUMBER = (_in_range(float, math.isfinite), "a finite number")
_NON_NEGATIVE = (_in_range(float, lambda v: 0 <= v < math.inf), "a non-negative number")
_POSITIVE = (_in_range(float, lambda v: 0 < v < math.inf), "a positive number")
_FRACTION = (_in_range(float, lambda v: 0 <= v <= 1), "a number in [0, 1]")
_GRID = (
    _in_range(lambda t: tuple(_positive_int(p) for p in t.split(",") if p.strip()),
              lambda v: 0 < len(v) == len(set(v))),
    "distinct comma-separated positive integers",
)

# Every key: (section, key, field it fills, parser, kind). A field is an
# ExperimentConfig attribute, dotted into the dataclass that holds it; the
# source's field is a property, which says whether a synthetic spec is set.
_KEYS = (
    ("experiment", "source", "source", *_one_of(("synthetic", "wav-dir"))),
    ("experiment", "task", "task", *_one_of(TASK_METRICS)),
    ("experiment", "seed", "spel.seed", *_COUNT),
    ("experiment", "metric", "metric", str, "a metric the task scores"),
    ("experiment", "val_domain", "synthetic.val_domain", *_one_of(DOMAINS)),
    ("experiment", "output_dir", "output_dir", Path, "a path"),
    ("dsp", "n_fft", "stft.n_fft", *_POSITIVE_INT),
    ("dsp", "hop", "stft.hop", *_POSITIVE_INT),
    ("dsp", "win_length", "stft.win_length", *_POSITIVE_INT),
    ("dsp", "n_mels", "n_mels", *_POSITIVE_INT),
    ("dsp", "fmin", "fmin", *_NON_NEGATIVE),
    ("dsp", "fmax", "fmax", *_NUMBER),
    ("dsp", "clip_seconds", "clip_seconds", *_POSITIVE),
    ("spel", "members", "spel.n_members", *_POSITIVE_INT),
    ("spel", "steps", "spel.n_steps", *_COUNT),
    ("spel", "per_step", "spel.per_step", *_POSITIVE_INT),
    ("spel", "learning_rate", "spel.learning_rate", *_POSITIVE),
    ("spel", "pretrain_epochs", "spel.pretrain_epochs", *_POSITIVE_INT),
    ("spel", "spel_epochs", "spel.spel_epochs", *_POSITIVE_INT),
    ("spel", "batch_size", "spel.batch_size", *_POSITIVE_INT),
    (
        "learner", "hidden", "hidden_specs", _groups(_positive_int),
        "';'-separated groups of ','-separated positive widths",
    ),
    (
        "learner", "conv", "conv_specs", _groups(_conv_layer),
        "';'-separated groups of ','-separated 'channels x kernel x stride' layers",
    ),
    ("synthetic", "classes", "synthetic.n_classes", *_INT),
    ("synthetic", "source_samples", "synthetic.n_source", *_INT),
    ("synthetic", "val_samples", "synthetic.n_val", *_INT),
    ("synthetic", "unlabeled_samples", "synthetic.n_unlabeled", *_INT),
    ("synthetic", "test_samples", "synthetic.n_test", *_INT),
    ("synthetic", "base_freq", "synthetic.base_freq", *_NUMBER),
    ("synthetic", "freq_step", "synthetic.freq_step", *_NUMBER),
    ("synthetic", "freq_jitter", "synthetic.freq_jitter", *_NUMBER),
    ("synthetic", "harmonics", "synthetic.n_harmonics", *_INT),
    ("synthetic", "source_noise", "synthetic.source_noise", *_NUMBER),
    ("synthetic", "target_offset", "synthetic.target_freq_offset", *_NUMBER),
    ("synthetic", "target_noise", "synthetic.target_noise", *_NUMBER),
    ("synthetic", "amp_min", "synthetic.amp_min", *_NUMBER),
    ("synthetic", "amp_max", "synthetic.amp_max", *_NUMBER),
    ("synthetic", "sample_rate", "synthetic.sample_rate", *_INT),
    ("synthetic", "label_density", "synthetic.label_density", *_NUMBER),
    ("data", "source_dir", "source_dir", _directory, "a directory"),
    ("data", "target_dir", "target_dir", _directory, "a directory"),
    ("data", "train_fraction", "train_fraction", *_FRACTION),
    ("data", "val_fraction", "val_fraction", *_FRACTION),
    ("data", "unlabeled_fraction", "unlabeled_fraction", *_FRACTION),
    ("sweep", "m_grid", "sweep_m_grid", *_GRID),
    ("sweep", "budget", "sweep_budget", *_POSITIVE_INT),
    ("sweep", "k_max", "sweep_k_max", *_POSITIVE_INT),
)
# The dataclass that holds each field, by the field's dotted prefix.
_OWNERS = {"": ExperimentConfig, "stft": StftConfig, "spel": SpelConfig, "synthetic": SyntheticSpec}

# Keys read only while an [experiment] setting (a key that is also its
# field) has one value: (section, key, setting, value), where key None
# stands for every key of the section. Set otherwise, the key is rejected.
_READ_ONLY_WITH = (
    ("synthetic", None, "source", "synthetic"),
    ("data", None, "source", "wav-dir"),
    ("experiment", "val_domain", "source", "synthetic"),
    ("synthetic", "label_density", "task", "multilabel"),
)
# Keys no run reads, which its hash leaves out: where the results go, and
# which runs a sweep makes.
_OUTSIDE_A_RUN = (("experiment", "output_dir"), ("sweep", None))


def _names(rule, section: str, key: str) -> bool:
    """Whether a rule's (section, key or None for all of it) names this key."""
    return rule[0] == section and rule[1] in (None, key)


def _unread_with(section: str, key: str, value_of) -> str | None:
    """The setting under which this key is not read, or None when it is read."""
    for rule in _READ_ONLY_WITH:
        if _names(rule, section, key) and value_of(rule[2]) != rule[3]:
            return rule[2]
    return None


class _Text(dict):
    """(section, key) -> (value, line number) of the keys a config text set.
    Syntax errors, unknown sections and unknown keys name their line."""

    def __init__(self, text: str):
        super().__init__()
        known = {row[:2] for row in _KEYS}
        sections = {section for section, _ in known}
        section = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if not section:
                    raise ConfigError(f"line {lineno}: empty section name")
                if section not in sections:
                    raise ConfigError(f"line {lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            if section is None:
                raise ConfigError(f"line {lineno}: key outside any [section]")
            key, _, value = (part.strip() for part in line.partition("="))
            if not key:
                raise ConfigError(f"line {lineno}: missing key before '='")
            if (section, key) in self:
                raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
            if (section, key) not in known:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
            self[section, key] = (value, lineno)

    def setting(self, section: str, key: str, value) -> str:
        """'key = value', with its line when this config set it."""
        lineno = self.get((section, key), (None, None))[1]
        return f"{key} = {value}" + ("" if lineno is None else f" (line {lineno})")

    def where(self, section: str, *keys: str) -> str:
        """'line N: ' or 'lines N, M: ' for the named keys, or every key, this
        config set in section; empty when it set none of them."""
        lines = sorted(
            lineno for (s, key), (_, lineno) in self.items()
            if s == section and (not keys or key in keys)
        )
        return f"line{'s' * (len(lines) > 1)} {', '.join(map(str, lines))}: " if lines else ""

    def reject(self, section: str, key: str, kind: str):
        value, lineno = self[section, key]
        raise ConfigError(f"line {lineno}: [{section}] {key} must be {kind}, got {value!r}")

    def build(self, section: str, factory, **kwargs):
        """factory(**kwargs), its ValueError re-raised naming section and the
        lines of the keys this config set there."""
        try:
            return factory(**kwargs)
        except ValueError as err:
            raise ConfigError(f"{self.where(section)}[{section}] {err}") from err


def config_from_text(text: str, base_dir: Path | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from config text. Relative paths resolve
    against base_dir, else the working directory; [data] directories must exist."""
    given = _Text(text)
    parts = {owner: {} for owner in _OWNERS}
    run = parts[""]
    for section, key, name, parser, kind in _KEYS:
        owner, _, attr = name.rpartition(".")
        # The default of the field a key fills; an empty config is synthetic.
        default = "synthetic" if name == "source" else getattr(_OWNERS[owner], attr)
        parts[owner][attr] = default
        if (section, key) not in given:
            continue
        setting = _unread_with(section, key, run.get)
        if setting is not None:
            rule = given.setting("experiment", setting, run[setting])
            given.reject(section, key, f"unset with {rule}")
        value, lineno = given[section, key]
        if default is None and value.lower() in ("", "none"):
            continue
        try:
            value = parser(value)
        except (ValueError, TypeError, KeyError):
            given.reject(section, key, kind)
        if isinstance(value, Path):
            value = (Path(base_dir or ".") / value).resolve()
            if parser is _directory and not value.is_dir():
                raise ConfigError(f"line {lineno}: [{section}] {key} does not exist: {value}")
        parts[owner][attr] = value

    # wav-dir labels each clip by its class subdirectory.
    source, task = run.pop("source"), run["task"]
    tasks = tuple(TASK_METRICS) if source == "synthetic" else ("multiclass",)
    if task not in tasks:
        with_source = given.setting("experiment", "source", source)
        given.reject("experiment", "task", f"one of {tasks} with {with_source}")
    metrics = TASK_METRICS[task]
    if run["metric"] not in (None, *metrics):
        with_task = given.setting("experiment", "task", task)
        kind = f"one of {metrics} with {with_task}; per task: {TASK_METRICS}"
        given.reject("experiment", "metric", kind)

    # Checked before ExperimentConfig refuses it, so the error names [sweep].
    top, budget = max(run["sweep_m_grid"]), run["sweep_budget"]
    if top > budget:
        where = given.where("sweep", "m_grid", "budget")
        raise ConfigError(
            f"{where}[sweep] m_grid entry {top} exceeds budget = {budget}, so it makes no run"
        )
    stft = given.build("dsp", StftConfig, **parts["stft"])
    synthetic = None
    if source == "synthetic":
        spec = {**parts["synthetic"], "duration": run["clip_seconds"], "task": task}
        synthetic = given.build("synthetic", SyntheticSpec, **spec)
    spel = SpelConfig(**parts["spel"])
    cfg = given.build("data", ExperimentConfig, **run, stft=stft, spel=spel, synthetic=synthetic)

    fmin, fmax = cfg.fmin, cfg.fmax
    if fmax is not None and not fmin < fmax:
        where = given.where("dsp", "fmin", "fmax")
        raise ConfigError(f"{where}[dsp] need fmin < fmax, got fmin = {fmin}, fmax = {fmax}")
    if synthetic is not None:
        # The rate is known before any clip is rendered.
        rate = given.setting("synthetic", "sample_rate", synthetic.sample_rate)
        cfg.filterbank_at(synthetic.sample_rate, f"[synthetic] {rate}", given.where)
    return cfg


def _text(value) -> str:
    """A parsed value in the config language, which its parser reads back."""
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    if not isinstance(value, tuple):
        return str(value)
    if all(isinstance(item, int) for item in value):  # the sweep grid
        return ",".join(map(str, value))
    # Member groups of hidden widths, or of conv layers (channels x kernel x stride).
    return "; ".join(
        ",".join("x".join(map(str, i)) if isinstance(i, tuple) else str(i) for i in group) or "none"
        for group in value
    )


def canonical(cfg: ExperimentConfig, run_only: bool = False) -> str:
    """cfg as config text: every key the parser reads for its source and
    task, in section order, one per line, so that config_from_text reads it
    back to cfg. Floats are written by repr, paths as resolved at parse, and
    'none' marks an unset optional key. run_only leaves out the keys no run
    reads; that text is what config_hash hashes and summary.json carries."""

    def value_of(name):
        return reduce(getattr, name.split("."), cfg)

    lines, current = [], None
    for section, key, name, _, _ in _KEYS:
        if _unread_with(section, key, value_of) or (
            run_only and any(_names(rule, section, key) for rule in _OUTSIDE_A_RUN)
        ):
            continue
        if section != current:
            lines.append(f"[{section}]")
            current = section
        lines.append(f"{key} = {_text(value_of(name))}")
    return "\n".join(lines) + "\n"


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return config_from_text(path.read_text(), base_dir=path.parent)
