import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from spelaudio import config
from spelaudio.config import ConfigError, ExperimentConfig, config_from_text, load_config
from spelaudio.dsp import Signal
from spelaudio.engine import _STAGE_SETTINGS
from spelaudio.experiment import (
    benchmark_config,
    benchmark_config_text,
    build_data,
    build_learner_specs,
    enumerate_grid,
)
from spelaudio.metrics import DEFAULT_METRIC
from spelaudio.synthetic import SyntheticSpec
from spelaudio.wavio import write_wav

from test_data_golden import _digests

README = Path(__file__).resolve().parents[1] / "README.md"

FULL = """\
[experiment]
task = multiclass
source = synthetic
seed = 11
output_dir = out

[dsp]
n_fft = 256
hop = 64
win_length = 128
n_mels = 24
clip_seconds = 0.5

[spel]
members = 3
steps = 2
per_step = 25
learning_rate = 0.002
pretrain_epochs = 4
batch_size = 8

[learner]
hidden = 32,16; 24
conv = none; 4x3x2

[synthetic]
classes = 4
source_samples = 80
val_samples = 20
unlabeled_samples = 40
test_samples = 40
sample_rate = 4000
base_freq = 300
freq_step = 220
harmonics = 1
"""


class TestParsing:
    def test_full_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(FULL)
        cfg = load_config(path)
        assert cfg.seed == cfg.spel.seed == 11
        assert cfg.stft.n_fft == 256 and cfg.stft.hop == 64
        assert cfg.n_mels == 24
        assert cfg.spel.n_members == 3
        assert cfg.spel.per_step == 25
        assert cfg.hidden_specs == ((32, 16), (24,))
        assert cfg.conv_specs == ((), ((4, 3, 2),))
        assert cfg.synthetic.n_classes == 4
        assert cfg.synthetic.task == "multiclass"
        assert cfg.output_dir == tmp_path / "out"
        assert cfg.metric == "accuracy"  # default for multiclass

    def test_standard_defaults(self):
        cfg = config_from_text("[experiment]\ntask = multiclass\n")
        assert cfg.stft.n_fft == 1024
        assert cfg.stft.hop == 64
        assert cfg.stft.win_length == 512
        assert cfg.n_mels == 256
        assert cfg.spel.batch_size == 16
        assert cfg.spel.learning_rate == 5e-4
        assert cfg.spel.spel_epochs == 3
        assert cfg.sweep_m_grid == (50, 100, 150, 200)
        assert cfg.sweep_budget == 1000

    def test_empty_config_is_the_default_built_config(self):
        """Every key's default is its dataclass field's, and the synthetic
        clip length agrees with clip_seconds."""
        assert config_from_text("") == ExperimentConfig(synthetic=SyntheticSpec())

    def test_multilabel_default_metric(self):
        cfg = config_from_text("[experiment]\ntask = multilabel\n")
        assert cfg.metric == "wlrap"
        assert cfg.synthetic.task == "multilabel"

    def test_config_hash_stable(self):
        a = config_from_text(FULL.replace("output_dir = out\n", ""))
        b = config_from_text(FULL.replace("output_dir = out\n", ""))
        assert a.config_hash == b.config_hash
        c = config_from_text(FULL.replace("output_dir = out\n", "").replace("seed = 11", "seed = 12"))
        assert c.config_hash != a.config_hash
        # The hash is of the values, not of the text: a comment changes neither
        # the config nor its hash, and neither does where the results go.
        commented = config_from_text(FULL.replace("output_dir = out\n", "") + "# a note\n")
        assert commented == a and commented.config_hash == a.config_hash
        assert config_from_text(FULL).config_hash == a.config_hash
        bench = benchmark_config(0)
        edited = dataclasses.replace(
            bench, spel=dataclasses.replace(bench.spel, n_members=1, per_step=7)
        )
        assert edited.config_hash != bench.config_hash
        # run_experiment reads none of the [sweep] keys.
        swept = dataclasses.replace(bench, sweep_budget=70, sweep_m_grid=(10,))
        assert swept.config_hash == bench.config_hash
        stepped = dataclasses.replace(swept, spel=dataclasses.replace(bench.spel, per_step=7))
        assert stepped.config_hash != bench.config_hash

    def test_the_seed_has_one_owner(self):
        """The data and the training read one seed, the [spel] run seed."""
        cfg = config_from_text(FULL)
        assert "seed" not in {f.name for f in dataclasses.fields(cfg)}
        moved = dataclasses.replace(cfg, spel=dataclasses.replace(cfg.spel, seed=5))
        assert moved.seed == 5
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, seed=5)

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        synthetic, wav = (block.split("```", 1)[0] for block in readme.split("```ini\n")[1:])
        cfg = config_from_text(synthetic)
        assert cfg.spel.spel_epochs == 4 and cfg.spel.per_step == 50
        assert cfg.hidden_specs == ((64, 32),)
        assert cfg.conv_specs == (((8, 3, 2), (16, 3, 2)),)
        assert cfg.synthetic.val_domain == "target"
        assert cfg.synthetic.duration == cfg.clip_seconds == 0.3
        assert cfg.sweep_m_grid == (50, 100, 150, 200)
        for name in ("source", "target"):
            (tmp_path / "corpora" / name).mkdir(parents=True)
        cfg = config_from_text(wav, base_dir=tmp_path)
        assert cfg.source == "wav-dir" and cfg.synthetic is None
        assert cfg.target_dir == tmp_path / "corpora" / "target"

    def test_benchmark_template_parses(self):
        cfg = config_from_text(benchmark_config_text(3))
        assert cfg.seed == 3
        assert cfg.spel.n_members == 5
        assert cfg.spel.n_steps == 3
        assert cfg.spel.per_step == 50
        assert cfg.synthetic.n_source == 1200


class TestErrors:
    def test_unknown_key_reports_line(self):
        text = "[experiment]\ntask = multiclass\nbogus_key = 1\n"
        with pytest.raises(ConfigError, match="line 3"):
            config_from_text(text)

    def test_bad_value_reports_line(self):
        text = "[experiment]\nseed = not_a_number\n"
        with pytest.raises(ConfigError, match="line 2"):
            config_from_text(text)

    def test_duplicate_key_reports_line(self):
        text = "[experiment]\nseed = 1\nseed = 2\n"
        with pytest.raises(ConfigError, match="line 3.*duplicate"):
            config_from_text(text)

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="line 1"):
            config_from_text("task = multiclass\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            config_from_text("[wat]\nx = 1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            config_from_text("[experiment]\ntask multiclass\n")

    def test_metric_task_mismatch(self):
        with pytest.raises(ConfigError, match="multilabel"):
            config_from_text("[experiment]\ntask = multiclass\nmetric = wlrap\n")

    def test_fractions_must_sum_to_one(self, tmp_path):
        """The source test split is what train and val leave, so those two
        may take at most all of it."""
        (tmp_path / "src").mkdir()
        (tmp_path / "tgt").mkdir()
        text = (
            "[experiment]\nsource = wav-dir\n"
            "[data]\n"
            f"source_dir = {tmp_path / 'src'}\n"
            f"target_dir = {tmp_path / 'tgt'}\n"
            "train_fraction = 0.6\nval_fraction = 0.5\n"
        )
        with pytest.raises(ConfigError, match="train and val fractions sum to 1.1, more than 1"):
            config_from_text(text)
        cfg = config_from_text(text.replace("val_fraction = 0.5", "val_fraction = 0.4"))
        assert (cfg.train_fraction, cfg.val_fraction) == (0.6, 0.4)

    def test_wav_dir_paths_must_exist(self, tmp_path):
        text = (
            "[experiment]\nsource = wav-dir\n"
            "[data]\n"
            f"source_dir = {tmp_path / 'missing'}\n"
            f"target_dir = {tmp_path / 'also_missing'}\n"
        )
        with pytest.raises(ConfigError, match="does not exist"):
            config_from_text(text)

    def test_wav_dir_requires_paths(self):
        with pytest.raises(ConfigError, match="source_dir"):
            config_from_text("[experiment]\nsource = wav-dir\n")

    def test_synthetic_section_requires_synthetic_source(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "tgt").mkdir()
        text = (
            "[experiment]\nsource = wav-dir\n"
            "[data]\n"
            f"source_dir = {tmp_path / 'src'}\n"
            f"target_dir = {tmp_path / 'tgt'}\n"
            "[synthetic]\nclasses = 3\n"
        )
        with pytest.raises(ConfigError, match="synthetic"):
            config_from_text(text)

    def test_bad_conv_shape(self):
        with pytest.raises(ConfigError, match="channels x kernel x stride"):
            config_from_text("[experiment]\ntask = multiclass\n[learner]\nconv = 4x3\n")

    @pytest.mark.parametrize(
        "line",
        [
            "hidden = a,b",
            "hidden = 0",
            "hidden = 16;-2",
            "conv = 4x8",
            "[dsp] n_fft = none",
            "[dsp] hop =",
            "[spel] members = none",
            "[synthetic] freq_jitter = none",
            "[synthetic] freq_jitter = nan",
            "[synthetic] target_noise = nan",
            "[experiment] seed = none",
            "[sweep] m_grid =",
            "[experiment] task = bogus",
            "[experiment] source = bogus",
            "[experiment] val_domain = bogus",
            "[experiment] val_domain = target\nsource = wav-dir",
            "[spel] learning_rate = -1",
            "[dsp] n_mels = 0",
            "[dsp] clip_seconds = -1",
            "[dsp] fmin = -1",
            "[dsp] hop = 0",
            "[spel] members = 0",
            "[spel] steps = -1",
            "[experiment] seed = -1",
            "[experiment] metric = wlrap",
            "[sweep] budget = 0",
            "[sweep] k_max = 0",
            "[sweep] m_grid = 10,0",
            "[sweep] m_grid = 10,10",
            "[synthetic] label_density = 0.5",
            "[data] source_dir = nowhere",
        ],
    )
    def test_bad_learner_layers_report_line(self, line):
        """A bad value, or none/empty where the default is a value, names its
        line; the section is [learner] unless the case names another, and
        lines after the first follow the bad one."""
        section, _, assignment = line.rpartition("] ")
        section = section.lstrip("[") or "learner"
        text = f"# the bad value is on line 4\n\n[{section}]\n{assignment}\n"
        key = assignment.split()[0]
        with pytest.raises(ConfigError, match=rf"line 4: \[{section}\] {key} must be"):
            config_from_text(text)

    def test_optional_keys_accept_none(self):
        text = (
            "[experiment]\nmetric = none\noutput_dir = none\n"
            "[dsp]\nfmax = none\n[sweep]\nk_max = none\n"
        )
        cfg = config_from_text(text)
        assert cfg.metric == "accuracy"
        assert cfg.output_dir is None and cfg.fmax is None
        assert cfg.sweep_k_max is None
        # spel_epochs has a plain default and no 'none'.
        message = r"line 9: \[spel\] spel_epochs must be a positive integer, got 'none'"
        with pytest.raises(ConfigError, match=message):
            config_from_text(text + "[spel]\nspel_epochs = none\n")

    def test_none_hidden_group_is_a_linear_member(self):
        cfg = config_from_text("[learner]\nhidden = none\n")
        assert cfg.hidden_specs == ((),)

    @pytest.mark.parametrize("budget, lines", [("budget = 1000\n", "lines 2, 3"), ("", "line 2")])
    def test_grid_entry_above_the_budget_names_its_lines(self, budget, lines):
        """An m_grid entry above the budget makes no (per_step, steps) pair."""
        text = f"[sweep]\nm_grid = 50,2000\n{budget}"
        message = rf"^{lines}: \[sweep\] m_grid entry 2000 exceeds budget = 1000"
        with pytest.raises(ConfigError, match=message):
            config_from_text(text)
        assert config_from_text(text.replace("2000", "1000")).sweep_m_grid == (50, 1000)

    def test_comments_and_blanks_ignored(self):
        text = "# top comment\n\n[experiment]\n# inner\ntask = multiclass\n"
        assert config_from_text(text).task == "multiclass"


def _wav_dirs(tmp_path):
    for name in ("src", "tgt"):
        (tmp_path / name).mkdir()
    return "[experiment]\nsource = wav-dir\n[data]\nsource_dir = src\ntarget_dir = tgt\n"


_GRID_RANGE = r"sweep m_grid entries must lie in \[1, budget = 1000\]"


class TestDataclassErrors:
    @pytest.mark.parametrize(
        "line",
        [
            "[dsp] n_fft = 1000",
            "[dsp] hop = 600",
            "[synthetic] classes = 1",
            "[synthetic] source_noise = -1",
        ],
    )
    def test_dataclass_errors_report_section_and_line(self, line):
        section, _, assignment = line.partition(" ")
        text = f"# the bad value is on line 4\n\n{section}\n{assignment}\n"
        with pytest.raises(ConfigError, match=rf"^line 4: {re.escape(section)} ") as err:
            config_from_text(text)
        assert isinstance(err.value.__cause__, ValueError)

    @pytest.mark.parametrize(
        "fractions, message",
        [
            (
                "train_fraction = 0.6\nval_fraction = 0.5",
                r"lines 4, 5, 6, 7: \[data\] train and val fractions sum to 1.1, more than 1",
            ),
            ("unlabeled_fraction = 0", r"lines 4, 5, 6: \[data\] unlabeled_fraction must lie in"),
        ],
    )
    def test_experiment_config_errors_report_data_lines(self, tmp_path, fractions, message):
        with pytest.raises(ConfigError, match=message):
            config_from_text(_wav_dirs(tmp_path) + fractions + "\n", base_dir=tmp_path)

    def test_fractions_outside_unit_interval_report_line(self, tmp_path):
        """-0.2 + 0.6 is below 1, and used to give overlapping splits."""
        text = "train_fraction = -0.2\nval_fraction = 0.6\n"
        message = r"line 6: \[data\] train_fraction must be a number in \[0, 1\]"
        with pytest.raises(ConfigError, match=message):
            config_from_text(_wav_dirs(tmp_path) + text, base_dir=tmp_path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"sweep_m_grid": ()}, rf"^{_GRID_RANGE}, got \(\)$"),
            ({"sweep_m_grid": (0,)}, rf"^{_GRID_RANGE}, got \(0,\)$"),
            ({"sweep_m_grid": (5000,)}, rf"^{_GRID_RANGE}, got \(5000,\)$"),
            ({"sweep_m_grid": (10, 10)}, r"^sweep m_grid entries must be distinct, got \(10, 10\)$"),
            ({"sweep_budget": 0}, r"^sweep budget and k_max must be >= 1, got 0 and None$"),
            ({"sweep_k_max": 0}, r"^sweep budget and k_max must be >= 1, got 1000 and 0$"),
        ],
        ids=[
            "empty-grid", "zero-entry", "entry-above-budget", "duplicate-entry", "zero-budget",
            "zero-k_max",
        ],
    )
    def test_sweep_fields_that_make_no_run_are_refused_at_construction(self, fields, message):
        """Each m_grid entry makes at least one (per_step, steps) pair, so
        enumerate_grid neither divides by zero nor skips an entry, and no
        entry repeats, so no pair runs twice."""
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(benchmark_config(0), **fields)

    def test_synthetic_clips_last_clip_seconds(self):
        cfg = config_from_text("[dsp]\nclip_seconds = 0.2\n")
        assert cfg.synthetic.duration == 0.2
        with pytest.raises(ValueError, match="clip_seconds"):
            dataclasses.replace(cfg, clip_seconds=0.3)
        with pytest.raises(ConfigError, match="line 2: unknown key 'duration'"):
            config_from_text("[synthetic]\nduration = 0.2\n")

    @pytest.mark.parametrize(
        "task, other", [("multiclass", "multilabel"), ("multilabel", "multiclass")]
    )
    def test_synthetic_task_follows_task(self, task, other):
        cfg = config_from_text(f"[experiment]\ntask = {task}\n")
        with pytest.raises(ValueError, match=f"synthetic task '{task}' != task '{other}'"):
            dataclasses.replace(cfg, task=other)

    def test_the_source_follows_the_synthetic_spec(self, tmp_path):
        """A synthetic spec makes the source synthetic; without one, both
        directories must be given. The source is not a settable field."""
        cfg = benchmark_config(0)
        assert cfg.source == "synthetic"
        assert "source" not in {f.name for f in dataclasses.fields(cfg)}
        with pytest.raises(TypeError):
            dataclasses.replace(cfg, source="wav-dir")
        with pytest.raises(ValueError, match="needs source_dir and target_dir"):
            dataclasses.replace(cfg, synthetic=None)
        with pytest.raises(ValueError, match="needs source_dir and target_dir"):
            dataclasses.replace(cfg, synthetic=None, source_dir=tmp_path)
        wav = dataclasses.replace(cfg, synthetic=None, source_dir=tmp_path, target_dir=tmp_path)
        assert wav.source == "wav-dir"

    def test_wav_dir_data_is_multiclass_only(self, tmp_path):
        cfg = config_from_text("[experiment]\ntask = multilabel\n")
        with pytest.raises(ValueError, match="wav-dir data is multiclass only, not task 'multilabel'"):
            dataclasses.replace(cfg, synthetic=None, source_dir=tmp_path, target_dir=tmp_path)

    @pytest.mark.parametrize("field", ["source_dir", "target_dir"])
    def test_synthetic_data_rejects_data_directories(self, tmp_path, field):
        with pytest.raises(ValueError, match="synthetic data reads no source_dir or target_dir"):
            dataclasses.replace(benchmark_config(0), **{field: tmp_path})

    @pytest.mark.parametrize("task, unscored", [("multiclass", "lrap"), ("multilabel", "uar")])
    def test_metric_must_be_scored_by_the_task(self, task, unscored):
        cfg = config_from_text(f"[experiment]\ntask = {task}\n")
        assert cfg.metric == DEFAULT_METRIC[task]
        assert dataclasses.replace(cfg, metric=None).metric == DEFAULT_METRIC[task]
        with pytest.raises(ValueError, match=f"task '{task}' scores .*, not metric '{unscored}'"):
            dataclasses.replace(cfg, metric=unscored)


# Lines 1-6 set [dsp]; {dsp} adds lines from 7 on, then [synthetic] and {rest}.
_TINY_TEXT = (
    "[dsp]\nn_fft = 128\nhop = 64\nwin_length = 128\nn_mels = 8\nclip_seconds = 0.15\n{dsp}"
    "[synthetic]\nsample_rate = 4000\nclasses = 3\nbase_freq = 300\nfreq_step = 250\n"
    "harmonics = 1\n{rest}"
)


class TestParseTimeSignalChecks:
    """What build_data and build_learner_specs would refuse is refused at
    parse, with its lines, wherever the parse knows the rate and clip length."""

    @pytest.mark.parametrize("source", ["synthetic", "wav-dir"])
    @pytest.mark.parametrize("fmin", ["1500", "1000"])
    def test_fmin_not_below_fmax_names_both_lines(self, tmp_path, source, fmin):
        band = f"fmin = {fmin}\nfmax = 1000\n"
        if source == "synthetic":
            text = _TINY_TEXT.format(dsp=band, rest="")
        else:  # five lines of [experiment] and [data], then [dsp] on line 6
            text = _wav_dirs(tmp_path) + "[dsp]\n" + band
        message = rf"^lines 7, 8: \[dsp\] need fmin < fmax, got fmin = {fmin}.0, fmax = 1000.0$"
        with pytest.raises(ConfigError, match=message):
            config_from_text(text, base_dir=tmp_path)

    def test_fmax_above_nyquist_names_fmax_and_sample_rate(self):
        text = _TINY_TEXT.format(dsp="fmax = 2500\n", rest="")
        message = (
            r"^line 7: \[synthetic\] sample_rate = 4000 \(line 9\): \[dsp\] fmax = 2500.0: "
            r"fmax=2500.0 exceeds the Nyquist frequency 2000.0$"
        )
        with pytest.raises(ConfigError, match=message):
            config_from_text(text)
        assert config_from_text(text.replace("2500", "2000")).fmax == 2000.0

    def test_fmin_at_nyquist_without_fmax_names_fmin_and_sample_rate(self):
        text = _TINY_TEXT.format(dsp="fmin = 2000\n", rest="")
        message = (
            r"^line 7: \[synthetic\] sample_rate = 4000 \(line 9\): \[dsp\] fmin = 2000.0: "
            r"need 0 <= fmin < the Nyquist frequency 2000.0, got fmin=2000.0$"
        )
        with pytest.raises(ConfigError, match=message):
            config_from_text(text)

    def test_clip_shorter_than_the_window_names_the_dsp_lines(self):
        text = _TINY_TEXT.format(dsp="", rest="").replace("= 0.15", "= 0.02")
        message = (
            r"^line 6: \[synthetic\] sample_rate = 4000 \(line 8\): \[dsp\] clip_seconds = 0.02: "
            r"signal of 80 samples is shorter than the 128-"
        )
        with pytest.raises(ConfigError, match=message):
            config_from_text(text)

    def test_conv_kernel_beyond_the_feature_map_names_the_learner_lines(self):
        """The 0.15 s clips give 8 frames of 8 mel bands; member 1 of 5 gets the 9x9 kernel."""
        rest = "[learner]\nhidden = 8\nconv = 4x3x1; 4x9x1\n"
        text = _TINY_TEXT.format(dsp="", rest=rest)
        message = (
            r"^line 15: \[synthetic\] sample_rate = 4000 \(line 8\): "
            r"\[learner\] conv = 4x3x1; 4x9x1: conv layer 0: kernel 9 exceeds feature map 8x8$"
        )
        with pytest.raises(ConfigError, match=message):
            config_from_text(text)
        one_member = config_from_text(text + "[spel]\nmembers = 1\n")
        assert one_member.conv_specs == (((4, 3, 1),), ((4, 9, 1),))


# --- every key is live or rejected with its line ---------------------------

# A key is live when changing it changes what a run receives: the arrays
# build_data returns, the learner specs, the stamped run settings and round
# count, the output directory, the metric, or the sweep grid. Each config key
# with the value it is changed to; where the first value is the base's own,
# the second is used.
CHANGES = {
    ("experiment", "task"): ("multilabel", "multiclass"),
    ("experiment", "source"): ("wav-dir", "synthetic"),
    ("experiment", "seed"): ("9",),
    ("experiment", "metric"): ("uar",),
    ("experiment", "val_domain"): ("source",),
    ("experiment", "output_dir"): ("elsewhere",),
    ("dsp", "n_fft"): ("256",),
    ("dsp", "hop"): ("32",),
    ("dsp", "win_length"): ("64",),
    ("dsp", "n_mels"): ("6",),
    ("dsp", "fmin"): ("100",),
    ("dsp", "fmax"): ("1500",),
    ("dsp", "clip_seconds"): ("0.2",),
    ("spel", "members"): ("2",),
    ("spel", "steps"): ("1",),
    ("spel", "per_step"): ("7",),
    ("spel", "learning_rate"): ("0.01",),
    ("spel", "pretrain_epochs"): ("3",),
    ("spel", "spel_epochs"): ("2",),
    ("spel", "batch_size"): ("4",),
    ("learner", "hidden"): ("8",),
    ("learner", "conv"): ("2x3x2",),
    ("synthetic", "classes"): ("4",),
    ("synthetic", "source_samples"): ("7",),
    ("synthetic", "val_samples"): ("4",),
    ("synthetic", "unlabeled_samples"): ("4",),
    ("synthetic", "test_samples"): ("4",),
    ("synthetic", "base_freq"): ("350",),
    ("synthetic", "freq_step"): ("200",),
    ("synthetic", "freq_jitter"): ("30",),
    ("synthetic", "harmonics"): ("2",),
    ("synthetic", "source_noise"): ("0.2",),
    ("synthetic", "target_offset"): ("90",),
    ("synthetic", "target_noise"): ("0.5",),
    ("synthetic", "amp_min"): ("0.5",),
    ("synthetic", "amp_max"): ("0.9",),
    ("synthetic", "sample_rate"): ("5000",),
    ("synthetic", "label_density"): ("0.6",),
    ("data", "source_dir"): ("source_b",),
    ("data", "target_dir"): ("target_b",),
    ("data", "train_fraction"): ("0.5",),
    ("data", "val_fraction"): ("0.3",),
    ("data", "unlabeled_fraction"): ("0.5",),
    ("sweep", "m_grid"): ("10,20",),
    ("sweep", "budget"): ("500",),
    ("sweep", "k_max"): ("2",),
}

_TINY_DSP = {
    "n_fft": "128", "hop": "64", "win_length": "128", "n_mels": "8", "clip_seconds": "0.15",
}
_TINY_SYNTHETIC = {
    "classes": "3", "source_samples": "6", "val_samples": "3", "unlabeled_samples": "3",
    "test_samples": "3", "sample_rate": "4000", "base_freq": "300", "freq_step": "250",
    "harmonics": "1",
}
CONTEXTS = {
    "synthetic": {"dsp": _TINY_DSP, "synthetic": _TINY_SYNTHETIC},
    "multilabel": {
        "experiment": {"task": "multilabel"},
        "dsp": _TINY_DSP,
        "synthetic": _TINY_SYNTHETIC,
    },
    "wav-dir": {
        "experiment": {"source": "wav-dir"},
        "dsp": _TINY_DSP,
        "data": {"source_dir": "source", "target_dir": "target"},
    },
}


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Two-class WAV corpora of 0.175 s tones; the _b variants differ."""
    root = tmp_path_factory.mktemp("corpora")
    rng = np.random.default_rng(3)
    t = np.arange(700) / 4000
    corpora = (("source", 5, 0), ("target", 4, 40), ("source_b", 5, 90), ("target_b", 4, 130))
    for name, n, shift in corpora:
        for cls, freq in (("a", 400.0), ("b", 900.0)):
            (root / name / cls).mkdir(parents=True)
            for i in range(n):
                x = 0.7 * np.sin(2 * np.pi * (freq + shift) * t) + rng.normal(0, 0.05, size=700)
                write_wav(root / name / cls / f"{i}.wav", Signal(np.clip(x, -1, 1), 4000))
    return root


def _config_text(sections):
    """The config text and the line of each (section, key)."""
    lines, where = [], {}
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            lines.append(f"{key} = {value}")
            where[name, key] = len(lines)
    return "\n".join(lines) + "\n", where


def _computed(cfg):
    data = build_data(cfg)
    return (
        _digests(data),
        build_learner_specs(cfg, data),
        [getattr(cfg.spel, name) for name in _STAGE_SETTINGS[-1]],
        cfg.spel.n_steps,
        cfg.output_dir,
        cfg.metric,
        enumerate_grid(cfg.sweep_m_grid, cfg.sweep_budget, cfg.sweep_k_max),
    )


def _lines_named(message):
    groups = re.findall(r"\blines? ((?:\d+, )*\d+)", message)
    return {int(n) for group in groups for n in group.split(", ")}


@pytest.fixture(scope="module")
def base_computed(corpora):
    return {
        name: _computed(config_from_text(_config_text(sections)[0], base_dir=corpora))
        for name, sections in CONTEXTS.items()
    }


@pytest.mark.parametrize("context", sorted(CONTEXTS))
@pytest.mark.parametrize("section, key", sorted(CHANGES))
def test_every_key_is_live_or_rejected_with_its_line(section, key, context, corpora, base_computed):
    base = CONTEXTS[context]
    value = next(v for v in CHANGES[section, key] if v != base.get(section, {}).get(key))
    text, where = _config_text({**base, section: {**base.get(section, {}), key: value}})
    try:
        cfg = config_from_text(text, base_dir=corpora)
    except ConfigError as err:
        assert where[section, key] in _lines_named(str(err)), str(err)
        return
    assert _computed(cfg) != base_computed[context], f"[{section}] {key} = {value} changes nothing"


def test_liveness_table_lists_every_key_the_parser_reads():
    rows = [row[:2] for row in config._KEYS]
    assert len(rows) == len(set(rows)) and set(rows) == set(CHANGES)


# --- the canonical text ------------------------------------------------------

_OPTIONAL_NONE = (
    "[experiment]\nmetric = none\noutput_dir = none\n[dsp]\nfmax = none\n[sweep]\nk_max = none\n"
)


@pytest.fixture
def suite_configs(tmp_path, corpora):
    """Every config the suite builds from text, by name."""
    for name in ("source", "target"):
        (tmp_path / "corpora" / name).mkdir(parents=True)
    blocks = README.read_text().split("```ini\n")[1:]
    synthetic, wav = (block.split("```", 1)[0] for block in blocks)
    contexts = {
        f"context {name}": config_from_text(_config_text(sections)[0], base_dir=corpora)
        for name, sections in CONTEXTS.items()
    }
    return {
        "FULL": config_from_text(FULL),
        "README synthetic": config_from_text(synthetic),
        "README wav-dir": config_from_text(wav, base_dir=tmp_path),
        "benchmark_config(0)": benchmark_config(0),
        "multilabel": config_from_text("[experiment]\ntask = multilabel\n"),
        "none-valued optional keys": config_from_text(_OPTIONAL_NONE),
        **contexts,
    }


def test_canonical_text_reads_back_to_its_config(suite_configs):
    for name, cfg in suite_configs.items():
        text = config.canonical(cfg)
        assert config_from_text(text) == cfg, name
        assert config.canonical(config_from_text(text)) == text, name


def _keys_written(cfg, **kwargs):
    """The keys and section headers of cfg's canonical text."""
    return {line.split(" = ")[0] for line in config.canonical(cfg, **kwargs).splitlines()}


def test_canonical_text_writes_the_keys_its_source_and_task_read(suite_configs):
    synthetic = _keys_written(suite_configs["context synthetic"])
    assert "classes" in synthetic and "source_dir" not in synthetic
    assert "val_domain" in synthetic and "label_density" not in synthetic
    assert "label_density" in _keys_written(suite_configs["context multilabel"])
    wav = _keys_written(suite_configs["context wav-dir"])
    assert "source_dir" in wav and "[synthetic]" not in wav and "val_domain" not in wav
    assert "fmax = none" in config.canonical(suite_configs["none-valued optional keys"])


def test_config_hash_is_of_the_text_a_run_reads(suite_configs):
    for name, cfg in suite_configs.items():
        text = config.canonical(cfg, run_only=True)
        assert cfg.config_hash == hashlib.sha256(text.encode()).hexdigest()[:16], name
        left_out = _keys_written(cfg) - _keys_written(cfg, run_only=True)
        assert left_out == {"output_dir", "[sweep]", "m_grid", "budget", "k_max"}, name


def test_readme_configuration_names_every_key():
    section = README.read_text().split("## Configuration", 1)[1].split("\n## ", 1)[0]
    missing = [
        f"[{section_name}] {key}"
        for section_name, key, *_ in config._KEYS
        if f"`{key}`" not in section and f"\n{key} = " not in section
    ]
    assert missing == []
