from pathlib import Path

import pytest

from spelaudio.config import ConfigError, config_from_text, load_config
from spelaudio.experiment import benchmark_config_text

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
duration = 0.5
base_freq = 300
freq_step = 220
harmonics = 1
"""


class TestParsing:
    def test_full_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(FULL)
        cfg = load_config(path)
        assert cfg.seed == 11
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
        assert cfg.spel.pseudo_budget == 1000
        assert cfg.sweep_m_grid == (50, 100, 150, 200)
        assert cfg.sweep_budget == 1000

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

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = config_from_text(block)
        assert cfg.spel.spel_epochs == 4 and cfg.spel.per_step == 50
        assert cfg.hidden_specs == ((64, 32),)
        assert cfg.conv_specs == (((8, 3, 2), (16, 3, 2)),)
        assert cfg.synthetic.val_domain == "target"
        assert cfg.sweep_m_grid == (50, 100, 150, 200)

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
        (tmp_path / "src").mkdir()
        (tmp_path / "tgt").mkdir()
        text = (
            "[experiment]\nsource = wav-dir\n"
            "[data]\n"
            f"source_dir = {tmp_path / 'src'}\n"
            f"target_dir = {tmp_path / 'tgt'}\n"
            "train_fraction = 0.5\nval_fraction = 0.2\ntest_fraction = 0.2\n"
        )
        with pytest.raises(ConfigError, match="sum"):
            config_from_text(text)

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
            "[experiment] seed = none",
            "[sweep] m_grid =",
            "[experiment] task = bogus",
            "[experiment] source = bogus",
            "[experiment] val_domain = bogus",
            "[experiment] val_domain = target\nsource = wav-dir",
            "[spel] learning_rate = -1",
            "[dsp] n_mels = 0",
            "[dsp] clip_seconds = -1",
            "[dsp] hop = 0",
            "[spel] members = 0",
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
            "[dsp]\nfmax = none\n[spel]\nspel_epochs = none\n"
            "[data]\nsource_dir = none\ntarget_dir =\n[sweep]\nk_max = none\n"
        )
        cfg = config_from_text(text)
        assert cfg.metric == "accuracy"
        assert cfg.output_dir is None and cfg.fmax is None and cfg.spel.spel_epochs is None
        assert cfg.source_dir is None and cfg.target_dir is None and cfg.sweep_k_max is None

    def test_none_hidden_group_is_a_linear_member(self):
        cfg = config_from_text("[learner]\nhidden = none\n")
        assert cfg.hidden_specs == ((),)

    def test_comments_and_blanks_ignored(self):
        text = "# top comment\n\n[experiment]\n# inner\ntask = multiclass\n"
        assert config_from_text(text).task == "multiclass"
