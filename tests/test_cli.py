import argparse

import numpy as np
import pytest

from spelaudio.cli import build_parser, main
from spelaudio.config import ConfigError, load_config
from spelaudio.experiment import build_data

import test_experiment
from test_experiment import make_wav_corpus, mini_config_text


def _wav_dir_config_file(tmp_path, old="", new=""):
    """A wav-dir config file over a two-class 4000 Hz corpus, with old
    replaced by new in its text."""
    make_wav_corpus(tmp_path / "source", np.random.default_rng(0), 4)
    make_wav_corpus(tmp_path / "target", np.random.default_rng(1), 4, offset=30.0)
    dirs = (tmp_path / "source", tmp_path / "target", tmp_path / "out")
    text = test_experiment.TestWavDirMode()._config_text(*dirs)
    path = tmp_path / "wav.cfg"
    path.write_text(text.replace(old, new))
    return path


def _subcommands():
    """The parser's subcommand parsers, by name."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_offers_preprocess_run_and_sweep_only():
    assert set(_subcommands()) == {"preprocess", "run", "sweep"}


def test_help_keeps_the_subcommand_table(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  preprocess  save the float32 mel image a config's run stores for one WAV file" in lines


class TestPreprocess:
    def test_emits_mel_image(self, tmp_path, capsys):
        """The saved image is the float32 row a run of the config stores
        for the WAV, bit for bit."""
        # The clip is shorter than the file, so the image covers clip_seconds.
        cfg = _wav_dir_config_file(tmp_path, "clip_seconds = 0.2", "clip_seconds = 0.15")
        wav, out = tmp_path / "target" / "mid" / "clip_02.wav", tmp_path / "image.npy"
        assert main(["preprocess", str(cfg), str(wav), "--out", str(out)]) == 0
        image = np.load(out)
        assert image.dtype == np.float32
        assert image.tobytes() in {row.tobytes() for row in build_data(load_config(cfg)).images}
        assert image.shape == ((600 - 128) // 64 + 1, 10)
        assert f"mel image {image.shape[0]}x{image.shape[1]}" in capsys.readouterr().out

    def test_rate_the_geometry_cannot_take_names_the_file_and_the_dsp_setting(
        self, tmp_path, capsys
    ):
        cfg = _wav_dir_config_file(tmp_path, "n_mels = 10", "n_mels = 10\nfmax = 3000")
        wav, out = tmp_path / "source" / "low" / "clip_00.wav", tmp_path / "image.npy"
        assert main(["preprocess", str(cfg), str(wav), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {wav} (sample rate 4000): [dsp] fmax = 3000.0: "
            "fmax=3000.0 exceeds the Nyquist frequency 2000.0\n"
        )
        with pytest.raises(ConfigError) as run:
            build_data(load_config(cfg))
        assert err == f"error: {run.value}\n"  # as the run's header pass says it
        assert not out.exists()

    def test_a_directory_for_out_exits_1_naming_it(self, tmp_path, capsys):
        cfg = _wav_dir_config_file(tmp_path)
        wav, out = tmp_path / "source" / "low" / "clip_00.wav", tmp_path / "image.npy"
        out.mkdir()
        assert main(["preprocess", str(cfg), str(wav), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{out}'" in err

    def test_a_suffix_less_out_is_written_as_given(self, tmp_path, capsys):
        """np.save appends .npy to a path without it; the command writes
        and prints exactly the path it was given."""
        cfg = _wav_dir_config_file(tmp_path)
        wav, out = tmp_path / "target" / "mid" / "clip_02.wav", tmp_path / "image"
        assert main(["preprocess", str(cfg), str(wav), "--out", str(out)]) == 0
        assert out.is_file() and not out.with_suffix(".npy").exists()
        assert capsys.readouterr().out.startswith(f"{out}: mel image ")
        stored = {row.tobytes() for row in build_data(load_config(cfg)).images}
        assert np.load(out).tobytes() in stored

    def test_takes_a_config_a_wav_and_an_output_path_only(self):
        options = {a.dest for a in _subcommands()["preprocess"]._actions} - {"help"}
        assert options == {"config", "wav", "out"}

    def test_bad_wav_reports_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(mini_config_text(tmp_path / "out"))
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        code = main(["preprocess", str(cfg), str(bad), "--out", str(tmp_path / "x.npy")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRunAndSweep:
    def test_run_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(mini_config_text(tmp_path / "out", steps=1))
        assert main(["run", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "round 0" in out and "round 1" in out
        assert "mcnemar vs baseline" in out
        assert (tmp_path / "out" / "results.csv").exists()

    def test_sweep_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            mini_config_text(tmp_path / "out", steps=1, per_step=10)
            + "\n[sweep]\nm_grid = 10\nbudget = 20\n"
        )
        assert main(["sweep", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "2 grid points" in out
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[experiment]\nbogus = 1\n")
        assert main(["run", str(cfg)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_a_directory_for_config_exits_1_naming_it(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{tmp_path}'" in err
