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

    def test_takes_a_config_a_wav_and_an_output_path_only(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {a.dest for a in sub.choices["preprocess"]._actions} - {"help"}
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


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


class TestEvaluate:
    def test_accuracy_from_label_columns(self, tmp_path, capsys):
        write_csv(tmp_path / "pred.csv", [[0], [1], [2], [2]])
        write_csv(tmp_path / "truth.csv", [[0], [1], [2], [1]])
        assert main(
            ["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"), "--metric", "accuracy"]
        ) == 0
        assert "accuracy 0.750000" in capsys.readouterr().out

    def test_accuracy_from_score_matrix_argmax(self, tmp_path, capsys):
        write_csv(tmp_path / "pred.csv", [[0.9, 0.1], [0.2, 0.8]])
        write_csv(tmp_path / "truth.csv", [[0], [1]])
        main(["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"), "--metric", "accuracy"])
        assert "accuracy 1.000000" in capsys.readouterr().out

    def test_uar(self, tmp_path, capsys):
        write_csv(tmp_path / "pred.csv", [[0], [1], [1], [1]])
        write_csv(tmp_path / "truth.csv", [[0], [0], [1], [1]])
        main(["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"), "--metric", "uar"])
        assert "uar 0.750000" in capsys.readouterr().out

    def test_wlrap_perfect_ranking(self, tmp_path, capsys):
        write_csv(tmp_path / "scores.csv", [[0.9, 0.2, 0.1], [0.1, 0.8, 0.7]])
        write_csv(tmp_path / "truth.csv", [[1, 0, 0], [0, 1, 1]])
        main(["evaluate", str(tmp_path / "scores.csv"), str(tmp_path / "truth.csv"), "--metric", "wlrap"])
        assert "wlrap 1.000000" in capsys.readouterr().out

    @pytest.mark.parametrize("bad, shown", [(1.7, "1.7"), (-1, "-1.0"), ("nan", "nan")])
    def test_label_that_is_not_a_class_index_rejected(self, tmp_path, capsys, bad, shown):
        (tmp_path / "pred.csv").write_text(f"label\n0\n{bad}\n2\n")
        write_csv(tmp_path / "truth.csv", [[0], [1], [2]])
        code = main(
            ["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"), "--metric", "accuracy"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"pred.csv:3: {shown} is not a class index" in captured.err

    @pytest.mark.parametrize("bad", ["0.6", "2", "-1", "nan"])
    def test_multilabel_truth_cell_that_is_not_0_or_1_rejected(self, tmp_path, capsys, bad):
        write_csv(tmp_path / "scores.csv", [[0.9, 0.2, 0.1], [0.1, 0.8, 0.7]])
        (tmp_path / "truth.csv").write_text(f"a,b,c\n1,0,0\n0,{bad},1\n")
        code = main(
            ["evaluate", str(tmp_path / "scores.csv"), str(tmp_path / "truth.csv"), "--metric", "wlrap"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"truth.csv:3: {float(bad)} is not 0 or 1" in captured.err

    @pytest.mark.parametrize("metric", ["accuracy", "uar"])
    def test_multi_column_truth_rejected_for_a_multiclass_metric(self, tmp_path, capsys, metric):
        write_csv(tmp_path / "pred.csv", [[0], [1]])
        write_csv(tmp_path / "truth.csv", [[1, 0, 0], [0, 1, 1]])
        code = main(
            ["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"), "--metric", metric]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "truth.csv: truth must be one column of class indices, got 3 columns" in captured.err

    @pytest.mark.parametrize("classes", ["0", "-2"])
    def test_classes_below_one_rejected(self, tmp_path, capsys, classes):
        write_csv(tmp_path / "pred.csv", [[0], [1]])
        write_csv(tmp_path / "truth.csv", [[0], [1]])
        code = main(
            ["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"),
             "--metric", "uar", "--classes", classes]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--classes must be at least 1, got {classes}" in captured.err

    def test_classes_below_a_label_rejected_for_accuracy(self, tmp_path, capsys):
        write_csv(tmp_path / "pred.csv", [[0], [1], [2]])
        write_csv(tmp_path / "truth.csv", [[0], [1], [2]])
        code = main(
            ["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"),
             "--metric", "accuracy", "--classes", "1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--classes 1, but the labels or truth hold class 2" in captured.err

    def test_classes_other_than_the_truth_columns_rejected_for_wlrap(self, tmp_path, capsys):
        write_csv(tmp_path / "scores.csv", [[0.9, 0.2, 0.1], [0.1, 0.8, 0.7]])
        write_csv(tmp_path / "truth.csv", [[1, 0, 0], [0, 1, 1]])
        code = main(
            ["evaluate", str(tmp_path / "scores.csv"), str(tmp_path / "truth.csv"),
             "--metric", "wlrap", "--classes", "7"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--classes 7, but the truth has 3 columns" in captured.err

    def test_classes_that_cover_the_labels_accepted(self, tmp_path, capsys):
        write_csv(tmp_path / "pred.csv", [[0], [1], [1], [1]])
        write_csv(tmp_path / "truth.csv", [[0], [0], [1], [1]])
        main(["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"),
              "--metric", "uar", "--classes", "4"])
        assert "uar 0.750000" in capsys.readouterr().out

    def test_header_row_tolerated(self, tmp_path, capsys):
        (tmp_path / "pred.csv").write_text("label\n0\n1\n")
        (tmp_path / "truth.csv").write_text("label\n0\n1\n")
        main(["evaluate", str(tmp_path / "pred.csv"), str(tmp_path / "truth.csv"), "--metric", "accuracy"])
        assert "accuracy 1.000000" in capsys.readouterr().out


class TestMcnemarCommand:
    def test_hand_case(self, tmp_path, capsys):
        n = 30
        truth = [[0]] * n
        pred_a = [[0]] * n
        pred_b = [[0]] * n
        for i in range(15):
            pred_b[i] = [1]  # A right, B wrong
        for i in range(15, 20):
            pred_a[i] = [1]  # A wrong, B right
        write_csv(tmp_path / "a.csv", pred_a)
        write_csv(tmp_path / "b.csv", pred_b)
        write_csv(tmp_path / "t.csv", truth)
        assert main(["mcnemar", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), str(tmp_path / "t.csv")]) == 0
        out = capsys.readouterr().out
        assert "statistic 4.050000" in out
        assert "b 15" in out and "c 5" in out
        assert "not significant" in out

    def test_fractional_truth_rejected(self, tmp_path, capsys):
        write_csv(tmp_path / "a.csv", [[0], [1], [2]])
        write_csv(tmp_path / "t.csv", [[0], [1.5], [2]])
        code = main(["mcnemar", str(tmp_path / "a.csv"), str(tmp_path / "a.csv"), str(tmp_path / "t.csv")])
        assert code == 1
        assert "t.csv:2: 1.5 is not a class index" in capsys.readouterr().err

    def test_multi_column_truth_rejected(self, tmp_path, capsys):
        write_csv(tmp_path / "a.csv", [[0.9, 0.1], [0.2, 0.8]])
        write_csv(tmp_path / "t.csv", [[1, 0], [0, 1]])
        code = main(["mcnemar", str(tmp_path / "a.csv"), str(tmp_path / "a.csv"), str(tmp_path / "t.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "t.csv: truth must be one column of class indices, got 2 columns" in captured.err

    def test_score_row_predictions_read_by_argmax(self, tmp_path, capsys):
        write_csv(tmp_path / "a.csv", [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        write_csv(tmp_path / "b.csv", [[0], [1], [1]])
        write_csv(tmp_path / "t.csv", [[0], [1], [1]])
        assert main(["mcnemar", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), str(tmp_path / "t.csv")]) == 0
        out = capsys.readouterr().out
        assert "b 0" in out and "c 1" in out
