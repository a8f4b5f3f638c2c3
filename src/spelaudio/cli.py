"""Command-line interface.

Subcommands:
  preprocess  save the float32 mel image a config's run stores for one WAV file
  run         execute a full experiment from a config file
  sweep       run the (per_step, steps) grid from a config file
  evaluate    score a predictions CSV against a truth CSV
  mcnemar     paired McNemar test between two prediction CSVs
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .dsp import preprocess
from .experiment import run_experiment, sweep
from .metrics import TASK_METRICS, mcnemar, score
from .wavio import load_wav

__all__ = ["main"]


def _read_csv_matrix(path) -> tuple[np.ndarray, list[int]]:
    """The numeric rows of a CSV file, and the line number of each row."""
    rows, linenos = [], []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
            linenos.append(lineno)
        except ValueError:
            if lineno == 1:
                continue  # header row
            raise SystemExit(f"{path}:{lineno}: not numeric: {line!r}")
    if not rows:
        raise SystemExit(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise SystemExit(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.asarray(rows), linenos


def _read_labels(path, truth: bool = False) -> np.ndarray:
    """Class indices from one column. Predictions may instead hold one score
    column per class, read by argmax per row; truth may not.

    Truth with more than one column, or a single-column value that is not a
    whole non-negative number, raises ValueError naming its path (and line).
    """
    matrix, linenos = _read_csv_matrix(path)
    if matrix.shape[1] > 1:
        if truth:
            raise ValueError(
                f"{path}: truth must be one column of class indices, got "
                f"{matrix.shape[1]} columns"
            )
        return matrix.argmax(axis=1)
    column = matrix[:, 0]
    bad = np.flatnonzero(~(np.isfinite(column) & (column >= 0) & (column == np.floor(column))))
    if bad.size:
        raise ValueError(f"{path}:{linenos[bad[0]]}: {column[bad[0]]} is not a class index")
    return column.astype(np.int64)


def _read_binary_matrix(path) -> np.ndarray:
    """Multi-label truth: one 0/1 column per class. A cell that is not 0 or
    1 raises ValueError naming its path and line."""
    matrix, linenos = _read_csv_matrix(path)
    bad = np.flatnonzero((matrix != 0) & (matrix != 1))
    if bad.size:
        row, col = divmod(int(bad[0]), matrix.shape[1])
        raise ValueError(f"{path}:{linenos[row]}: {matrix[row, col]} is not 0 or 1")
    return matrix.astype(np.int64)


def _cmd_preprocess(args) -> int:
    """The WAV's image as a run of the config stores it: its [dsp] geometry,
    checked at the file's rate as the run's header pass checks it, clipped
    to clip_seconds and rounded once to float32."""
    config, signal = load_config(args.config), load_wav(args.wav)
    rate = signal.sample_rate
    fb = config.filterbank_at(rate, f"{args.wav} (sample rate {rate})")
    image = preprocess(signal, config.stft, fb, config.clip_samples(rate)).values
    np.save(args.out, image.astype(np.float32))
    print(f"{args.out}: mel image {image.shape[0]}x{image.shape[1]}")
    return 0


def _print_record(record) -> None:
    for report in record.reports:
        parts = [f"round {report.round_index}", f"pseudo {report.pseudo_count}"]
        for name, value in report.metrics.items():
            parts.append(f"{name} {value:.4f}")
        print("  " + "  ".join(parts))
    for label, metrics in (("baseline", record.baseline_metrics), ("final", record.final_metrics)):
        print(f"{label}: " + "  ".join(f"{k} {v:.4f}" for k, v in metrics.items()))
    mc = record.mcnemar_vs_baseline
    verdict = "significant" if mc.significant else "not significant"
    print(f"mcnemar vs baseline: statistic {mc.statistic:.4f} (b={mc.b}, c={mc.c}) {verdict} at 0.01")
    if record.config.output_dir is not None:
        print(f"results written to {record.config.output_dir}")


def _cmd_run(args) -> int:
    record = run_experiment(args.config)
    _print_record(record)
    return 0


def _cmd_sweep(args) -> int:
    results = sweep(args.config)
    for m, k, record in results:
        metric = record.config.metric
        print(f"per_step {m:4d}  steps {k:2d}  final {metric} {record.final_metrics[metric]:.4f}")
    print(f"{len(results)} grid points")
    return 0


def _cmd_evaluate(args) -> int:
    if args.classes is not None and args.classes < 1:
        raise ValueError(f"--classes must be at least 1, got {args.classes}")
    if args.metric in TASK_METRICS["multiclass"]:
        labels, truth = _read_labels(args.predictions), _read_labels(args.truth, truth=True)
        seen = int(max(labels.max(), truth.max())) + 1
        if args.classes is not None and args.classes < seen:
            raise ValueError(f"--classes {args.classes}, but the labels or truth hold class {seen - 1}")
        value = score(args.metric, labels, None, truth, args.classes or seen)
    else:
        pred, _ = _read_csv_matrix(args.predictions)
        truth = _read_binary_matrix(args.truth)
        if args.classes not in (None, truth.shape[1]):
            raise ValueError(f"--classes {args.classes}, but the truth has {truth.shape[1]} columns")
        value = score(args.metric, None, pred, truth, 0)
    print(f"{args.metric} {value:.6f}")
    return 0


def _cmd_mcnemar(args) -> int:
    pred_a, pred_b = _read_labels(args.pred_a), _read_labels(args.pred_b)
    truth = _read_labels(args.truth, truth=True)
    result = mcnemar(pred_a, pred_b, truth)
    verdict = "significant" if result.significant else "not significant"
    print(
        f"statistic {result.statistic:.6f}  b {result.b}  c {result.c}  "
        f"{verdict} at 0.01"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spelaudio", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="emit the mel image a config's run stores for one WAV")
    p.add_argument("config")
    p.add_argument("wav")
    p.add_argument("--out", required=True, help="output .npy path")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("run", help="run a full experiment from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run the (per_step, steps) grid from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="score predictions CSV against truth CSV")
    p.add_argument("predictions")
    p.add_argument("truth")
    metric_names = dict.fromkeys(name for names in TASK_METRICS.values() for name in names)
    p.add_argument("--metric", required=True, choices=tuple(metric_names))
    p.add_argument("--classes", type=int, default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("mcnemar", help="paired McNemar test between two prediction files")
    p.add_argument("pred_a")
    p.add_argument("pred_b")
    p.add_argument("truth")
    p.set_defaults(func=_cmd_mcnemar)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a config or WAV error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
