"""Command-line interface.

Subcommands:
  preprocess  save the float32 mel image a config's run stores for one WAV file
  run         execute a full experiment from a config file
  sweep       run the (per_step, steps) grid from a config file
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import load_config
from .dsp import preprocess
from .experiment import run_experiment, sweep
from .wavio import load_wav

__all__ = ["main"]


def _cmd_preprocess(args) -> int:
    """The WAV's image as a run of the config stores it: its [dsp] geometry,
    checked at the file's rate as the run's header pass checks it, clipped
    to clip_seconds; preprocess returns the float32 row a store holds."""
    config, signal = load_config(args.config), load_wav(args.wav)
    rate = signal.sample_rate
    fb = config.filterbank_at(rate, f"{args.wav} (sample rate {rate})")
    image = preprocess(signal, config.stft, fb, config.clip_samples(rate)).values
    with open(args.out, "wb") as f:  # np.save given a path would append .npy
        np.save(f, image)
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
    record = run_experiment(load_config(args.config))
    _print_record(record)
    return 0


def _cmd_sweep(args) -> int:
    results = sweep(load_config(args.config))
    for m, k, record in results:
        metric = record.config.metric
        print(f"per_step {m:4d}  steps {k:2d}  final {metric} {record.final_metrics[metric]:.4f}")
    print(f"{len(results)} grid points")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spelaudio", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,  # keep the subcommand table
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="emit the mel image a config's run stores for one WAV")
    p.add_argument("config")
    p.add_argument("wav")
    p.add_argument("--out", required=True, help="output path, written in .npy format")
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("run", help="run a full experiment from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run the (per_step, steps) grid from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_sweep)

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
