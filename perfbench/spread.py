"""Run-to-run spread of the end-to-end metrics, one fresh process per run.

    python3 perfbench/spread.py --seeds 0-9 [--workloads spel-synth,wav-corpus]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
from the checkout root, and prints for each metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and the inter-quartile distance as
a share of the median beside the bound in BENCHMARK.json. Raw results go to
``.perfbench_work/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    root = Path.cwd()
    declared = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, *declared["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        (root / ".perfbench_work" / f"spread-{workload}.json").write_text(json.dumps(runs))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, share / bound)
            print(f"  {workload:12s} {name:14s} median={median:<12.5g} q1={q1:<12.5g} "
                  f"q3={q3:<12.5g} spread={share:.4f} bound={bound} ({share / bound:.2f} of bound)")
        if not all(r["correct"] for r in runs):
            print(f"  {workload}: some runs were not correct")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
