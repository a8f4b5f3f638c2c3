"""spelaudio benchmark: one workload, one seed, one process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spel-synth --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory. Set-up
builds the workload's inputs from the seed. ``setup_s`` is the median of
three import times (this process's, from the top of this file, and two
fresh interpreters') plus the median of three set-ups. The timed phase
then repeats until ``--seconds`` have passed (at least once). With ``--trace 0`` the
last line of standard output holds the end-to-end metrics; with
``--trace 1`` the first half of the time runs untraced, the second half
traced, and the last line holds the per-layer metrics. Scratch files, a
result file per run and traces go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread. On a small shared machine two BLAS threads per process
# stall each other whenever another process runs (loss_and_grad ran about
# 4x slower on 2 cores); with the machine idle one thread is as fast here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3
HERE = Path(__file__).resolve().parent
IMPORT_PROBE = "import time; t = time.perf_counter(); import spelaudio; print(time.perf_counter() - t)"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def import_program(root: Path):
    """Import spelaudio from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "spelaudio" / "__init__.py").is_file():
        raise SystemExit(f"no spelaudio sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import spelaudio

    if Path(spelaudio.__file__).resolve().parent != (src / "spelaudio").resolve():
        raise SystemExit(f"imported spelaudio from {spelaudio.__file__}, not from {src}")


def fresh_import_s(root: Path) -> float:
    """Time to import spelaudio in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, capture_output=True, text=True,
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    return float(proc.stdout)


def code_hash(root: Path) -> str:
    """Digest of the program and benchmark sources, keying stored outputs."""
    h = hashlib.sha256()
    for folder in (root / "src" / "spelaudio", HERE):
        for path in sorted(folder.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def blas_facts(np) -> dict:
    facts = {"blas": "unknown", "blas_threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    try:
        import ctypes

        maps = Path("/proc/self/maps").read_text()
        libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps)))
        if libs:
            lib = ctypes.CDLL(libs[0])
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    facts["blas_threads"] = int(fn())
                    break
    except OSError:
        pass
    return facts


def machine_facts(np, seed: int) -> dict:
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = "unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_facts(np),
        "seed": seed,
    }


def stored_digest(path: Path, key: str, digest: str) -> str:
    """The output digest first stored under ``key`` (workload, seed and code
    version), storing ``digest`` if there is none, so that later runs of the
    same code are checked against the first."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    if key not in stored:
        stored[key] = digest
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return stored[key]


def timed_loop(workload, state, deadline, outcomes, durations, tracer=None):
    """Repeat the timed phase until the deadline; at least once. Traced,
    each timed phase is the root span of its tree."""
    while True:
        workload.prepare(state)
        if tracer is None:
            t0 = time.perf_counter()
            outcome = workload.run(state)
            durations.append(time.perf_counter() - t0)
        else:
            with tracer.span("bench.op") as root:
                outcome = workload.run(state)
            durations.append(root.duration)
        outcomes.append(outcome)
        for problem in outcome.problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if time.perf_counter() >= deadline:
            return


def measure(workload, state, seconds: float, trace: bool):
    """Timed phases until ``seconds`` have passed. Traced, the first half
    runs untraced and the second half traced, so the overhead shows.
    Returns (outcomes, durations, tracer or None, count of untraced phases)."""
    outcomes, durations = [], []
    start = time.perf_counter()
    if not trace:
        timed_loop(workload, state, start + seconds, outcomes, durations)
        return outcomes, durations, None, len(durations)
    from spans import Tracer

    timed_loop(workload, state, start + seconds / 2, outcomes, durations)
    n_plain = len(durations)
    tracer = Tracer()
    with tracer:
        timed_loop(workload, state, start + seconds, outcomes, durations, tracer)
    return outcomes, durations, tracer, n_plain


def count_failures(outcomes, reference, key) -> int:
    """Failed operations: those a check rejected, plus every operation of a
    timed phase whose output differs from the reference digest."""
    failed = 0
    for i, outcome in enumerate(outcomes):
        if outcome.failed == 0 and outcome.digest != reference:
            print(f"check failed: timed phase {i} output digest {outcome.digest} "
                  f"differs from {reference} ({key})", file=sys.stderr)
            failed += outcome.attempted
        else:
            failed += outcome.failed
    return failed


def per_layer_metrics(workload, state, outcomes, durations, tracer, n_plain) -> dict:
    from spans import layer_metrics

    # The first timed phase of a process runs cold (it grows the heap), so
    # it is left out of the untraced side when there is another.
    plain_s = statistics.median(durations[1:n_plain] or durations[:n_plain])
    traced_s = statistics.median(durations[n_plain:])
    metrics = layer_metrics(tracer.spans, len(durations) - n_plain)
    metrics.update(workload.extras(state, metrics, outcomes[-1]))
    metrics["trace.overhead_s"] = traced_s - plain_s
    metrics["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    return metrics


def end_to_end_metrics(outcomes, durations, setup_s) -> dict:
    import numpy as np

    latencies = [ms for o in outcomes for ms in o.latencies_ms]
    return {
        "run_s": statistics.median(durations),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_accuracy": statistics.median(o.accuracy for o in outcomes),
        "op_ms_p50": float(np.percentile(latencies, 50)),
        "op_ms_p90": float(np.percentile(latencies, 90)),
    }


def declared_units(root: Path, trace: bool) -> dict[str, str]:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_program(root)
    import numpy as np

    from spans import write_spans
    from workloads import WORKLOADS

    import_s = time.perf_counter() - PROCESS_T0
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    units = declared_units(root, args.trace)
    work_root = root / ".perfbench_work"
    workdir = work_root / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir)

    import_times = [import_s] + [fresh_import_s(root) for _ in range(SETUP_REPEATS - 1)]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(setup_times)

    outcomes, durations, tracer, n_plain = measure(workload, state, args.seconds, args.trace)

    key = f"{args.workload}:{args.seed}:{code_hash(root)}"
    sound = [o.digest for o in outcomes if o.failed == 0 and o.digest]
    reference = stored_digest(work_root / "digests.json", key, sound[0]) if sound else None
    failed = count_failures(outcomes, reference, key)
    attempted = sum(o.attempted for o in outcomes)

    if args.trace:
        metrics = per_layer_metrics(workload, state, outcomes, durations, tracer, n_plain)
        write_spans(tracer.spans, work_root / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = end_to_end_metrics(outcomes, durations, setup_s)
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    details = {
        "workload": args.workload,
        "machine": machine_facts(np, args.seed),
        "code_hash": key.rsplit(":", 1)[1],
        "import_times_s": import_times,
        "setup_times_s": setup_times,
        "timed_phase_s": durations,
        "error_rate": failed / attempted,
        **result,
    }
    out = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1))
    print(json.dumps({k: details[k] for k in ("workload", "machine", "code_hash", "error_rate")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
