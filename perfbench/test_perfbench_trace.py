"""Checks on the benchmark's tracer, run on shrunken copies of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import spelaudio.engine  # noqa: E402
import workloads  # noqa: E402

# Self times telescope to the root's duration; only float rounding remains.
SELF_SUM_TOLERANCE_S = 1e-9


def _small_synth(monkeypatch):
    full = workloads.benchmark_config

    def small_config(seed, output_dir):
        config = full(seed, output_dir=output_dir)
        return dataclasses.replace(
            config,
            synthetic=dataclasses.replace(
                config.synthetic, n_source=60, n_val=12, n_unlabeled=30, n_test=30
            ),
            spel=dataclasses.replace(
                config.spel, n_members=2, n_steps=3, per_step=8, pretrain_epochs=1, spel_epochs=1
            ),
        )

    monkeypatch.setattr(workloads, "benchmark_config", small_config)
    return workloads.SpelSynth


def _small_wav(monkeypatch):
    monkeypatch.setattr(workloads, "WAV_PER_CLASS", {"source": 4, "target": 4})
    monkeypatch.setattr(
        workloads, "WAV_CONFIG", workloads.WAV_CONFIG.replace("pretrain_epochs = 8", "pretrain_epochs = 1")
    )
    return workloads.WavCorpus


def _small_scan(monkeypatch):
    monkeypatch.setattr(workloads, "SCAN_TRAIN_PER_CLASS", 2)
    monkeypatch.setattr(workloads, "SCAN_RECORDINGS", 3)
    monkeypatch.setattr(workloads, "SCAN_EPOCHS", 1)
    return workloads.WindowScan


SHRUNK = {"spel-synth": _small_synth, "wav-corpus": _small_wav, "window-scan": _small_scan}


def test_every_declared_workload_is_implemented():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert set(SHRUNK) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_traced_run_nests_sums_and_reports_overhead(name, monkeypatch, tmp_path):
    workload = SHRUNK[name](monkeypatch)(tmp_path)
    state = workload.setup(0)
    originals = [getattr(module, attr) for module, attr, _, _ in spans.TARGETS]

    outcomes, durations, tracer, n_plain = run.measure(workload, state, 0.0, trace=True)

    # one untraced and one traced timed phase; the tracer is gone afterwards
    assert (len(durations), n_plain) == (2, 1)
    assert [getattr(module, attr) for module, attr, _, _ in spans.TARGETS] == originals
    assert run.count_failures(outcomes, outcomes[0].digest, name) == 0
    assert outcomes[0].digest == outcomes[1].digest

    trace = tracer.spans
    assert spans.check_nesting(trace) == []
    roots = [i for i, s in enumerate(trace) if s.parent is None]
    assert [trace[i].name for i in roots] == ["bench.op"]
    assert abs(sum(spans.self_times(trace)) - trace[roots[0]].duration) < SELF_SUM_TOLERANCE_S
    assert min(spans.self_times(trace)) > -SELF_SUM_TOLERANCE_S

    metrics = run.per_layer_metrics(workload, state, outcomes, durations, tracer, n_plain)
    assert set(metrics) == set(run.declared_units(ROOT, trace=True))
    assert metrics["trace.overhead_s"] == durations[1] - durations[0]
    assert metrics["dsp.preprocess.calls"] > 0
    assert metrics["dsp.frames_unique"] <= metrics["dsp.frames_computed"]
    if name == "window-scan":
        assert metrics["dsp.frames_unique"] < metrics["dsp.frames_computed"]
        assert metrics["learner.steps"] == 0
    else:
        assert metrics["learner.steps"] > 0
        assert metrics["engine.pseudo_count.r1"] > 0


def test_end_to_end_metrics_match_benchmark_json(monkeypatch, tmp_path):
    workload = _small_scan(monkeypatch)(tmp_path)
    state = workload.setup(0)
    outcomes, durations, _, _ = run.measure(workload, state, 0.0, trace=False)
    metrics = run.end_to_end_metrics(outcomes, durations, setup_s=1.0)
    assert set(metrics) == set(run.declared_units(ROOT, trace=False))
    assert 0.0 <= metrics["test_accuracy"] <= 1.0
    assert min(metrics[name] for name in ("run_s", "peak_rss_mb", "op_ms_p50", "op_ms_p90")) > 0


def test_experiment_check_rejects_a_wrong_pseudo_count(monkeypatch, tmp_path):
    state = _small_synth(monkeypatch)(tmp_path).setup(0)
    config = state["config"]
    record = spelaudio.experiment.run_experiment(config)
    spel = config.spel

    def problems():
        return workloads.check_experiment_output(
            config.output_dir, record, spel.per_step, spel.n_steps, state["pool"]
        )[0]

    assert problems() == []
    csv_path = config.output_dir / "results.csv"
    csv_path.write_text(csv_path.read_text().replace("\n1,8,", "\n1,7,"))
    assert problems() == ["round 1: pseudo_count 7 != 8"]


def test_a_differing_digest_fails_every_operation_of_its_phase():
    ok = workloads.Outcome(latencies_ms=[1.0, 2.0], digest="a")
    odd = workloads.Outcome(latencies_ms=[1.0, 2.0, 3.0], digest="b")
    broken = workloads.Outcome(latencies_ms=[1.0], failed=1)
    assert run.count_failures([ok, odd, broken], "a", "key") == 4


def test_unique_frames_of_a_scan_are_the_frames_of_the_whole_recording():
    # 1 s windows at 0.5 s hop over 3 s: 5 windows of 243 frames, but the
    # union is just the 743 frames of the 3 s recording (hop 64, window 512).
    assert workloads.WindowScan._unique_frames(48000) == (48000 - 512) // 64 + 1


def test_tracer_restores_originals_when_the_traced_call_raises():
    tracer = spans.Tracer()
    original = spelaudio.engine.select_pseudo
    with pytest.raises(ValueError):
        with tracer:
            spelaudio.engine.select_pseudo(None, spelaudio.engine.UnlabeledSet(
                inputs=[], ids=[]), 1)
    assert spelaudio.engine.select_pseudo is original
    assert [s.name for s in tracer.spans] == ["engine.select_pseudo"]
    assert spans.check_nesting(tracer.spans) == []
