"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them live).
The behavioral benchmark (criteria 5 and 6) runs once and is shared.
"""

import dataclasses
import functools
import time

import numpy as np

from spelaudio import learner
from spelaudio.config import config_from_text
from spelaudio.dsp import Signal, StftConfig, mel_filterbank, preprocess, stft
from spelaudio.engine import run_spel, load_round, select_pseudo
from spelaudio.ensemble import avg_predict
from spelaudio.experiment import (
    benchmark_config,
    build_data,
    build_learner_specs,
    enumerate_grid,
    run_experiment,
    sweep,
)
from spelaudio.learner import LearnerSpec, init_params, n_parameters
from spelaudio.metrics import CHI2_CRITICAL_P01, accuracy, lrap, mcnemar, wlrap

from conftest import float64_member
from test_dsp import stft_direct
from test_learner import assert_gradients_match, smooth_random_batch
from test_metrics import lrap_slow, random_multilabel_case


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_stft_oracle_equivalence():
    """Transform equals the direct summation oracle on 20 random signals."""
    rng = np.random.default_rng(2024)
    configs = [
        StftConfig(n_fft=64, hop=16, win_length=32),
        StftConfig(n_fft=128, hop=32, win_length=128),
        StftConfig(n_fft=256, hop=64, win_length=200),
        StftConfig(n_fft=1024, hop=64, win_length=512),
    ]
    start = time.perf_counter()
    worst = 0.0
    for i in range(20):
        config = configs[i % len(configs)]
        # the full-size transform gets longer signals, small configs vary widely
        if config.n_fft == 1024:
            length = int(rng.integers(2048, 8193))
        else:
            length = int(rng.integers(config.win_length, 4097))
        x = rng.normal(size=length)
        got = stft(Signal(x, 16000), config)
        want = stft_direct(x, config)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1: stft matches direct-summation oracle",
        worst < 1e-9 and elapsed < 10.0,
        f"max abs diff {worst:.2e}, {elapsed:.1f}s for 20 signals",
    )


def test_criterion_2_gradient_correctness():
    """Analytic gradients match central finite differences on 10 random learners."""
    rng = np.random.default_rng(7)
    start = time.perf_counter()
    checked = 0
    for trial in range(10):
        head = "multiclass" if trial % 2 == 0 else "multilabel"
        if trial % 3 == 2:
            spec = LearnerSpec(
                input_shape=(int(rng.integers(6, 9)), int(rng.integers(6, 9))),
                n_outputs=int(rng.integers(2, 5)),
                hidden_layers=(int(rng.integers(4, 8)),),
                conv_stem=((int(rng.integers(2, 4)), 3, 2),),
                head=head,
            )
        else:
            spec = LearnerSpec(
                input_shape=(1, int(rng.integers(6, 14))),
                n_outputs=int(rng.integers(2, 6)),
                hidden_layers=tuple(
                    int(rng.integers(4, 10)) for _ in range(int(rng.integers(1, 3)))
                ),
                head=head,
            )
        assert n_parameters(spec) <= 2000
        params = float64_member(init_params(spec, seed=trial))
        assert_gradients_match(params, smooth_random_batch(rng, spec, params), rtol=1e-4)
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: gradients match finite differences",
        checked == 10 and elapsed < 30.0,
        f"10 learners, rel err < 1e-4, {elapsed:.1f}s",
    )


def test_criterion_3_metric_oracles():
    """Ranking metrics vs brute-force counting; McNemar hand values."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        scores, truth = random_multilabel_case(rng, n_samples=100, n_labels=24)
        worst = max(worst, abs(lrap(scores, truth) - lrap_slow(scores, truth)))
        worst = max(
            worst, abs(wlrap(scores, truth) - lrap_slow(scores, truth, weighted=True))
        )
    ranking_ok = worst < 1e-12

    truth = np.zeros(40, dtype=int)
    a = np.zeros(40, dtype=int)
    b = np.zeros(40, dtype=int)
    b[:15] = 1
    a[15:20] = 1
    first = mcnemar(a, b, truth)
    b2 = np.zeros(40, dtype=int)
    a2 = np.zeros(40, dtype=int)
    b2[:20] = 1
    a2[20:22] = 1
    second = mcnemar(a2, b2, truth)
    mcnemar_ok = (
        abs(first.statistic - 4.05) < 1e-9
        and not first.significant
        and abs(second.statistic - 289.0 / 22.0) < 1e-9
        and second.significant
        and second.statistic > CHI2_CRITICAL_P01
    )
    report(
        "criterion 3: metric oracles agree",
        ranking_ok and mcnemar_ok,
        f"lrap max diff {worst:.2e}; mcnemar 4.05 / {289.0 / 22.0:.3f}",
    )


MINI_STRUCT_TEXT = """
[experiment]
task = multiclass
source = synthetic
seed = 31

[dsp]
n_fft = 128
hop = 64
win_length = 128
n_mels = 12
clip_seconds = 0.15

[spel]
members = 2
steps = {steps}
per_step = {per_step}
learning_rate = 0.003
pretrain_epochs = 2
batch_size = 16

[learner]
hidden = 16

[synthetic]
classes = 3
source_samples = 90
val_samples = 0
unlabeled_samples = 60
test_samples = 45
sample_rate = 4000
base_freq = 300
freq_step = 250
harmonics = 1
source_noise = 0.05
target_offset = 40
target_noise = 0.2
"""


def _structural_run(per_step, steps, checkpoint_dir=None):
    cfg = config_from_text(MINI_STRUCT_TEXT.format(steps=steps, per_step=per_step))
    data = build_data(cfg)
    specs = build_learner_specs(cfg, data)
    result = run_spel(data, cfg.spel, specs, checkpoint_dir=checkpoint_dir)
    return cfg, data, result


def test_criterion_4_structural_invariants(tmp_path):
    """Pool-size law, selection dominance, baseline identity, determinism."""
    pool = 60
    size_law_ok = True
    for per_step in (10, 50):
        for steps in range(0, 6):
            _, _, result = _structural_run(per_step, steps)
            assert len(result.reports) == steps + 1
            for j in range(1, steps + 1):
                expected = min(per_step * j, pool)
                if result.reports[j].pseudo_count != expected:
                    size_law_ok = False
                if len(result.reports[j].pseudo.ids) != expected:
                    size_law_ok = False

    dominance_ok = True
    for per_step in (10, 50):
        ckpt = tmp_path / f"ckpt_{per_step}"
        cfg, data, result = _structural_run(per_step, 5, checkpoint_dir=ckpt)
        specs = build_learner_specs(cfg, data)
        for j in range(1, 6):
            prev_ensemble, _, _ = load_round(ckpt, j - 1, cfg.spel, specs)
            pred = avg_predict(prev_ensemble, data.unlabeled.inputs)
            recorded = result.reports[j].pseudo
            fresh = select_pseudo(pred, data.unlabeled, min(per_step * j, pool))
            if not np.array_equal(fresh.ids, recorded.ids):
                dominance_ok = False
            selected = np.isin(data.unlabeled.ids, recorded.ids)
            if selected.all():
                continue
            if recorded.confidences.min() < pred.confidence[~selected].max():
                dominance_ok = False

    _, _, zero_run = _structural_run(50, 0)
    baseline_ok = np.array_equal(
        zero_run.prediction.probabilities, zero_run.baseline_prediction.probabilities
    ) and np.array_equal(zero_run.prediction.labels, zero_run.baseline_prediction.labels)

    _, _, first = _structural_run(50, 3)
    _, _, second = _structural_run(50, 3)
    determinism_ok = np.array_equal(
        first.prediction.probabilities, second.prediction.probabilities
    )

    report(
        "criterion 4: self-paced loop structural invariants",
        size_law_ok and dominance_ok and baseline_ok and determinism_ok,
        f"size law {size_law_ok}, dominance {dominance_ok}, "
        f"k=0 identity {baseline_ok}, determinism {determinism_ok}",
    )


@functools.lru_cache(maxsize=1)
def benchmark_results():
    """Ten seeded runs of the frozen benchmark, ensemble and single-model."""
    start = time.perf_counter()
    rows = []
    pooled_spel, pooled_base, pooled_truth = [], [], []
    for seed in range(10):
        cfg = benchmark_config(seed)
        data = build_data(cfg)
        specs = build_learner_specs(cfg, data)
        result = run_spel(data, cfg.spel, specs)
        base_acc = accuracy(result.baseline_prediction.labels, data.test.targets)
        spel_acc = accuracy(result.prediction.labels, data.test.targets)
        member0 = learner.forward(result.ensemble.members[0], data.test.inputs).argmax(1)
        member0_acc = accuracy(member0, data.test.targets)
        pooled_spel.append(result.prediction.labels)
        pooled_base.append(result.baseline_prediction.labels)
        pooled_truth.append(data.test.targets)

        single = run_spel(data, dataclasses.replace(cfg.spel, n_members=1), specs[:1])
        single_base = accuracy(single.baseline_prediction.labels, data.test.targets)
        single_spel = accuracy(single.prediction.labels, data.test.targets)
        rows.append((seed, base_acc, spel_acc, single_base, single_spel, member0_acc))

    pooled = mcnemar(
        np.concatenate(pooled_spel), np.concatenate(pooled_base), np.concatenate(pooled_truth)
    )
    elapsed = time.perf_counter() - start
    return rows, pooled, elapsed


def test_criterion_5_behavioral_reproduction():
    """Self-paced ensemble beats its baseline across 10 seeds, significantly."""
    rows, pooled, elapsed = benchmark_results()
    base_accs = np.array([r[1] for r in rows])
    spel_accs = np.array([r[2] for r in rows])
    for seed, base_acc, spel_acc, *_ in rows:
        print(
            f"  seed {seed}: baseline {base_acc:.4f} -> spel {spel_acc:.4f} "
            f"({spel_acc - base_acc:+.4f})"
        )
    mean_ok = spel_accs.mean() > base_accs.mean()
    floor_ok = bool(np.all(spel_accs >= base_accs - 0.005))
    significant = pooled.significant
    time_ok = elapsed < 900.0
    report(
        "criterion 5: spel beats the baseline ensemble",
        mean_ok and floor_ok and significant and time_ok,
        f"mean {base_accs.mean():.4f} -> {spel_accs.mean():.4f}, "
        f"min gain {float((spel_accs - base_accs).min()):+.4f}, "
        f"mcnemar {pooled.statistic:.1f} (b={pooled.b}, c={pooled.c}), {elapsed:.0f}s",
    )


def paired_summary(ens_gains, single_gains) -> str:
    """Mean, sample SD and sign counts of the per-seed differences. Gains
    are differences of test-set counts over its size; rounding to 12 places
    makes an equal pair of them read exactly 0."""
    d = np.round(np.asarray(ens_gains) - np.asarray(single_gains), 12)
    return (
        f"mean {d.mean():+.4f}, SD {d.std(ddof=1):.4f}; over {len(d)} seeds: "
        f"{int((d > 0).sum())} +, {int((d == 0).sum())} 0, {int((d < 0).sum())} -"
    )


def test_criterion_6_ensemble_beats_single_model_spl():
    """Mean ensemble gain at least matches the single-model self-paced gain."""
    rows, _, _ = benchmark_results()
    ens_gains = np.array([r[2] - r[1] for r in rows])
    single_gains = np.array([r[4] - r[3] for r in rows])
    print(
        f"  ensemble gains: mean {ens_gains.mean():+.4f} "
        + " ".join(f"{g:+.3f}" for g in ens_gains)
    )
    print(
        f"  single gains:   mean {single_gains.mean():+.4f} "
        + " ".join(f"{g:+.3f}" for g in single_gains)
    )
    print(f"  ensemble minus single gain: {paired_summary(ens_gains, single_gains)}")
    # Member 0 has bitwise the same pretrained weights in both arms, so its
    # gain inside the ensemble is taken against the single run's baseline.
    member0_gains = np.array([r[5] - r[3] for r in rows])
    print(
        "  member 0 in the ensemble minus member 0 alone: "
        f"{paired_summary(member0_gains, single_gains)}"
    )
    report(
        "criterion 6: ensemble self-pacing gains >= single-model self-pacing",
        float(ens_gains.mean()) >= float(single_gains.mean()),
        f"ensemble {ens_gains.mean():+.4f} vs single {single_gains.mean():+.4f}",
    )


SWEEP_TEXT = """
[experiment]
task = multiclass
source = synthetic
seed = 4
output_dir = {out}

[dsp]
n_fft = 128
hop = 64
win_length = 128
n_mels = 12
clip_seconds = 0.15

[spel]
members = 2
steps = 1
per_step = 10
learning_rate = 0.003
pretrain_epochs = 4
batch_size = 16

[learner]
hidden = 16

[synthetic]
classes = 3
source_samples = 150
val_samples = 90
unlabeled_samples = 90
test_samples = 30
sample_rate = 4000
base_freq = 300
freq_step = 250
freq_jitter = 60
harmonics = 1
source_noise = 0.1
target_offset = 70
target_noise = 0.45

[sweep]
m_grid = 10
budget = 60
"""


def test_criterion_7_improvement_curve_emission(tmp_path):
    """Sweep up to k=6 emits per-round improvement CSVs with the right shape."""
    grid_pairs = enumerate_grid((50, 100, 150, 200), 1000)
    grid_ok = len(grid_pairs) == 41 and all(m * k <= 1000 for m, k in grid_pairs)

    text = SWEEP_TEXT.format(out=tmp_path / "sweep")
    results = sweep(config_from_text(text))
    pairs = [(m, k) for m, k, _ in results]
    pairs_ok = pairs == [(10, k) for k in range(1, 7)]

    csv_path = tmp_path / "sweep" / "m010_k06" / "results.csv"
    lines = csv_path.read_text().splitlines()
    header_ok = lines[0].split(",") == [
        "round",
        "pseudo_count",
        "min_selected_confidence",
        "accuracy",
        "uar",
        "improvement",
    ]
    rows_ok = len(lines) == 1 + 7
    improvement_zero = float(lines[1].split(",")[-1]) == 0.0
    improvements = [float(line.split(",")[-1]) for line in lines[1:]]
    print("  k=6 improvement curve: " + " ".join(f"{v:+.4f}" for v in improvements))
    report(
        "criterion 7: per-round improvement curve emitted",
        grid_ok and pairs_ok and header_ok and rows_ok and improvement_zero,
        f"grid 41 pairs, sweep rows {len(lines) - 1}, improvement(0)={improvements[0]:+.4f}",
    )


def test_criterion_8_dsp_pipeline_fuzz():
    """1000 varied clips through the default-parameter frontend, no violations."""
    rng = np.random.default_rng(1234)
    config = StftConfig(n_fft=1024, hop=64, win_length=512)
    fb = mel_filterbank(256, 1024, 16000)
    target = 16000
    expected_frames = (target - config.win_length) // config.hop + 1
    violations = 0
    for i in range(1000):
        kind = i % 5
        length = int(rng.integers(800, 16001))
        if kind == 0:
            x = rng.normal(size=length)
        elif kind == 1:
            freq = rng.uniform(20, 7900)
            x = rng.uniform(0.1, 1.0) * np.sin(
                2 * np.pi * freq * np.arange(length) / 16000
            )
        elif kind == 2:
            x = np.zeros(length)
        elif kind == 3:
            x = np.zeros(length)
            x[rng.integers(0, length, size=max(1, length // 100))] = rng.choice([-1.0, 1.0])
        else:
            x = np.clip(rng.normal(scale=10.0, size=length), -1.0, 1.0)
        image = preprocess(Signal(x, 16000), config, fb, target).values
        if image.shape != (expected_frames, 256):
            violations += 1
        elif not np.all(np.isfinite(image)):
            violations += 1
        elif image.min() < -1.0 or image.max() > 1.0:
            violations += 1
    report(
        "criterion 8: frontend contract fuzz",
        violations == 0,
        f"1000 clips, shape ({expected_frames}, 256), violations {violations}",
    )
