"""End-to-end acceptance suite: one test per criterion, each printing a
PASS line with its measured numbers (run with -s to watch them stream)."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from lossgate.cli import main as cli_main
from lossgate.data import Example, generate_toy_corpus, pack, pack_examples, vectorize, write_jsonl
from lossgate.metapredictor import NaiveBayesModel
from lossgate.metrics import AgotParams, EnergyParams, SkipFractions, TimingModel, agot, energy_co2, t_norm, total_time
from lossgate.model import TargetModel
from lossgate.threshold import ThresholdState
from lossgate.trainer import (
    DECISION_FORWARD_ONLY,
    DECISION_FULL,
    DECISION_SKIPPED,
    Stage,
    Trainer,
    TrainerConfig,
    build_epoch_batches,
    run,
    run_random_skip,
)

# the frozen acceptance setup: a redundant, noisy, hard-enough corpus and a
# trainer configuration that reliably reaches the predictor stage on it
TOY_KW = dict(num_examples=20000, duplication=5, noise_rate=0.05, seed=0)
EVAL_KW = dict(num_examples=2000, duplication=1, noise_rate=0.0, seed=10001)
ACCEPT_CFG = TrainerConfig(
    mode="three-stage", epochs=1, batch_size=8, seed=0,
    n0_fraction=0.2, threshold_window=64, predictor_window=8, alt=0.5,
    skip_margin_gamma=0.87,
)
SEEDS = range(5)


@pytest.fixture(scope="session")
def toy_corpus():
    train = generate_toy_corpus(**TOY_KW)
    evalset = generate_toy_corpus(**EVAL_KW)
    for ex in train:
        ex.features()
    for ex in evalset:
        ex.features()
    return train, evalset


@pytest.fixture(scope="session")
def matched_runs(toy_corpus):
    """Per seed: three-stage, train-all, and the matched-ratio random control.

    The elapsed time covers exactly these fifteen runs.
    """
    train, evalset = toy_corpus
    started = time.perf_counter()
    rows = []
    for seed in SEEDS:
        three = run(replace(ACCEPT_CFG, seed=seed), train, evalset)
        everything = run(replace(ACCEPT_CFG, mode="train-all", seed=seed), train, evalset)
        ratio = three.alpha_b + three.alpha_fb
        control = run_random_skip(replace(ACCEPT_CFG, seed=seed), train, ratio, evalset)
        rows.append({"three": three, "all": everything, "random": control, "ratio": ratio})
    return {"rows": rows, "elapsed": time.perf_counter() - started}


def test_criterion_01_naive_bayes_matches_bruteforce_bayes():
    """On tiny instances the log-space posterior equals plain smoothed Bayes."""

    def oracle(class_counts, bucket_counts, alpha, query):
        vocab = sorted({b for c in (0, 1) for b in bucket_counts[c]})
        total = class_counts[0] + class_counts[1]
        joint = []
        for c in (0, 1):
            p = (class_counts[c] + alpha) / (total + 2 * alpha)
            for b in vocab:
                theta = (bucket_counts[c].get(b, 0) + alpha) / (class_counts[c] + 2 * alpha)
                p *= theta if b in query else (1.0 - theta)
            joint.append(p)
        return joint[1] / (joint[0] + joint[1])

    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        vocab = [int(b) for b in rng.choice(500, size=rng.integers(1, 5), replace=False)]
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        model = NaiveBayesModel(smoothing_alpha=alpha)
        class_counts = [0, 0]
        bucket_counts = [{}, {}]
        for _ in range(int(rng.integers(1, 21))):
            label = int(rng.integers(0, 2))
            present = frozenset(b for b in vocab if rng.random() < 0.5)
            model.update(pack([present]), label)
            class_counts[label] += 1
            for b in present:
                bucket_counts[label][b] = bucket_counts[label].get(b, 0) + 1
        for _ in range(3):
            query = frozenset(b for b in vocab if rng.random() < 0.5)
            expected = oracle(class_counts, bucket_counts, alpha, query)
            got = model.posterior(query)
            worst = max(worst, abs(got - expected))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: naive bayes vs brute force, worst |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_gradients_match_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        model = TargetModel(learning_rate=0.1)
        tokens = [f"t{i}" for i in range(25)]
        for t in tokens:
            model.weights[vectorize([t])[0]] = rng.normal(scale=0.8)
        model.bias = rng.normal(scale=0.3)
        examples = []
        for _ in range(int(rng.integers(2, 9))):
            chosen = list(rng.choice(tokens, size=int(rng.integers(1, 6)), replace=False))
            examples.append(Example(" ".join(chosen), chosen, int(rng.integers(0, 2))))
        batch = pack_examples(examples)
        grad = model.batch_gradient(model.forward(batch))
        dense = np.zeros_like(model.weights)
        np.add.at(dense, grad.indices, grad.values)
        touched = np.unique(grad.indices)
        coords = rng.choice(touched, size=min(5, touched.size), replace=False)
        h = 1e-4
        for c in coords:
            orig = model.weights[c]
            model.weights[c] = orig + h
            up = model.forward(batch).batch_loss
            model.weights[c] = orig - h
            down = model.forward(batch).batch_loss
            model.weights[c] = orig
            fd = (up - down) / (2 * h)
            rel = abs(fd - dense[c]) / max(abs(dense[c]), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert worst < 1e-5
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2 PASS: gradient check, worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_threshold_matches_slice_oracle():
    rng = np.random.default_rng(303)
    worst = 0.0
    for k in (1, 8, 64):
        state = ThresholdState(k)
        stream = rng.uniform(0.0, 3.0, size=1000)
        for i, loss in enumerate(stream):
            state.observe(loss)
            if i + 1 >= k:
                expected = sum(stream[i + 1 - k : i + 1]) / k
                worst = max(worst, abs(state.l_low - expected))
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 3 PASS: sliding mean vs slice oracle, worst |diff| {worst:.2e}")


def test_criterion_04_metric_formulas():
    timing = TimingModel(1.0, 2.0)
    assert total_time(SkipFractions(0.1, 0.6), timing, 1) == pytest.approx(1.0, abs=1e-9)
    assert total_time(SkipFractions(0.0, 0.0), timing, 1) == pytest.approx(3.0, abs=1e-9)
    assert total_time(SkipFractions(0.0, 1.0), timing, 1) == pytest.approx(0.0, abs=1e-9)
    assert t_norm(1.0, 6.7) == pytest.approx(1 / 6.7, abs=1e-9)
    params = AgotParams(epsilon=0.95, a_base=0.5, a_full=0.9)
    assert agot(0.88, 0.25, params) == pytest.approx(0.95 * 0.25 ** -0.05, abs=1e-9)
    assert agot(0.9, 1.0, params) == 1.0  # normalization anchor, exact
    kwh, co2 = energy_co2(EnergyParams(p_cpu=100, p_dram=50, p_gpu=250, gpu_count=1, hours=10))
    assert kwh == pytest.approx(6.32, abs=1e-9)
    assert co2 == pytest.approx(6.02928, abs=1e-9)
    print("\nACCEPTANCE 4 PASS: metric formulas reproduce the substitution cases")


def test_criterion_05_state_machine_invariants_over_100_runs():
    corpus = generate_toy_corpus(2000, duplication=4, noise_rate=0.05, seed=77)
    for ex in corpus:
        ex.features()
    started = time.perf_counter()
    for i in range(100):
        cfg = TrainerConfig(
            mode="three-stage",
            epochs=2,
            batch_size=16,
            seed=i,
            n0_fraction=(0.1, 0.2)[i % 2],
            threshold_window=(8, 16)[(i // 2) % 2],
            predictor_window=(4, 8)[(i // 4) % 2],
            alt=(0.45, 0.6)[(i // 8) % 2],
            skip_margin_gamma=(0.87, 1.0)[(i // 16) % 2],
            record_trace=True,
        )
        trainer = Trainer(cfg, corpus)
        report = trainer.run()

        stages = [t.stage for t in report.traces]
        assert all(a <= b for a, b in zip(stages, stages[1:])), f"run {i}: stage went backward"
        assert (
            report.backward_skipped + report.forward_skipped + report.full_steps
            == report.batches_total
        ), f"run {i}: counters do not balance"
        for t in report.traces:
            if t.stage == int(Stage.WARMUP):
                assert t.decision == DECISION_FULL, f"run {i}: skip during warmup"
            elif t.stage == int(Stage.BACKWARD_FILTER):
                assert t.decision != DECISION_SKIPPED, f"run {i}: forward skip in stage 1"

        epoch_batches = build_epoch_batches(corpus, cfg)
        m = len(epoch_batches)
        replayed = TargetModel(learning_rate=cfg.learning_rate)
        for t in report.traces:
            if t.decision != DECISION_FULL:
                continue
            replayed.backward(replayed.forward(epoch_batches[t.batch % m]))
        assert np.array_equal(replayed.weights, trainer.model.weights), f"run {i}: replay drifted"
        assert replayed.bias == trainer.model.bias, f"run {i}: replay bias drifted"
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE 5 PASS: invariants + bit-exact replay on 100 runs, {elapsed:.1f}s")


def test_criterion_06_loss_gating_beats_random_skipping(matched_runs):
    rows = matched_runs["rows"]
    elapsed = matched_runs["elapsed"]
    mean_three = float(np.mean([r["three"].accuracy for r in rows]))
    mean_random = float(np.mean([r["random"].accuracy for r in rows]))
    margin_points = 100 * (mean_three - mean_random)
    assert margin_points >= 0.5
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 6 PASS: three-stage {100 * mean_three:.2f}% vs matched random "
        f"{100 * mean_random:.2f}% (+{margin_points:.2f} pts), runs took {elapsed:.1f}s"
    )


def test_criterion_07_high_skip_fraction_with_small_accuracy_cost(matched_runs):
    rows = matched_runs["rows"]
    mean_ratio = float(np.mean([r["ratio"] for r in rows]))
    mean_three = float(np.mean([r["three"].accuracy for r in rows]))
    mean_all = float(np.mean([r["all"].accuracy for r in rows]))
    drop_points = 100 * (mean_all - mean_three)
    assert mean_ratio >= 0.40
    assert drop_points <= 2.0
    print(
        f"\nACCEPTANCE 7 PASS: skipped {100 * mean_ratio:.1f}% of batches, "
        f"accuracy {100 * mean_three:.2f}% vs train-all {100 * mean_all:.2f}% "
        f"({drop_points:+.2f} pts)"
    )


def test_criterion_08_more_epochs_more_relative_savings(toy_corpus, matched_runs):
    train, evalset = toy_corpus
    pairs = []
    for seed in SEEDS:
        one = matched_runs["rows"][seed]["three"]
        three_epochs = run(replace(ACCEPT_CFG, seed=seed, epochs=3), train, evalset)
        assert three_epochs.t_norm < one.t_norm, f"seed {seed}: no relative saving at 3 epochs"
        pairs.append((one.t_norm, three_epochs.t_norm))
    summary = " ".join(f"{a:.3f}->{b:.3f}" for a, b in pairs)
    print(f"\nACCEPTANCE 8 PASS: T_norm shrinks from 1 to 3 epochs on every seed ({summary})")


def test_criterion_09_threshold_only_mode_skips_backward_only(toy_corpus):
    train, evalset = toy_corpus
    alphas = []
    for seed in SEEDS:
        report = run(replace(ACCEPT_CFG, mode="auto-threshold-only", seed=seed), train, evalset)
        assert report.alpha_fb == 0.0, f"seed {seed}: forward skipped in threshold-only mode"
        assert report.alpha_b > 0.0, f"seed {seed}: threshold mechanism inactive"
        alphas.append(report.alpha_b)
    print(f"\nACCEPTANCE 9 PASS: alpha_fb always 0, alpha_b in [{min(alphas):.3f}, {max(alphas):.3f}]")


def test_criterion_10_sweep_rerun_is_byte_identical(tmp_path):
    corpus = generate_toy_corpus(
        600, duplication=3, noise_rate=0.05, seed=4,
        class_vocab=60, shared_vocab=100, min_tokens=5, max_tokens=9, indicative_prob=0.4,
    )
    data_path = tmp_path / "toy.jsonl"
    write_jsonl(corpus, str(data_path))
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = cli_main([
            "sweep", "--data", str(data_path), "--out", str(out),
            "--epochs-grid", "1,2", "--seeds", "0,1", "--n0-grid", "0.1,0.2",
            "--window-grid", "4", "--alt-grid", "0.5", "--fixed-thresholds", "0.3,0.5",
            "--batch-size", "16", "--threshold-window", "8",
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    print(f"\nACCEPTANCE 10 PASS: sweep CSV byte-identical across reruns ({len(outputs[0])} bytes)")
