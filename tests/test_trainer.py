import json
import math
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from lossgate.data import Example, generate_toy_corpus
from lossgate.metapredictor import NaiveBayesModel
from lossgate.model import TargetModel
from lossgate.threshold import make_label
from lossgate.trainer import (
    DECISION_FORWARD_ONLY,
    DECISION_FULL,
    DECISION_SKIPPED,
    MODES,
    Stage,
    Trainer,
    TrainerConfig,
    build_epoch_batches,
    csv_field,
    run,
    run_random_skip,
    write_trace,
)

# small but non-trivial corpus: quick runs, real filtering behaviour
CORPUS = generate_toy_corpus(
    1600, duplication=4, noise_rate=0.05, seed=5,
    class_vocab=120, shared_vocab=200, min_tokens=5, max_tokens=10, indicative_prob=0.3,
)
EVAL = generate_toy_corpus(
    400, duplication=1, noise_rate=0.0, seed=6,
    class_vocab=120, shared_vocab=200, min_tokens=5, max_tokens=10, indicative_prob=0.3,
)

BASE = TrainerConfig(
    epochs=2, batch_size=16, seed=0, threshold_window=8, predictor_window=8,
    n0_fraction=0.1, alt=0.6, skip_margin_gamma=0.9, record_trace=True,
)


def run_mode(mode, **kw):
    return run(replace(BASE, mode=mode, **kw), CORPUS, EVAL)


def replay_backward_batches(report, config, corpus):
    """Re-apply plain SGD over exactly the batches whose backward pass ran."""
    epoch_batches = build_epoch_batches(corpus, config)
    m = len(epoch_batches)
    model = TargetModel(learning_rate=config.learning_rate)
    for trace in report.traces:
        if trace.decision != DECISION_FULL:
            continue
        epoch, within = divmod(trace.batch, m)
        assert epoch == trace.epoch
        model.backward(model.forward(epoch_batches[within]))
    return model


# -- baseline modes ------------------------------------------------------------


def test_train_all_never_skips():
    report = run_mode("train-all")
    assert report.alpha_b == 0.0
    assert report.alpha_fb == 0.0
    assert report.t_norm == 1.0
    assert report.agot == 1.0
    assert report.full_steps == report.batches_total


def test_fixed_threshold_filters_from_first_batch():
    # the zero-initialized model starts at loss ln 2, below a gate of 0.8
    report = run_mode("fixed-threshold", fixed_threshold=0.8)
    assert report.traces[0].decision == DECISION_FORWARD_ONLY
    assert report.alpha_fb == 0.0
    assert report.backward_skipped > 0


def test_fixed_threshold_gate_is_strict_less_than():
    # at zero weights every example's loss is ln 2, so the first batch sits
    # exactly on the gate and must train
    report = run_mode("fixed-threshold", fixed_threshold=math.log(2))
    assert report.traces[0].loss == math.log(2)
    assert report.traces[0].decision == DECISION_FULL
    for t in report.traces:
        assert (t.decision == DECISION_FORWARD_ONLY) == (t.loss < math.log(2))
    assert report.backward_skipped > 0


def test_fixed_threshold_needs_value():
    with pytest.raises(ValueError):
        run_mode("fixed-threshold")


def test_auto_threshold_only_never_skips_forward():
    report = run_mode("auto-threshold-only")
    assert report.alpha_fb == 0.0
    assert report.alpha_b > 0.0
    assert report.stage_boundaries["full_filter_start"] is None
    stages = {t.stage for t in report.traces}
    assert stages <= {int(Stage.WARMUP), int(Stage.BACKWARD_FILTER)}


def test_random_skip_ratio_zero_equals_train_all_bitwise():
    cfg_rand = replace(BASE, mode="random-skip", random_skip_ratio=0.0)
    cfg_all = replace(BASE, mode="train-all")
    t_rand = Trainer(cfg_rand, CORPUS, EVAL)
    t_all = Trainer(cfg_all, CORPUS, EVAL)
    r_rand, r_all = t_rand.run(), t_all.run()
    assert np.array_equal(t_rand.model.weights, t_all.model.weights)
    assert t_rand.model.bias == t_all.model.bias
    assert r_rand.accuracy == r_all.accuracy


def test_random_skip_count_within_binomial_bounds():
    examples = [Example(f"w{i}", [f"w{i}"], i % 2) for i in range(1000)]
    cfg = TrainerConfig(mode="random-skip", random_skip_ratio=0.5, epochs=1, batch_size=1, seed=123)
    report = run(cfg, examples)
    low = stats.binom.ppf(0.005, 1000, 0.5)
    high = stats.binom.ppf(0.995, 1000, 0.5)
    assert low <= report.forward_skipped <= high


def test_random_skip_same_seed_same_mask():
    a = run_mode("random-skip", random_skip_ratio=0.4)
    b = run_mode("random-skip", random_skip_ratio=0.4)
    assert [t.decision for t in a.traces] == [t.decision for t in b.traces]
    assert a.accuracy == b.accuracy


def test_run_random_skip_wrapper_validates_ratio():
    with pytest.raises(ValueError):
        run_random_skip(BASE, CORPUS, 1.0, EVAL)


def test_run_skipping_every_batch_reports_null_agot():
    # AGOT divides by a power of T_norm, which is 0 when no pass ran
    report = run_mode("random-skip", random_skip_ratio=0.999999, a_full=0.9)
    assert report.forward_skipped == report.batches_total
    assert report.t_norm == 0.0
    assert report.agot is None
    assert report.to_json_dict()["agot"] is None


# -- stage transitions ------------------------------------------------------------


def test_warmup_exit_at_budget_with_full_window():
    # 100 batches per epoch, 10% budget, window 8: filtering starts at batch 10
    corpus = generate_toy_corpus(1000, duplication=2, noise_rate=0.0, seed=9)
    cfg = TrainerConfig(
        mode="three-stage", epochs=1, batch_size=10, seed=1,
        n0_fraction=0.1, threshold_window=8, predictor_window=4, alt=0.3,
        record_trace=True,
    )
    report = run(cfg, corpus)
    assert report.stage_boundaries["backward_filter_start"] == 10
    assert all(t.stage == int(Stage.WARMUP) for t in report.traces[:10])
    assert report.traces[10].stage == int(Stage.BACKWARD_FILTER)


def test_warmup_extends_until_window_full():
    corpus = generate_toy_corpus(1000, duplication=2, noise_rate=0.0, seed=9)
    cfg = TrainerConfig(
        mode="three-stage", epochs=1, batch_size=10, seed=1,
        n0_fraction=0.1, threshold_window=25, predictor_window=4, alt=0.3,
    )
    report = run(cfg, corpus)
    assert report.stage_boundaries["backward_filter_start"] == 25


def test_unreachable_alt_keeps_run_in_stage_one():
    report = run_mode("three-stage", alt=1e-9)
    assert report.stage_boundaries["full_filter_start"] is None
    assert report.forward_skipped == 0
    assert report.backward_skipped > 0  # threshold filtering still live


def test_stage_two_reached_with_generous_alt():
    report = run_mode("three-stage", alt=0.6)
    assert report.stage_boundaries["full_filter_start"] is not None
    assert report.forward_skipped > 0


def test_stage_sequence_monotone_and_counters_balance():
    for seed in range(4):
        report = run_mode("three-stage", seed=seed)
        stages = [t.stage for t in report.traces]
        assert all(a <= b for a, b in zip(stages, stages[1:] ))
        assert (
            report.backward_skipped + report.forward_skipped + report.full_steps
            == report.batches_total
        )


def test_stage_purity():
    report = run_mode("three-stage")
    for trace in report.traces:
        if trace.stage == int(Stage.WARMUP):
            assert trace.decision == DECISION_FULL
        elif trace.stage == int(Stage.BACKWARD_FILTER):
            assert trace.decision in (DECISION_FULL, DECISION_FORWARD_ONLY)
    skipped = [t.batch for t in report.traces if t.decision == DECISION_SKIPPED]
    stage2 = [t.batch for t in report.traces if t.stage == int(Stage.FULL_FILTER)]
    assert set(skipped) <= set(stage2)


def test_batch_ordinals_strictly_increasing():
    report = run_mode("three-stage")
    ordinals = [t.batch for t in report.traces]
    assert ordinals == list(range(report.batches_total))


@pytest.mark.parametrize("seed", range(3))
def test_stage_two_starts_at_the_first_full_predictor_loss_window_below_alt(seed):
    """Replay stage 1 on a fresh predictor: each batch is labelled against the
    frozen gate, its loss is measured before the update and counted once both
    classes are seen, and stage 2 starts after the first batch whose last
    ``predictor_window`` losses average below ``alt``."""
    cfg = replace(BASE, mode="three-stage", seed=seed)
    report = run(cfg, CORPUS, EVAL)
    bounds = report.stage_boundaries
    assert bounds["full_filter_start"] is not None
    gate = cfg.skip_margin_gamma * bounds["l_low"]
    epoch_batches = build_epoch_batches(CORPUS, cfg)
    predictor = NaiveBayesModel(smoothing_alpha=cfg.smoothing_alpha)
    losses = []
    switch = None
    for trace in report.traces:
        if trace.stage != int(Stage.BACKWARD_FILTER):
            continue
        batch = epoch_batches[trace.batch % len(epoch_batches)]
        label = make_label(trace.loss, gate)
        if predictor.has_both_classes:
            losses.append(predictor.loss(batch, label))
        predictor.update(batch, label)
        last = losses[-cfg.predictor_window:]
        if len(last) == cfg.predictor_window and sum(last) / len(last) < cfg.alt:
            switch = trace.batch + 1
            break
    assert switch == bounds["full_filter_start"]


def test_stage_one_learning_never_touches_training():
    """Three-stage that never leaves stage 1 trains exactly as
    auto-threshold-only, although its predictor learns every stage-1 batch."""
    learning = Trainer(replace(BASE, mode="three-stage", disable_predictor=True), CORPUS, EVAL)
    plain = Trainer(replace(BASE, mode="auto-threshold-only"), CORPUS, EVAL)
    r_learning, r_plain = learning.run(), plain.run()
    assert learning.predictor.total_examples > 0
    assert np.array_equal(learning.model.weights, plain.model.weights)
    assert learning.model.bias == plain.model.bias
    d_learning, d_plain = r_learning.to_json_dict(), r_plain.to_json_dict()
    for d in (d_learning, d_plain):
        d.pop("config")
        d.pop("overhead_wall_seconds")
    assert d_learning == d_plain
    assert r_learning.traces == r_plain.traces


def test_three_stage_with_gate_forced_open_matches_train_all():
    cfg = replace(BASE, mode="three-stage", force_l_low=float("-inf"), disable_predictor=True)
    t_forced = Trainer(cfg, CORPUS, EVAL)
    t_all = Trainer(replace(BASE, mode="train-all"), CORPUS, EVAL)
    r_forced, r_all = t_forced.run(), t_all.run()
    assert np.array_equal(t_forced.model.weights, t_all.model.weights)
    assert t_forced.model.bias == t_all.model.bias
    assert r_forced.backward_skipped == 0
    assert r_forced.forward_skipped == 0
    assert r_forced.accuracy == r_all.accuracy


def test_weight_replay_reproduces_final_weights_bit_exactly():
    cfg = replace(BASE, mode="three-stage", seed=3)
    trainer = Trainer(cfg, CORPUS, EVAL)
    report = trainer.run()
    assert 0 < report.full_steps < report.batches_total
    replayed = replay_backward_batches(report, cfg, CORPUS)
    assert np.array_equal(replayed.weights, trainer.model.weights)
    assert replayed.bias == trainer.model.bias
    assert replayed.step_count == report.full_steps


# -- reports ------------------------------------------------------------------------


def test_run_is_deterministic():
    a = run_mode("three-stage", seed=11)
    b = run_mode("three-stage", seed=11)
    da, db = a.to_json_dict(), b.to_json_dict()
    da.pop("overhead_wall_seconds")  # wall clock is a diagnostic, not a result
    db.pop("overhead_wall_seconds")
    assert da == db
    assert [t.decision for t in a.traces] == [t.decision for t in b.traces]


def test_report_json_fields():
    report = run_mode("three-stage")
    payload = report.to_json_dict()
    for key in ("accuracy", "alpha_b", "alpha_fb", "T", "T_norm", "agot",
                "p_t", "co2e", "stage_boundaries", "config"):
        assert key in payload
    json.dumps(payload)  # must be serializable as-is


# the report JSON's keys, in the order the README lists them
REPORT_KEYS = [
    "accuracy", "alpha_b", "alpha_fb", "T", "T_norm", "agot", "p_t", "co2e", "a_base",
    "batches_total", "backward_skipped", "forward_skipped", "full_steps", "stage_boundaries",
    "overhead_wall_seconds", "epoch_accuracies", "config",
]


def test_report_json_keys_come_in_the_readme_order():
    assert list(run_mode("train-all", epochs=1).to_json_dict()) == REPORT_KEYS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("**Report JSON**"):readme.index("**Trace CSV**")]
    positions = [section.index(f"`{key}`") for key in REPORT_KEYS]
    assert positions == sorted(positions)


def test_csv_field_writes_a_numpy_float_as_a_python_float():
    assert csv_field(np.float64(0.5)) == csv_field(0.5) == "0.5"
    assert csv_field(np.float64(0.1)) == repr(0.1)
    assert (csv_field(None), csv_field(3), csv_field("full")) == ("", "3", "full")


MODE_ARGS = {"fixed-threshold": {"fixed_threshold": 0.5}, "random-skip": {"random_skip_ratio": 0.3}}


@pytest.mark.parametrize("mode", MODES)
def test_skip_fractions_recomputable_from_trace_file(tmp_path, mode):
    report = run_mode(mode, **MODE_ARGS.get(mode, {}))
    path = tmp_path / "trace.csv"
    write_trace(report.traces, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,batch,stage,decision,loss,predictor_p1"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == report.batches_total
    n_forward_only = sum(r[3] == DECISION_FORWARD_ONLY for r in rows)
    n_skipped = sum(r[3] == DECISION_SKIPPED for r in rows)
    assert n_forward_only == report.backward_skipped
    assert n_skipped == report.forward_skipped
    assert n_forward_only / len(rows) == pytest.approx(report.alpha_b, abs=1e-12)
    assert n_skipped / len(rows) == pytest.approx(report.alpha_fb, abs=1e-12)
    staged = mode in ("three-stage", "auto-threshold-only")
    for r in rows:
        # loss present exactly when a forward pass ran
        assert (r[4] == "") == (r[3] == DECISION_SKIPPED)
        assert (r[2] == "") == (not staged)


@pytest.mark.parametrize("mode", MODES)
def test_no_trace_is_built_without_record_trace(mode):
    traced = run_mode(mode, **MODE_ARGS.get(mode, {}))
    untraced = run_mode(mode, record_trace=False, **MODE_ARGS.get(mode, {}))
    assert untraced.traces == []
    assert len(traced.traces) == traced.batches_total
    d_traced, d_untraced = traced.to_json_dict(), untraced.to_json_dict()
    for d in (d_traced, d_untraced):
        d.pop("config")
        d.pop("overhead_wall_seconds")
    assert d_traced == d_untraced


def test_time_model_consistency():
    report = run_mode("three-stage")
    full = 1.0 - report.alpha_b - report.alpha_fb
    per_batch = report.alpha_b * 1.0 + full * 3.0
    assert report.total_time == pytest.approx(report.batches_total * per_batch, rel=1e-12)
    assert report.t_norm == pytest.approx(report.total_time / (3.0 * report.batches_total), rel=1e-12)


def test_agot_uses_supplied_reference():
    ref = run_mode("train-all")
    report = run_mode("three-stage", a_full=ref.accuracy)
    expected = ((report.accuracy - report.a_base) / (ref.accuracy - report.a_base)
                / report.t_norm ** (1 - 0.95))
    assert report.agot == pytest.approx(expected, rel=1e-12)


def test_agot_none_without_reference():
    report = run_mode("three-stage")
    assert report.agot is None


def test_eval_every_epoch_records_curve():
    report = run_mode("three-stage", eval_every_epoch=True)
    assert len(report.epoch_accuracies) == BASE.epochs
    assert report.epoch_accuracies[-1] == report.accuracy


def test_energy_fields_track_total_time():
    report = run_mode("three-stage")
    expected_kwh = 1.58 * report.total_time * (100 + 50 + 250) / 1000
    assert report.energy_kwh == pytest.approx(expected_kwh, rel=1e-12)
    assert report.co2e_lb == pytest.approx(0.954 * expected_kwh, rel=1e-12)


# -- validation ----------------------------------------------------------------------


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        run(BASE, [])


def test_empty_eval_set_rejected_and_none_means_the_training_set():
    with pytest.raises(ValueError, match="eval set is empty"):
        Trainer(BASE, CORPUS, [])
    cfg = replace(BASE, mode="train-all", epochs=1)
    assert run(cfg, CORPUS).accuracy == run(cfg, CORPUS, CORPUS).accuracy


@pytest.mark.parametrize("where", ["train", "eval"])
def test_bad_label_rejected_at_construction(where):
    bad = [*CORPUS[:20], Example("good movie", ["good", "movie"], 5)]
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        Trainer(BASE, *((bad, EVAL) if where == "train" else (CORPUS, bad)))


def test_a_config_is_checked_when_built():
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        TrainerConfig(epochs=0)
    with pytest.raises(ValueError, match="alt must be positive"):
        replace(BASE, alt=0.0)


def test_a_config_is_frozen():
    with pytest.raises(FrozenInstanceError):
        BASE.epochs = 5
    assert BASE.epochs == 2


@pytest.mark.parametrize("mode", ["train-all", "three-stage"])
def test_a_trainer_runs_once(mode):
    trainer = Trainer(replace(BASE, mode=mode), CORPUS, EVAL)
    report = trainer.run()
    weights, bias = trainer.model.weights.copy(), trainer.model.bias
    with pytest.raises(RuntimeError, match="runs once"):
        trainer.run()
    assert trainer.batches_seen == report.batches_total
    assert (trainer.backward_filter_start, trainer.full_filter_start) == (
        report.stage_boundaries["backward_filter_start"], report.stage_boundaries["full_filter_start"]
    )
    assert len(trainer.traces) == report.batches_total
    assert np.array_equal(trainer.model.weights, weights)
    assert trainer.model.bias == bias


def test_config_validation():
    with pytest.raises(ValueError):
        run(replace(BASE, mode="warp-speed"), CORPUS)
    with pytest.raises(ValueError):
        run(replace(BASE, n0_fraction=0.0), CORPUS)
    with pytest.raises(ValueError):
        run(replace(BASE, epochs=0), CORPUS)
    with pytest.raises(ValueError):
        run(replace(BASE, alt=0.0), CORPUS)
    with pytest.raises(ValueError, match="predictor_window"):
        run(replace(BASE, predictor_window=0), CORPUS)
