import json
import math
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import lossgate.model
import lossgate.trainer
from lossgate.data import Example, generate_toy_corpus, make_batches
from lossgate.metapredictor import NaiveBayesModel
from lossgate.model import TargetModel
from lossgate.threshold import ThresholdState, make_label
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
    priced_time,
    random_control,
    run,
    run_random_skip,
    write_csv,
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
    for ratio in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            run_random_skip(BASE, CORPUS, ratio, EVAL)


def test_run_random_skip_matches_a_run_that_skipped_every_batch():
    # a threshold above every loss skips every backward, so the ratio to match is 1.0
    cfg = replace(BASE, mode="fixed-threshold", fixed_threshold=100.0)
    skipped_all = run(cfg, CORPUS, EVAL)
    ratio = skipped_all.alpha_b + skipped_all.alpha_fb
    assert ratio == 1.0
    control = run_random_skip(cfg, CORPUS, ratio, EVAL)
    assert control.config["mode"] == "random-skip"
    assert control.config["random_skip_ratio"] == 1.0 - 1e-9


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


@pytest.mark.parametrize("mode, kw", [("three-stage", {}), ("fixed-threshold", {"fixed_threshold": 0.6})])
def test_every_gated_forward_labels_its_loss_through_make_label(monkeypatch, mode, kw):
    """The trainer looks ``make_label`` up in its own module for each gated
    forward, so a wrapper patched in there (as the benchmark's tracer does to
    count gate calls and passes) sees every one, with the gate in force."""
    calls = []

    def counted(loss, gate):
        calls.append((loss, gate))
        return make_label(loss, gate)

    monkeypatch.setattr(lossgate.trainer, "make_label", counted)
    report = run_mode(mode, **kw)
    if mode == "three-stage":
        assert report.stage_boundaries["full_filter_start"] is not None
        gated = [
            t for t in report.traces
            if t.stage in (Stage.BACKWARD_FILTER, Stage.FULL_FILTER) and t.decision != DECISION_SKIPPED
        ]
        gate = BASE.skip_margin_gamma * report.stage_boundaries["l_low"]
    else:
        gated, gate = report.traces, kw["fixed_threshold"]
    assert len(calls) == len(gated)
    assert [loss for loss, _ in calls] == [t.loss for t in gated]
    assert {g for _, g in calls} == {gate}


LEARNERS = ("_observe_loss", "_score_and_update_predictor", "_update_predictor")


def test_each_learner_gets_the_whole_forward_of_its_step():
    """A learner gets the step's ``ForwardResult``: the step's batch, the
    per-example losses whose mean is the batch loss, and the label that loss
    takes against the gate in force (none trains every batch)."""
    trainer = Trainer(replace(BASE, mode="three-stage"), CORPUS, EVAL)
    steps, calls = [], []

    def stepped(batch, step=trainer._step):
        steps.append(batch)
        step(batch)

    def recording(name, learn):
        def wrapper(result, label):
            calls.append((name, steps[-1], trainer.gate, result, label))
            learn(result, label)

        return wrapper

    trainer._step = stepped
    for name in LEARNERS:
        setattr(trainer, name, recording(name, getattr(trainer, name)))
    report = trainer.run()
    assert report.stage_boundaries["full_filter_start"] is not None
    assert {name for name, *_ in calls} == set(LEARNERS)
    assert len(calls) == report.batches_total - report.forward_skipped
    for _, batch, gate, result, label in calls:
        assert result.batch is batch
        n = len(batch)
        assert result.per_example_losses.shape == (n,)
        assert np.add.reduce(result.per_example_losses) / n == result.batch_loss
        assert label == (1 if gate is None else make_label(result.batch_loss, gate))


def test_stage_one_learning_never_touches_training():
    """Three-stage that never leaves stage 1 trains exactly as
    auto-threshold-only, although its predictor learns every stage-1 batch.
    A predictor window longer than the run never fills, so it keeps the run
    in stage 1 as disable_predictor does, with the same predictor."""
    learning = Trainer(replace(BASE, mode="three-stage", disable_predictor=True), CORPUS, EVAL)
    unfilled = Trainer(replace(BASE, mode="three-stage", predictor_window=2**62), CORPUS, EVAL)
    plain = Trainer(replace(BASE, mode="auto-threshold-only"), CORPUS, EVAL)
    r_learning, r_unfilled, r_plain = learning.run(), unfilled.run(), plain.run()
    assert sum(learning.predictor.class_counts) > 0
    assert unfilled.predictor.class_counts == learning.predictor.class_counts
    dicts = [r.to_json_dict() for r in (r_learning, r_unfilled, r_plain)]
    for d in dicts:
        d.pop("config")
        d.pop("overhead_wall_seconds")
    for trainer, report, d in ((unfilled, r_unfilled, dicts[1]), (plain, r_plain, dicts[2])):
        assert np.array_equal(learning.model.weights, trainer.model.weights)
        assert learning.model.bias == trainer.model.bias
        assert d == dicts[0]
        assert report.traces == r_learning.traces


def test_three_stage_with_gate_forced_open_matches_train_all():
    # a gate of 1e-300 times the window mean is below every positive loss
    cfg = replace(BASE, mode="three-stage", skip_margin_gamma=1e-300, disable_predictor=True)
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


def test_write_csv_writes_a_header_then_a_line_of_csv_fields_per_row(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["a", "b", "c"], [[None, 1 / 3, np.float64(1 / 3)], ["full", 3, None]])
    assert path.read_text(encoding="utf-8") == f"a,b,c\n,{1 / 3!r},{1 / 3!r}\nfull,3,\n"
    write_csv(str(path), ["a", "b"], [])
    assert path.read_text(encoding="utf-8") == "a,b\n"


MODE_ARGS = {"fixed-threshold": {"fixed_threshold": 0.5}, "random-skip": {"random_skip_ratio": 0.3}}


@pytest.mark.parametrize("mode", MODES)
def test_full_steps_are_the_model_steps_and_the_backward_calls(monkeypatch, mode):
    calls = []
    backward = TargetModel.backward

    def counted(model, result):
        calls.append(result.model_step)
        return backward(model, result)

    monkeypatch.setattr(TargetModel, "backward", counted)
    trainer = Trainer(replace(BASE, mode=mode, **MODE_ARGS.get(mode, {})), CORPUS, EVAL)
    report = trainer.run()
    assert report.full_steps == trainer.model.step_count == len(calls) > 0


@pytest.mark.parametrize("name, mode", [("fixed_threshold", "fixed-threshold"), ("random_skip_ratio", "random-skip")])
def test_a_field_one_mode_reads_is_refused_under_every_other(name, mode):
    for other in MODES:
        if other != mode:
            with pytest.raises(ValueError, match=f"{name} is for {mode} mode only"):
                replace(BASE, mode=other, **MODE_ARGS.get(other, {}), **{name: 0.5})


@pytest.mark.parametrize("mode", MODES)
def test_a_new_trainer_gates_on_the_fixed_threshold_alone(mode):
    # fixed-threshold gates from the first batch; no other mode has a gate before freeze
    trainer = Trainer(replace(BASE, mode=mode, **MODE_ARGS.get(mode, {})), CORPUS, EVAL)
    assert trainer.gate == (0.5 if mode == "fixed-threshold" else None)


def test_run_random_skip_drops_a_fixed_threshold():
    fixed = replace(BASE, mode="fixed-threshold", fixed_threshold=0.5)
    assert run_random_skip(fixed, CORPUS, 0.3, EVAL).config == run_random_skip(BASE, CORPUS, 0.3, EVAL).config


@pytest.mark.parametrize("mode", MODES)
def test_random_control_is_a_random_skip_run_without_a_fixed_threshold(mode):
    control = random_control(replace(BASE, mode=mode, **MODE_ARGS.get(mode, {})), 0.25)
    assert (control.mode, control.random_skip_ratio, control.fixed_threshold) == ("random-skip", 0.25, None)


# a method whose every field but the three a control sets is off its default
METHOD = TrainerConfig(
    mode="fixed-threshold", epochs=3, batch_size=8, seed=4, learning_rate=0.3, n0_fraction=0.2,
    threshold_window=5, predictor_window=6, alt=0.4, skip_margin_gamma=0.8, smoothing_alpha=0.5,
    fixed_threshold=0.5, t_forward=0.7, t_backward=3.4, a_full=0.8, record_trace=True,
    eval_every_epoch=True, disable_predictor=True,
)


@pytest.mark.parametrize("name", [f.name for f in fields(TrainerConfig) if f.name not in (
    "mode", "random_skip_ratio", "fixed_threshold"
)])
def test_random_control_keeps_every_other_field_of_its_method(name):
    assert getattr(METHOD, name) != getattr(TrainerConfig(), name)
    assert getattr(random_control(METHOD, 0.3), name) == getattr(METHOD, name)


@pytest.mark.parametrize("ratio", [0.0, 0.25, 0.5, 0.999, 1.0 - 1e-9])
def test_random_control_runs_a_ratio_below_1_as_given(ratio):
    assert random_control(METHOD, ratio).random_skip_ratio == ratio


@pytest.mark.parametrize("ratio", [-1e-300, -0.1, 1.0 + 1e-15, 1.5, math.inf, -math.inf, math.nan])
def test_random_control_refuses_a_ratio_outside_0_1(ratio):
    with pytest.raises(ValueError, match="random_skip_ratio"):
        random_control(METHOD, ratio)


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
    # a row's stage is the one the report's boundaries give its ordinal
    starts = [report.stage_boundaries[k] for k in ("backward_filter_start", "full_filter_start")]
    batches_per_epoch = report.batches_total // BASE.epochs
    for r in rows:
        # loss present exactly when a forward pass ran
        assert (r[4] == "") == (r[3] == DECISION_SKIPPED)
        batch = int(r[1])
        stage = str(sum(start is not None and batch >= start for start in starts)) if staged else ""
        assert r[2] == stage
        assert int(r[0]) == batch // batches_per_epoch


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


class CountingNumpy:
    """numpy as ``lossgate.model`` sees it, counting its ``logaddexp`` calls:
    one for each forward result whose losses are computed."""

    def __init__(self):
        self.logaddexp_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def logaddexp(self, *args, **kwargs):
        self.logaddexp_calls += 1
        return np.logaddexp(*args, **kwargs)


@pytest.mark.parametrize("mode", ["train-all", "random-skip"])
def test_an_ungated_untraced_run_computes_no_loss(monkeypatch, mode):
    counting = CountingNumpy()
    monkeypatch.setattr(lossgate.model, "np", counting)
    report = run_mode(mode, record_trace=False, **MODE_ARGS.get(mode, {}))
    assert report.full_steps > 0
    assert counting.logaddexp_calls == 0


@pytest.mark.parametrize("mode", ["fixed-threshold", "auto-threshold-only", "three-stage"])
def test_a_gated_run_computes_each_forward_loss_once(monkeypatch, mode):
    """In warmup both the window learner and the trainer read the loss; the
    forward result computes it once for the two."""
    counting = CountingNumpy()
    monkeypatch.setattr(lossgate.model, "np", counting)
    report = run_mode(mode, record_trace=False, **MODE_ARGS.get(mode, {}))
    if mode != "fixed-threshold":
        assert report.stage_boundaries["backward_filter_start"] > 0
    assert counting.logaddexp_calls == report.batches_total - report.forward_skipped


def test_a_traced_train_all_run_traces_the_eager_loss_bit_for_bit(monkeypatch):
    """Each traced loss is ``per_example_losses.mean()`` of the step's batch,
    read right after a forward of the same model that the run never sees."""
    eager = []
    forward = TargetModel.forward

    def forward_and_read(model, batch):
        eager.append(forward(model, batch).per_example_losses.mean())
        return forward(model, batch)

    monkeypatch.setattr(TargetModel, "forward", forward_and_read)
    report = run_mode("train-all")
    assert len(eager) == report.batches_total
    assert [t.loss for t in report.traces] == eager


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


@pytest.mark.parametrize("mode, kw, a_full", [
    ("three-stage", {}, 0.9),
    ("train-all", {}, None),
    ("train-all", {}, 0.9),
    ("fixed-threshold", {"fixed_threshold": 0.3}, None),
    # every batch skipped: T_norm 0
    ("random-skip", {"random_skip_ratio": 0.999999}, 0.9),
    ("three-stage", {}, "a_base"),
], ids=["three-stage", "train-all-own", "train-all-given", "no-reference", "t-norm-0", "a_full-is-a_base"])
def test_a_full_filled_after_a_run_gives_the_report_of_a_run_built_with_it(mode, kw, a_full):
    unfilled = run_mode(mode, **kw)
    if a_full == "a_base":
        a_full = unfilled.a_base
    filled = unfilled.with_a_full(a_full)
    built = run_mode(mode, a_full=a_full, **kw)
    assert filled.config == built.config
    assert filled.agot == built.agot
    if a_full == unfilled.a_base or built.t_norm == 0.0:
        assert built.agot is None
    # all else is the run's own; the wall clock differs between any two runs
    wall = "overhead_wall_seconds"
    assert {**filled.to_json_dict(), wall: 0} == {**built.to_json_dict(), wall: 0}
    assert filled.traces == built.traces


def test_eval_every_epoch_records_curve():
    report = run_mode("three-stage", eval_every_epoch=True)
    assert len(report.epoch_accuracies) == BASE.epochs
    assert report.epoch_accuracies[-1] == report.accuracy


@pytest.mark.parametrize("mode", MODES)
def test_the_first_epochs_of_a_run_are_the_shorter_run(mode):
    # a budget curve reads the 1- and 2-epoch runs off the 3-epoch run
    runs = [run_mode(mode, epochs=epochs, eval_every_epoch=True, **MODE_ARGS.get(mode, {})) for epochs in (1, 2, 3)]
    longest = runs[-1]
    for epochs, shorter in enumerate(runs[:-1], start=1):
        assert shorter.traces == longest.traces[: shorter.batches_total]
        assert shorter.epoch_accuracies == longest.epoch_accuracies[:epochs]
        assert shorter.accuracy == longest.epoch_accuracies[epochs - 1]


def test_energy_fields_track_total_time():
    report = run_mode("three-stage")
    expected_kwh = 1.58 * report.total_time * (100 + 50 + 250) / 1000
    assert report.energy_kwh == pytest.approx(expected_kwh, rel=1e-12)
    assert report.co2e_lb == pytest.approx(0.954 * expected_kwh, rel=1e-12)


# -- validation ----------------------------------------------------------------------


def test_empty_dataset_rejected():
    with pytest.raises(ValueError, match="empty"):
        run(BASE, [])


@pytest.mark.parametrize("epochs, t_forward, t_backward", [
    (1, 1e308, 1e308),  # t_forward + t_backward overflows
    (10**9, 1e300, 1.0),  # epochs x batches x (t_forward + t_backward) overflows
    (1, 3e305, 2e305),  # T is finite, but p_t = 1.58 * T * 400 / 1000 overflows on the way
])
def test_a_time_model_priced_at_infinity_is_refused_before_the_first_pass(epochs, t_forward, t_backward):
    cfg = replace(BASE, mode="train-all", epochs=epochs, t_forward=t_forward, t_backward=t_backward)
    with pytest.raises(ValueError, match="^t_forward and t_backward price"):
        Trainer(cfg, CORPUS[: BASE.batch_size], EVAL)


# n_examples at BASE's batch size of 16, with the batch count it prices
@pytest.mark.parametrize("epochs, n_examples, n_batches, t_forward, t_backward", [
    (1, 1, 1, 1e308, 1e308),  # t_forward + t_backward overflows
    (10**9, 16, 1, 1e300, 1.0),  # epochs x (t_forward + t_backward) overflows
    (1, 16 * 10**10 - 15, 10**10, 1e300, 1.0),  # batches x (t_forward + t_backward) overflows
    (1, 1, 1, 3e305, 2e305),  # T is finite, but p_t overflows on the way
])
def test_priced_time_refuses_an_infinite_T_or_p_t(epochs, n_examples, n_batches, t_forward, t_backward):
    cfg = replace(BASE, epochs=epochs, t_forward=t_forward, t_backward=t_backward)
    message = f"^t_forward and t_backward price {epochs} epoch\\(s\\) of {n_batches} batch"
    with pytest.raises(ValueError, match=message):
        priced_time(cfg, n_examples)


@pytest.mark.parametrize("epochs, n_examples, t_forward, t_backward, expected", [
    (1, 1, 1.0, 2.0, 3.0),
    (2, 785, 1.0, 2.0, 300.0),  # 50 batches of 16, the last of one example
    (10**9, 16 * 10**6, 1.0, 3.0, 4e15),
    (1, 1, 1e305, 1e305, 2e305),  # the largest T here still has a finite p_t
])
def test_priced_time_is_epochs_times_batches_times_both_passes(epochs, n_examples, t_forward, t_backward, expected):
    cfg = replace(BASE, epochs=epochs, t_forward=t_forward, t_backward=t_backward)
    assert priced_time(cfg, n_examples) == expected


@pytest.mark.parametrize("n_examples", [1, 7, 8, 9, 17])
def test_priced_time_prices_the_batches_of_the_partition_a_run_cuts(n_examples):
    cfg = replace(BASE, batch_size=8)
    n_batches = len(build_epoch_batches(CORPUS[:n_examples], cfg))
    assert priced_time(cfg, n_examples) == cfg.epochs * n_batches * (cfg.t_forward + cfg.t_backward)


@pytest.mark.parametrize("epochs, batch_size, t_forward, t_backward", [
    (1, 16, 1.0, 2.0),
    (2, 16, 1.0, 2.0),
    (3, 7, 0.5, 1.5),
    (2, 100, 1.0, 3.4),
    (1, 1, 0.25, 0.25),
])
def test_priced_time_is_the_T_of_a_run_that_trains_every_batch(epochs, batch_size, t_forward, t_backward):
    cfg = replace(
        BASE, mode="train-all", epochs=epochs, batch_size=batch_size, t_forward=t_forward, t_backward=t_backward
    )
    report = run(cfg, CORPUS[:200], EVAL)
    assert report.total_time == pytest.approx(priced_time(cfg, 200), rel=1e-12)


@pytest.mark.parametrize("n_examples, batch_size", [
    (1, 1), (1, 16), (15, 16), (16, 16), (17, 16), (33, 16), (100, 7), (7, 100),
])
def test_a_partition_has_the_ceiling_of_examples_over_batch_size_batches(n_examples, batch_size):
    # every command prices each run by this count before a partition is cut
    cfg = replace(BASE, batch_size=batch_size)
    assert len(build_epoch_batches(CORPUS[:n_examples], cfg)) == -(-n_examples // batch_size)


def test_empty_eval_set_rejected_and_none_means_the_training_set():
    with pytest.raises(ValueError, match="eval set is empty"):
        Trainer(BASE, CORPUS, [])
    cfg = replace(BASE, mode="train-all", epochs=1)
    assert run(cfg, CORPUS).accuracy == run(cfg, CORPUS, CORPUS).accuracy


@pytest.mark.parametrize("mode", ["train-all", "three-stage"])
def test_a_list_of_examples_runs_as_its_corpus(tmp_path, mode):
    """A list of examples is made a corpus once and batched from the same
    int64 values, so its report JSON and trace are byte-identical."""

    def outputs(train, evalset, trace_path):
        report = run(replace(BASE, mode=mode), train, evalset)
        payload = report.to_json_dict()
        del payload["overhead_wall_seconds"]  # measured wall time
        write_trace(report.traces, str(trace_path))
        return json.dumps(payload, indent=2), trace_path.read_bytes()

    from_corpus = outputs(CORPUS, EVAL, tmp_path / "corpus.csv")
    assert outputs(list(CORPUS), list(EVAL), tmp_path / "list.csv") == from_corpus
    if mode == "three-stage":
        assert json.loads(from_corpus[0])["stage_boundaries"]["full_filter_start"] is not None


@pytest.mark.parametrize("mode", ["train-all", "three-stage"])
def test_a_warm_corpus_runs_as_a_fresh_copy(tmp_path, mode):
    """A run on a corpus that an earlier run batched trains on the batches
    the corpus kept, and writes the same report JSON, trace and weights as a
    run on a fresh copy, which gathers its own."""
    config = replace(BASE, mode=mode)
    warm = CORPUS[:]
    run(config, warm, EVAL)

    def outputs(train, trace_path):
        trainer = Trainer(config, train, EVAL)
        report = trainer.run()
        payload = report.to_json_dict()
        del payload["overhead_wall_seconds"]  # measured wall time
        write_trace(report.traces, str(trace_path))
        model = trainer.model
        return trainer, (json.dumps(payload, indent=2), trace_path.read_bytes(), model.weights.tobytes(), model.bias)

    trainer, from_warm = outputs(warm, tmp_path / "warm.csv")
    assert all(a is b for a, b in zip(trainer._epoch_batches, build_epoch_batches(warm, config)))
    assert outputs(CORPUS[:], tmp_path / "fresh.csv")[1] == from_warm


@pytest.mark.parametrize("where", ["train", "eval"])
def test_bad_label_rejected_at_construction(where):
    for label in (5, True, 1.0):
        bad = [*CORPUS[:20], Example("good movie", ["good", "movie"], label)]
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            Trainer(BASE, *((bad, EVAL) if where == "train" else (CORPUS, bad)))


def test_a_config_is_checked_when_built():
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        TrainerConfig(epochs=0)
    with pytest.raises(ValueError, match="alt must be positive"):
        replace(BASE, alt=0.0)


# each TrainerConfig field a component takes, with what that component keeps of the value
HANDED_ON = {
    "learning_rate": lambda value: TargetModel(learning_rate=value).learning_rate,
    "threshold_window": lambda value: ThresholdState(value).window_size,
    "skip_margin_gamma": lambda value: ThresholdState(1, skip_margin_gamma=value).skip_margin_gamma,
    "smoothing_alpha": lambda value: NaiveBayesModel(smoothing_alpha=value).smoothing_alpha,
    "batch_size": lambda value: len(make_batches(CORPUS[:4], value)[0]),
}
SIZES = ("threshold_window", "batch_size")
CONTRACT_CASES = [
    *((name, value, False) for name in SIZES for value in (0, -1, 2.5, True, "2")),
    *((name, value, False) for name in HANDED_ON if name not in SIZES
      for value in (0.0, -1.0, math.nan, math.inf, True, "0.5")),
    *((name, np.int64(2) if name in SIZES else np.float64(0.5), True) for name in HANDED_ON),
]


@pytest.mark.parametrize("name, value, good", CONTRACT_CASES)
def test_a_config_field_and_the_component_it_feeds_take_the_same_values(name, value, good):
    # a library caller builds the components without a config, so each must hold the config's rule
    if not good:
        with pytest.raises(ValueError):
            TrainerConfig(**{name: value})
        with pytest.raises(ValueError):
            HANDED_ON[name](value)
        return
    assert getattr(TrainerConfig(**{name: value}), name) == value
    kept = HANDED_ON[name](value)
    assert type(kept) is type(value.item()) and kept == value


def test_a_config_of_numpy_numbers_writes_the_report_of_python_numbers():
    corpus = CORPUS[:200]
    reports = []
    for kind, real in ((int, float), (np.int64, np.float64)):
        config = TrainerConfig(mode="train-all", seed=kind(3), epochs=kind(2), batch_size=kind(16), alt=real(0.5))
        report = run(config, corpus).to_json_dict()
        report.pop("overhead_wall_seconds")
        reports.append(json.dumps(report))
    assert reports[0] == reports[1]
    assert type(TrainerConfig(learning_rate=np.float32(0.5)).learning_rate) is float


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
