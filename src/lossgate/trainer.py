"""Three-stage training loop plus the baseline modes.

Stage 0 (warmup) runs every pass and accumulates the loss window. Stage 1
freezes the threshold, gates backward passes on it, and trains the meta
predictor from those gate decisions. Stage 2 asks the predictor first and
skips both passes on batches it rejects, updating it continually on the
batches it accepts. Transitions only ever move forward, and a run is fully
determined by (config, dataset).

Baselines: train-all (no filtering), fixed-threshold (gates backward on
``config.fixed_threshold`` from the first batch; no warmup, no predictor),
auto-threshold-only (warmup plus backward gating, never a predictor),
random-skip (seeded coin per batch, both passes).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from enum import IntEnum

import numpy as np

from . import metrics
from .data import Example, MiniBatch, make_batches, pack_examples
from .metapredictor import NaiveBayesModel, PredictorLossWindow, make_label
from .model import TargetModel
from .threshold import ThresholdState

MODES = ("three-stage", "train-all", "fixed-threshold", "auto-threshold-only", "random-skip")

DECISION_FULL = "full"
DECISION_FORWARD_ONLY = "forward_only"
DECISION_SKIPPED = "skipped"


class Stage(IntEnum):
    WARMUP = 0
    BACKWARD_FILTER = 1
    FULL_FILTER = 2


@dataclass
class StepTrace:
    """What happened to one batch. ``batch`` is the run-level ordinal."""

    epoch: int
    batch: int
    stage: int | None
    decision: str
    loss: float | None = None
    predictor_p1: float | None = None


_FIELD_TYPES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}


@dataclass
class TrainerConfig:
    mode: str = "three-stage"
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    shuffle: bool = True
    learning_rate: float = 0.5
    n0_fraction: float = 0.1
    threshold_window: int = 64
    predictor_window: int = 8
    alt: float = 0.3
    skip_margin_gamma: float = 1.0
    variance_tolerance: float = 1e-4
    smoothing_alpha: float = 1.0
    batch_decision: str = "mean"
    fixed_threshold: float | None = None
    random_skip_ratio: float | None = None
    t_forward: float = 1.0
    t_backward: float = 2.0
    agot_epsilon: float = 0.95
    a_full: float | None = None
    power_cpu_watts: float = 100.0
    power_dram_watts: float = 50.0
    power_gpu_watts: float = 250.0
    gpu_count: int = 1
    record_trace: bool = False
    eval_every_epoch: bool = False
    # diagnostics: force the gate value at freeze time / never leave stage 1
    force_l_low: float | None = None
    disable_predictor: bool = False

    def validate(self) -> None:
        """Reject every bad value before any training starts."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            if not isinstance(value, _FIELD_TYPES[kind]) or (kind != "bool" and isinstance(value, bool)):
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
            if value != value:
                raise ValueError(f"{f.name} must not be NaN")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.batch_decision not in ("mean", "vote"):
            raise ValueError(f"unknown batch_decision: {self.batch_decision!r}")
        for name in ("epochs", "batch_size", "threshold_window", "predictor_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("learning_rate", "alt", "skip_margin_gamma", "smoothing_alpha", "t_forward", "t_backward"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("seed", "variance_tolerance", "power_cpu_watts", "power_dram_watts", "power_gpu_watts", "gpu_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.n0_fraction <= 1.0:
            raise ValueError("n0_fraction must lie in (0, 1]")
        if not 0.0 <= self.agot_epsilon <= 1.0:
            raise ValueError("agot_epsilon must lie in [0, 1]")
        if self.mode == "fixed-threshold" and self.fixed_threshold is None:
            raise ValueError("fixed-threshold mode needs fixed_threshold")
        if self.mode == "random-skip":
            if self.random_skip_ratio is None or not 0.0 <= self.random_skip_ratio < 1.0:
                raise ValueError("random-skip mode needs random_skip_ratio in [0, 1)")


@dataclass
class TrainerState:
    stage: Stage = Stage.WARMUP
    batches_seen: int = 0
    backward_skipped: int = 0
    forward_skipped: int = 0
    full_steps: int = 0
    epoch_index: int = 0
    threshold: ThresholdState | None = None
    predictor: NaiveBayesModel | None = None
    predictor_window: PredictorLossWindow | None = None
    backward_filter_start: int | None = None
    full_filter_start: int | None = None
    threshold_stable_at: int | None = None


@dataclass
class RunReport:
    accuracy: float
    a_base: float
    alpha_b: float
    alpha_fb: float
    total_time: float
    t_norm: float
    agot: float | None
    energy_kwh: float
    co2e_lb: float
    batches_total: int
    backward_skipped: int
    forward_skipped: int
    full_steps: int
    stage_boundaries: dict
    config: dict
    overhead_wall_seconds: float
    epoch_accuracies: list[float] | None = None
    traces: list[StepTrace] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "alpha_b": self.alpha_b,
            "alpha_fb": self.alpha_fb,
            "T": self.total_time,
            "T_norm": self.t_norm,
            "agot": self.agot,
            "p_t": self.energy_kwh,
            "co2e": self.co2e_lb,
            "a_base": self.a_base,
            "batches_total": self.batches_total,
            "backward_skipped": self.backward_skipped,
            "forward_skipped": self.forward_skipped,
            "full_steps": self.full_steps,
            "stage_boundaries": self.stage_boundaries,
            "overhead_wall_seconds": self.overhead_wall_seconds,
            "epoch_accuracies": self.epoch_accuracies,
            "config": self.config,
        }


def build_epoch_batches(examples: list[Example], config: TrainerConfig) -> list[MiniBatch]:
    """The exact batch partition a run with this config iterates each epoch."""
    return make_batches(examples, config.batch_size, seed=config.seed, shuffle=config.shuffle)


class Trainer:
    def __init__(
        self,
        config: TrainerConfig,
        train_examples: list[Example],
        eval_examples: list[Example] | None = None,
    ):
        config.validate()
        if not train_examples:
            raise ValueError("dataset is empty")
        self.config = config
        self.train_examples = train_examples
        self._eval_batch = pack_examples(eval_examples if eval_examples else train_examples)
        self.model = TargetModel(learning_rate=config.learning_rate)
        self.state = TrainerState()
        self._epoch_batches = build_epoch_batches(train_examples, config)
        self._warmup_batches = math.ceil(config.n0_fraction * len(self._epoch_batches) - 1e-9)
        self._staged = config.mode in ("three-stage", "auto-threshold-only")
        self._predictor_enabled = config.mode == "three-stage"
        if self._staged:
            self.state.threshold = ThresholdState(config.threshold_window, config.skip_margin_gamma)
        if self._predictor_enabled:
            self.state.predictor = NaiveBayesModel(smoothing_alpha=config.smoothing_alpha)
            self.state.predictor_window = PredictorLossWindow(config.predictor_window)
        if config.mode == "random-skip":
            # separate stream from the shuffle so the mask is its own contract
            self._skip_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
        self.traces: list[StepTrace] = []
        self._overhead = 0.0

    # -- single-batch steps ------------------------------------------------

    def step_warmup(self, batch: MiniBatch) -> StepTrace:
        """Stage 0: always forward + backward, feeding the loss window."""
        st = self.state
        st.batches_seen += 1
        fr = self.model.forward(batch)
        t0 = time.perf_counter()
        st.threshold.observe(fr.batch_loss)
        if st.threshold_stable_at is None and st.threshold.is_stable(self.config.variance_tolerance):
            st.threshold_stable_at = st.batches_seen
        self._overhead += time.perf_counter() - t0
        self.model.backward(fr, batch)
        st.full_steps += 1
        return StepTrace(st.epoch_index, batch.index, int(st.stage), DECISION_FULL, fr.batch_loss)

    def step_backward_filter(self, batch: MiniBatch) -> StepTrace:
        """Stage 1: forward always; the gate decides backward and, when the
        predictor is on, labels it one training example (loss measured on the
        batch before the update)."""
        st = self.state
        st.batches_seen += 1
        fr = self.model.forward(batch)
        label = make_label(fr.batch_loss, st.threshold.skip_boundary)
        if self._predictor_enabled:
            t0 = time.perf_counter()
            # a single-class predictor is degenerate (its smoothed posteriors
            # saturate), so its loss only counts once both classes are seen
            if st.predictor.has_both_classes:
                st.predictor_window.push(st.predictor.loss(batch, [label] * len(batch)))
            st.predictor.update(batch, label)
            self._overhead += time.perf_counter() - t0
        if label == 1:
            self.model.backward(fr, batch)
            st.full_steps += 1
            decision = DECISION_FULL
        else:
            st.backward_skipped += 1
            decision = DECISION_FORWARD_ONLY
        return StepTrace(st.epoch_index, batch.index, int(st.stage), decision, fr.batch_loss)

    def step_full_filter(self, batch: MiniBatch) -> StepTrace:
        """Stage 2: the predictor screens first; accepted batches run forward,
        gate the backward as in stage 1, and update the predictor."""
        st = self.state
        st.batches_seen += 1
        t0 = time.perf_counter()
        decision, mean_p1 = st.predictor.predict_batch(batch, self.config.batch_decision)
        self._overhead += time.perf_counter() - t0
        if decision == 0:
            st.forward_skipped += 1
            return StepTrace(
                st.epoch_index, batch.index, int(st.stage), DECISION_SKIPPED, predictor_p1=mean_p1
            )
        fr = self.model.forward(batch)
        label = make_label(fr.batch_loss, st.threshold.skip_boundary)
        t0 = time.perf_counter()
        st.predictor.update(batch, label)
        self._overhead += time.perf_counter() - t0
        if label == 1:
            self.model.backward(fr, batch)
            st.full_steps += 1
            outcome = DECISION_FULL
        else:
            st.backward_skipped += 1
            outcome = DECISION_FORWARD_ONLY
        return StepTrace(st.epoch_index, batch.index, int(st.stage), outcome, fr.batch_loss, mean_p1)

    def _step_train_all(self, batch: MiniBatch) -> StepTrace:
        st = self.state
        st.batches_seen += 1
        fr = self.model.forward(batch)
        self.model.backward(fr, batch)
        st.full_steps += 1
        return StepTrace(st.epoch_index, batch.index, None, DECISION_FULL, fr.batch_loss)

    def _step_fixed_threshold(self, batch: MiniBatch) -> StepTrace:
        st = self.state
        st.batches_seen += 1
        fr = self.model.forward(batch)
        if fr.batch_loss < self.config.fixed_threshold:
            st.backward_skipped += 1
            return StepTrace(st.epoch_index, batch.index, None, DECISION_FORWARD_ONLY, fr.batch_loss)
        self.model.backward(fr, batch)
        st.full_steps += 1
        return StepTrace(st.epoch_index, batch.index, None, DECISION_FULL, fr.batch_loss)

    def _step_random_skip(self, batch: MiniBatch) -> StepTrace:
        st = self.state
        st.batches_seen += 1
        if self._skip_rng.random() < self.config.random_skip_ratio:
            st.forward_skipped += 1
            return StepTrace(st.epoch_index, batch.index, None, DECISION_SKIPPED)
        fr = self.model.forward(batch)
        self.model.backward(fr, batch)
        st.full_steps += 1
        return StepTrace(st.epoch_index, batch.index, None, DECISION_FULL, fr.batch_loss)

    # -- stage transitions ---------------------------------------------------

    def maybe_transition(self) -> None:
        """Advance the stage when its exit condition holds. Never goes back.

        Warmup ends once the batch budget is spent AND the loss window is
        full (the window requirement can stretch warmup past the budget).
        Stage 1 ends once the predictor-loss window is full with a mean
        below ``alt``.
        """
        st = self.state
        if st.stage == Stage.WARMUP:
            if st.batches_seen >= self._warmup_batches and st.threshold.window_full:
                st.threshold.freeze(override=self.config.force_l_low)
                st.stage = Stage.BACKWARD_FILTER
                st.backward_filter_start = st.batches_seen
        elif st.stage == Stage.BACKWARD_FILTER and self._predictor_enabled:
            if self.config.disable_predictor:
                return
            mean = st.predictor_window.mean()
            if mean is not None and mean < self.config.alt:
                st.stage = Stage.FULL_FILTER
                st.full_filter_start = st.batches_seen

    def _step(self, batch: MiniBatch) -> StepTrace:
        mode = self.config.mode
        if mode == "train-all":
            return self._step_train_all(batch)
        if mode == "fixed-threshold":
            return self._step_fixed_threshold(batch)
        if mode == "random-skip":
            return self._step_random_skip(batch)
        if self.state.stage == Stage.WARMUP:
            trace = self.step_warmup(batch)
        elif self.state.stage == Stage.BACKWARD_FILTER:
            trace = self.step_backward_filter(batch)
        else:
            trace = self.step_full_filter(batch)
        self.maybe_transition()
        return trace

    # -- whole run -----------------------------------------------------------

    def run(self) -> RunReport:
        cfg = self.config
        st = self.state
        a_base = self.model.evaluate(self._eval_batch)
        epoch_accuracies: list[float] | None = [] if cfg.eval_every_epoch else None
        for epoch in range(cfg.epochs):
            st.epoch_index = epoch
            for within_epoch in self._epoch_batches:
                trace = self._step(replace(within_epoch, index=st.batches_seen))
                if cfg.record_trace:
                    self.traces.append(trace)
            if epoch_accuracies is not None:
                epoch_accuracies.append(self.model.evaluate(self._eval_batch))
        accuracy = self.model.evaluate(self._eval_batch)

        total = st.batches_seen
        fractions = metrics.SkipFractions(
            alpha_b=st.backward_skipped / total, alpha_fb=st.forward_skipped / total
        )
        timing = metrics.TimingModel(cfg.t_forward, cfg.t_backward)
        t_ours = metrics.total_time(fractions, timing, total)
        t_all = total * (cfg.t_forward + cfg.t_backward)
        time_norm = metrics.t_norm(t_ours, t_all)

        a_full_ref = cfg.a_full
        if a_full_ref is None and cfg.mode == "train-all":
            a_full_ref = accuracy
        agot_value = None
        if a_full_ref is not None and a_full_ref != a_base:
            params = metrics.AgotParams(epsilon=cfg.agot_epsilon, a_base=a_base, a_full=a_full_ref)
            agot_value = metrics.agot(accuracy, time_norm, params)

        energy = metrics.EnergyParams(
            p_cpu=cfg.power_cpu_watts,
            p_dram=cfg.power_dram_watts,
            p_gpu=cfg.power_gpu_watts,
            gpu_count=cfg.gpu_count,
            hours=t_ours,
        )
        kwh, co2 = metrics.energy_co2(energy)

        boundaries = {
            "backward_filter_start": st.backward_filter_start,
            "full_filter_start": st.full_filter_start,
            "threshold_stable_at": st.threshold_stable_at,
            "l_low": st.threshold.l_low if st.threshold is not None else None,
        }
        return RunReport(
            accuracy=accuracy,
            a_base=a_base,
            alpha_b=fractions.alpha_b,
            alpha_fb=fractions.alpha_fb,
            total_time=t_ours,
            t_norm=time_norm,
            agot=agot_value,
            energy_kwh=kwh,
            co2e_lb=co2,
            batches_total=total,
            backward_skipped=st.backward_skipped,
            forward_skipped=st.forward_skipped,
            full_steps=st.full_steps,
            stage_boundaries=boundaries,
            config=asdict(cfg),
            overhead_wall_seconds=self._overhead,
            epoch_accuracies=epoch_accuracies,
            traces=self.traces,
        )


def run(
    config: TrainerConfig,
    train_examples: list[Example],
    eval_examples: list[Example] | None = None,
) -> RunReport:
    """Execute one experiment and report accuracy, skip fractions, and costs."""
    return Trainer(config, train_examples, eval_examples).run()


def run_random_skip(
    config: TrainerConfig,
    train_examples: list[Example],
    target_ratio: float,
    eval_examples: list[Example] | None = None,
) -> RunReport:
    """The matched-ratio control: skip both passes on a seeded coin flip."""
    cfg = replace(config, mode="random-skip", random_skip_ratio=target_ratio)
    return run(cfg, train_examples, eval_examples)


TRACE_HEADER = "epoch,batch,stage,decision,loss,predictor_p1"


def write_trace(traces: list[StepTrace], path: str) -> None:
    """One line per batch; loss / probability fields are empty when the
    corresponding pass never ran."""

    def fmt(value) -> str:
        return "" if value is None else repr(value) if isinstance(value, float) else str(value)

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for t in traces:
            fields = [str(t.epoch), str(t.batch), fmt(t.stage), t.decision, fmt(t.loss), fmt(t.predictor_p1)]
            fh.write(",".join(fields) + "\n")
