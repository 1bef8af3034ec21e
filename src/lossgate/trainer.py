"""Three-stage training loop plus the baseline modes.

Every mode runs one per-batch sequence, ``Trainer._pass``, and only picks
three things: a forward screen that drops the batch before any pass, the
gate ``Trainer.gate`` (backward runs iff the loss is at or above it) and a
learner fed each forward's ``ForwardResult`` and label. ``Trainer`` keeps a
run's whole state as plain attributes and builds a ``StepTrace`` only when
``record_trace`` is set.

- train-all: no screen, no gate, no learner.
- fixed-threshold: gate ``config.fixed_threshold`` from the first batch.
- random-skip: a seeded coin per batch screens.
- three-stage and auto-threshold-only: stage 0 (warmup) has only a learner,
  the loss window. Stage 1 gates on the frozen window; under three-stage its
  learner scores and updates the meta predictor until the last
  ``predictor_window`` predictor losses average below ``alt``. Stage 2 then
  screens by the predictor, keeps the stage-1 gate and updates the predictor.
  Stages only ever move forward; a run is fully determined by (config, dataset).

A ``TrainerConfig`` checks every value when it is built and is frozen, so a
variant is made, and checked again, with ``dataclasses.replace``. A field
with a fixed set of values lists it in its ``choices`` metadata, which the
CLI's flag for it shares. A ``Trainer`` runs once. ``RunReport``'s fields, in
order, are the report JSON's keys; four take the paper's names (``T``,
``T_norm``, ``p_t``, ``co2e``).
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields, replace
from enum import IntEnum

import numpy as np

from . import data, metrics
from .data import Corpus, Example, MiniBatch, checked_positive, checked_size, make_batches, pack_examples
from .metapredictor import NaiveBayesModel
from .model import ForwardResult, TargetModel
from .threshold import ThresholdState, make_label

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


@dataclass(frozen=True)
class TrainerConfig:
    mode: str = field(default="three-stage", metadata={"choices": MODES})
    epochs: int = 1
    batch_size: int = 32
    seed: int = 0
    learning_rate: float = 0.5
    n0_fraction: float = 0.1
    threshold_window: int = 64
    predictor_window: int = 8
    alt: float = 0.3
    skip_margin_gamma: float = 1.0
    smoothing_alpha: float = 1.0
    fixed_threshold: float | None = None
    random_skip_ratio: float | None = None
    t_forward: float = 1.0
    t_backward: float = 2.0
    a_full: float | None = None
    record_trace: bool = False
    eval_every_epoch: bool = False
    # diagnostics: never leave stage 1
    disable_predictor: bool = False

    def __post_init__(self) -> None:
        """Reject every bad value, so a config that exists is a valid one."""
        for f in fields(self):
            value = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            if value is None and optional:
                continue
            if not isinstance(value, _FIELD_TYPES[kind]) or (kind != "bool" and isinstance(value, bool)):
                raise ValueError(f"{f.name} must be of type {kind}, got {value!r}")
            if isinstance(value, np.generic):  # stored as the Python number it is, which JSON can write
                object.__setattr__(self, f.name, value.item())
            if value != value:
                raise ValueError(f"{f.name} must not be NaN")
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"unknown {f.name}: {value!r}")
        for name in ("epochs", "batch_size", "threshold_window", "predictor_window"):
            checked_size(name, getattr(self, name))
        for name in ("learning_rate", "alt", "skip_margin_gamma", "smoothing_alpha", "t_forward", "t_backward"):
            checked_positive(name, getattr(self, name))
        data._checked_seed(self.seed)
        if not 0.0 < self.n0_fraction <= 1.0:
            raise ValueError("n0_fraction must lie in (0, 1]")
        if self.a_full is not None and not 0.0 <= self.a_full <= 1.0:
            raise ValueError("a_full must lie in [0, 1]")
        # each of these fields is set iff its mode runs, as no other mode reads it
        for name, mode in (("fixed_threshold", "fixed-threshold"), ("random_skip_ratio", "random-skip")):
            if self.mode == mode and getattr(self, name) is None:
                raise ValueError(f"{mode} mode needs {name}")
            if self.mode != mode and getattr(self, name) is not None:
                raise ValueError(f"{name} is for {mode} mode only")
        if self.random_skip_ratio is not None and not 0.0 <= self.random_skip_ratio < 1.0:
            raise ValueError("random_skip_ratio must lie in [0, 1)")
        # an infinite gate trains every batch or none, and JSON has no infinity to report it in
        if self.fixed_threshold is not None and not math.isfinite(self.fixed_threshold):
            raise ValueError("fixed_threshold must be finite")


# the report JSON names these fields as in the paper; the rest keep their own
_REPORT_KEYS = {"total_time": "T", "t_norm": "T_norm", "energy_kwh": "p_t", "co2e_lb": "co2e"}


@dataclass
class RunReport:
    """A run's results, fields in report JSON order (``traces`` is not in it)."""

    accuracy: float
    alpha_b: float
    alpha_fb: float
    total_time: float
    t_norm: float
    agot: float | None
    energy_kwh: float
    co2e_lb: float
    a_base: float
    batches_total: int
    backward_skipped: int
    forward_skipped: int
    full_steps: int
    stage_boundaries: dict
    overhead_wall_seconds: float
    epoch_accuracies: list[float] | None
    config: dict
    traces: list[StepTrace] = field(default_factory=list, repr=False)

    def to_json_dict(self) -> dict:
        return {_REPORT_KEYS.get(f.name, f.name): getattr(self, f.name) for f in fields(self) if f.name != "traces"}

    def with_a_full(self, a_full: float | None) -> RunReport:
        """The report the run would have given with config ``a_full``: only
        the config's ``a_full`` and ``agot`` depend on it. AGOT is scored against
        ``a_full``, or a train-all run's own accuracy where that is None; it is
        None without such a reference, when that equals ``a_base``, or when every
        batch was skipped, as AGOT divides by a power of T_norm."""
        config = {**self.config, "a_full": a_full}
        if a_full is None and config["mode"] == "train-all":
            a_full = self.accuracy
        agot = None
        if a_full is not None and a_full != self.a_base and self.t_norm > 0:
            agot = metrics.agot(self.accuracy, self.t_norm, metrics.AgotParams(a_base=self.a_base, a_full=a_full))
        return replace(self, config=config, agot=agot)


def priced_time(config: TrainerConfig, n_batches: int) -> float:
    """T of a run of ``config`` that trains all ``n_batches`` batches of every
    epoch, the most its time model can price. Raises ``ValueError`` when that
    T or its p_t is infinite: the report would write JSON's invalid Infinity."""
    t_all = config.epochs * n_batches * (config.t_forward + config.t_backward)
    if not (t_all < math.inf and metrics.energy_co2(metrics.EnergyParams(hours=t_all))[0] < math.inf):
        raise ValueError(
            f"t_forward and t_backward price {config.epochs} epoch(s) of {n_batches} batch(es) at an infinite T or p_t"
        )
    return t_all


def build_epoch_batches(examples: Sequence[Example], config: TrainerConfig) -> list[MiniBatch]:
    """The exact batch partition a run with this config iterates each epoch."""
    return make_batches(examples, config.batch_size, seed=config.seed)


class Trainer:
    def __init__(
        self,
        config: TrainerConfig,
        train_examples: Sequence[Example],
        eval_examples: Sequence[Example] | None = None,
    ):
        if not train_examples:
            raise ValueError("dataset is empty")
        if eval_examples is not None and not eval_examples:
            raise ValueError("eval set is empty; pass None to evaluate on the training set")
        self.config = config
        train = Corpus.from_examples(train_examples)  # a list is converted once; batches come from arrays
        self._eval_batch = pack_examples(train if eval_examples is None else eval_examples)
        self.model = TargetModel(learning_rate=config.learning_rate)
        self._epoch_batches = build_epoch_batches(train, config)
        self._t_all = priced_time(config, len(self._epoch_batches))
        self._warmup_batches = math.ceil(config.n0_fraction * len(self._epoch_batches) - 1e-9)
        self.stage = Stage.WARMUP
        self.epoch_index = 0
        self.batches_seen = 0
        self.backward_skipped = 0
        self.forward_skipped = 0
        self.full_steps = 0
        self.backward_filter_start: int | None = None
        self.full_filter_start: int | None = None
        # a run is staged iff it has a loss gate, and three-stage adds a predictor
        self.threshold = None
        if config.mode in ("three-stage", "auto-threshold-only"):
            self.threshold = ThresholdState(config.threshold_window, config.skip_margin_gamma)
        # the loss a forward batch's backward is gated on: fixed-threshold's from
        # the first batch (None in every other mode), a staged run's from freeze on
        self.gate = config.fixed_threshold
        self.predictor = None
        if config.mode == "three-stage":
            self.predictor = NaiveBayesModel(smoothing_alpha=config.smoothing_alpha)
        # the last ``predictor_window`` predictor losses; their mean gates stage 2
        self.predictor_losses: deque[float] = deque(maxlen=config.predictor_window)
        if config.mode == "random-skip":
            # separate stream from the shuffle so the mask is its own contract
            self._skip_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
        self.traces: list[StepTrace] = []
        self._overhead = 0.0

    # -- single-batch steps ------------------------------------------------

    def _pass(self, batch: MiniBatch, learn=None, skip: bool = False, predictor_p1=None) -> None:
        """Count the batch; unless ``skip``, forward it, label the loss against
        ``self.gate`` (none trains every batch), time ``learn(result, label)``
        as overhead and backward iff the label is 1. Trace it iff ``record_trace``."""
        self.batches_seen += 1
        loss = None
        if skip:
            self.forward_skipped += 1
            decision = DECISION_SKIPPED
        else:
            fr = self.model.forward(batch)
            loss, gate = fr.batch_loss, self.gate
            label = 1 if gate is None else make_label(loss, gate)
            if learn is not None:
                t0 = time.perf_counter()
                learn(fr, label)
                self._overhead += time.perf_counter() - t0
            if label == 1:
                self.model.backward(fr)
                self.full_steps += 1
                decision = DECISION_FULL
            else:
                self.backward_skipped += 1
                decision = DECISION_FORWARD_ONLY
        if self.config.record_trace:
            stage = None if self.threshold is None else int(self.stage)
            self.traces.append(StepTrace(self.epoch_index, self.batches_seen - 1, stage, decision, loss, predictor_p1))

    def _observe_loss(self, result: ForwardResult, label: int) -> None:
        self.threshold.observe(result.batch_loss)

    def _score_and_update_predictor(self, result: ForwardResult, label: int) -> None:
        # a single-class predictor is degenerate (its smoothed posteriors
        # saturate), so its loss only counts once both classes are seen
        if self.predictor.has_both_classes:
            self.predictor_losses.append(self.predictor.loss(result.batch, label))
        self.predictor.update(result.batch, label)

    def _update_predictor(self, result: ForwardResult, label: int) -> None:
        self.predictor.update(result.batch, label)

    def step_warmup(self, batch: MiniBatch) -> None:
        """Stage 0: always forward + backward, feeding the loss window."""
        self._pass(batch, learn=self._observe_loss)

    def step_backward_filter(self, batch: MiniBatch) -> None:
        """Stage 1: forward always; the gate decides backward and, when the
        predictor is on, labels it one training example (loss measured on the
        batch before the update)."""
        learn = None if self.predictor is None else self._score_and_update_predictor
        self._pass(batch, learn)

    def step_full_filter(self, batch: MiniBatch) -> None:
        """Stage 2: the predictor screens first; accepted batches run forward,
        gate the backward as in stage 1, and update the predictor."""
        t0 = time.perf_counter()
        decision, mean_p1 = self.predictor.predict_batch(batch)
        self._overhead += time.perf_counter() - t0
        self._pass(batch, self._update_predictor, decision == 0, mean_p1)

    # -- stage transitions ---------------------------------------------------

    def maybe_transition(self) -> None:
        """Advance the stage when its exit condition holds. Never goes back.

        Warmup ends once the batch budget is spent AND the loss window is
        full (the window requirement can stretch warmup past the budget).
        Stage 1 ends once the predictor-loss window is full with a mean
        below ``alt``.
        """
        if self.stage == Stage.WARMUP:
            if self.batches_seen >= self._warmup_batches and self.threshold.window_full:
                self.threshold.freeze()
                self.gate = self.threshold.skip_boundary  # frozen, so read once
                self.stage = Stage.BACKWARD_FILTER
                self.backward_filter_start = self.batches_seen
        elif self.stage == Stage.BACKWARD_FILTER and self.predictor is not None and not self.config.disable_predictor:
            window = self.predictor_losses
            if len(window) == window.maxlen and sum(window) / window.maxlen < self.config.alt:
                self.stage = Stage.FULL_FILTER
                self.full_filter_start = self.batches_seen

    def _step(self, batch: MiniBatch) -> None:
        if self.config.mode == "random-skip":
            self._pass(batch, skip=self._skip_rng.random() < self.config.random_skip_ratio)
        elif self.threshold is None:
            self._pass(batch)  # train-all and fixed-threshold
        else:
            if self.stage == Stage.WARMUP:
                self.step_warmup(batch)
            elif self.stage == Stage.BACKWARD_FILTER:
                self.step_backward_filter(batch)
            else:
                self.step_full_filter(batch)
            self.maybe_transition()

    # -- whole run -----------------------------------------------------------

    def run(self) -> RunReport:
        if self.batches_seen:
            raise RuntimeError("a Trainer runs once; build a new one for another run")
        cfg = self.config
        a_base = self.model.evaluate(self._eval_batch)
        epoch_accuracies: list[float] | None = [] if cfg.eval_every_epoch else None
        for epoch in range(cfg.epochs):
            self.epoch_index = epoch
            for batch in self._epoch_batches:
                self._step(batch)
            if epoch_accuracies is not None:
                epoch_accuracies.append(self.model.evaluate(self._eval_batch))
        accuracy = self.model.evaluate(self._eval_batch)

        total = self.batches_seen
        fractions = metrics.SkipFractions(
            alpha_b=self.backward_skipped / total, alpha_fb=self.forward_skipped / total
        )
        timing = metrics.TimingModel(cfg.t_forward, cfg.t_backward)
        t_ours = metrics.total_time(fractions, timing, total)
        time_norm = metrics.t_norm(t_ours, self._t_all)

        kwh, co2 = metrics.energy_co2(metrics.EnergyParams(hours=t_ours))

        boundaries = {
            "backward_filter_start": self.backward_filter_start,
            "full_filter_start": self.full_filter_start,
            "l_low": None if self.threshold is None else self.threshold.l_low,
        }
        return RunReport(
            accuracy=accuracy,
            a_base=a_base,
            alpha_b=fractions.alpha_b,
            alpha_fb=fractions.alpha_fb,
            total_time=t_ours,
            t_norm=time_norm,
            agot=None,
            energy_kwh=kwh,
            co2e_lb=co2,
            batches_total=total,
            backward_skipped=self.backward_skipped,
            forward_skipped=self.forward_skipped,
            full_steps=self.full_steps,
            stage_boundaries=boundaries,
            config=asdict(cfg),
            overhead_wall_seconds=self._overhead,
            epoch_accuracies=epoch_accuracies,
            traces=self.traces,
        ).with_a_full(cfg.a_full)


def run(
    config: TrainerConfig,
    train_examples: Sequence[Example],
    eval_examples: Sequence[Example] | None = None,
) -> RunReport:
    """Execute one experiment and report accuracy, skip fractions, and costs."""
    return Trainer(config, train_examples, eval_examples).run()


def random_control(config: TrainerConfig, target_ratio: float) -> TrainerConfig:
    """The matched-ratio control of ``config``: skip both passes on a seeded
    coin flip with chance ``target_ratio``. It ignores the gate, so it drops a
    fixed threshold. A ratio of 1.0 (a run that skipped every batch) runs at
    ``1 - 1e-9``, as the coin needs a ratio below 1; one outside [0, 1] raises."""
    ratio = 1.0 - 1e-9 if target_ratio == 1.0 else target_ratio
    return replace(config, mode="random-skip", random_skip_ratio=ratio, fixed_threshold=None)


def run_random_skip(
    config: TrainerConfig,
    train_examples: Sequence[Example],
    target_ratio: float,
    eval_examples: Sequence[Example] | None = None,
) -> RunReport:
    """Run ``random_control(config, target_ratio)``."""
    return run(random_control(config, target_ratio), train_examples, eval_examples)


TRACE_FIELDS = tuple(f.name for f in fields(StepTrace))
TRACE_HEADER = ",".join(TRACE_FIELDS)


def csv_field(value) -> str:
    """One CSV field: empty for None, the Python float's ``repr`` for a float
    (it reads back exactly; a numpy float's own ``repr`` names its type),
    ``str`` otherwise."""
    return "" if value is None else repr(float(value)) if isinstance(value, float) else str(value)


def write_trace(traces: list[StepTrace], path: str) -> None:
    """One line per batch; loss / probability fields are empty when the
    corresponding pass never ran."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for t in traces:
            fh.write(",".join(csv_field(getattr(t, name)) for name in TRACE_FIELDS) + "\n")
