"""Analytic cost and trade-off metrics for a training run.

Training time is modelled from per-pass costs and the measured skip
fractions instead of wall clocks, so results are hardware independent and
exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .data import checked_positive, checked_size, is_int, is_real


@dataclass(frozen=True)
class TimingModel:
    """Cost of one forward / backward pass per batch, in any fixed unit."""

    t_forward: float = 1.0
    t_backward: float = 2.0

    def __post_init__(self):
        checked_positive("t_forward", self.t_forward)
        checked_positive("t_backward", self.t_backward)


@dataclass(frozen=True)
class SkipFractions:
    """alpha_b: only backward skipped; alpha_fb: both passes skipped."""

    alpha_b: float
    alpha_fb: float

    def __post_init__(self):
        if not all(is_real(a) and 0.0 <= a <= 1.0 for a in (self.alpha_b, self.alpha_fb)):
            raise ValueError("skip fractions must be numbers in [0, 1]")
        if self.alpha_b + self.alpha_fb > 1.0 + 1e-12:
            raise ValueError("alpha_b + alpha_fb must not exceed 1")


@dataclass(frozen=True)
class AgotParams:
    """epsilon in [0, 1] weighs accuracy against time; 1 ignores time."""

    epsilon: float = 0.95
    a_base: float = 0.5
    a_full: float = 1.0

    def __post_init__(self):
        if not (is_real(self.epsilon) and 0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must be a number in [0, 1]")
        if not all(is_real(a) and math.isfinite(a) for a in (self.a_base, self.a_full)):
            raise ValueError("a_base and a_full must be finite numbers")
        if self.a_full == self.a_base:
            raise ValueError("a_full must differ from a_base")


# power usage effectiveness and pounds of CO2e per kWh, fixed as in Strubell et al. 2019 (arXiv:1906.02243)
PUE = 1.58
CO2_LB_PER_KWH = 0.954


@dataclass(frozen=True)
class EnergyParams:
    """Average power draws (watts), GPU count, and training time in hours."""

    p_cpu: float = 100.0
    p_dram: float = 50.0
    p_gpu: float = 250.0
    gpu_count: int = 1
    hours: float = 0.0

    def __post_init__(self):
        values = (self.p_cpu, self.p_dram, self.p_gpu, self.gpu_count, self.hours)
        if not (is_int(self.gpu_count) and all(is_real(v) and 0 <= v < math.inf for v in values)):
            raise ValueError("energy parameters must be non-negative finite numbers and gpu_count an integer")


def total_time(fractions: SkipFractions, timing: TimingModel, num_batches: int) -> float:
    """Modelled run time: skipped backwards pay only the forward, fully
    skipped batches pay nothing."""
    num_batches = checked_size("num_batches", num_batches)
    full = 1.0 - fractions.alpha_b - fractions.alpha_fb
    per_batch = fractions.alpha_b * timing.t_forward + full * (timing.t_forward + timing.t_backward)
    return num_batches * per_batch


def t_norm(t_ours: float, t_all: float) -> float:
    """Run time normalized to the train-everything baseline."""
    if not (is_real(t_ours) and 0 <= t_ours < math.inf):
        raise ValueError(f"t_ours must be a finite number >= 0, got {t_ours!r}")
    return t_ours / checked_positive("t_all", t_all)


def agot(accuracy: float, time_norm: float, params: AgotParams) -> float:
    """Accuracy gain over time: normalized gain divided by time_norm**(1-eps)."""
    if not (is_real(accuracy) and math.isfinite(accuracy)):
        raise ValueError(f"accuracy must be a finite number, got {accuracy!r}")
    time_norm = checked_positive("time_norm", time_norm)
    gain = (accuracy - params.a_base) / (params.a_full - params.a_base)
    return gain / time_norm ** (1.0 - params.epsilon)


def energy_co2(params: EnergyParams) -> tuple[float, float]:
    """Total energy in kWh and its CO2-equivalent in pounds."""
    kwh = PUE * params.hours * (params.p_cpu + params.p_dram + params.gpu_count * params.p_gpu) / 1000.0
    return kwh, CO2_LB_PER_KWH * kwh
