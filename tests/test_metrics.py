from functools import partial

import numpy as np
import pytest

from lossgate.metrics import (
    CO2_LB_PER_KWH,
    PUE,
    AgotParams,
    EnergyParams,
    SkipFractions,
    TimingModel,
    agot,
    energy_co2,
    t_norm,
    total_time,
)

TIMING = TimingModel(t_forward=1.0, t_backward=2.0)
NAN, INF = float("nan"), float("inf")


# -- total_time -----------------------------------------------------------------


def test_total_time_no_skipping():
    assert total_time(SkipFractions(0.0, 0.0), TIMING, 1) == pytest.approx(3.0, abs=1e-12)


def test_total_time_substitution_case():
    value = total_time(SkipFractions(0.1, 0.6), TIMING, 1)
    assert value == pytest.approx(0.1 * 1.0 + 0.3 * 3.0, abs=1e-9)


def test_total_time_everything_skipped():
    assert total_time(SkipFractions(0.0, 1.0), TIMING, 10) == pytest.approx(0.0, abs=1e-12)


def test_total_time_scales_with_batches():
    one = total_time(SkipFractions(0.2, 0.3), TIMING, 1)
    assert total_time(SkipFractions(0.2, 0.3), TIMING, 500) == pytest.approx(500 * one, rel=1e-12)


def test_total_time_monotone_in_skip_fractions():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a_b = rng.uniform(0, 0.6)
        a_fb = rng.uniform(0, 1 - a_b - 1e-9)
        base = total_time(SkipFractions(a_b, a_fb), TIMING, 7)
        bump = min(1 - a_b - a_fb, 0.1)
        assert total_time(SkipFractions(a_b + bump, a_fb), TIMING, 7) <= base + 1e-12
        assert total_time(SkipFractions(a_b, a_fb + bump), TIMING, 7) <= base + 1e-12
        assert base <= total_time(SkipFractions(0.0, 0.0), TIMING, 7) + 1e-12


@pytest.mark.parametrize("times", [(0.0, 2.0), (1.0, -1.0), (NAN, 2.0), (1.0, NAN), (INF, 2.0), (1.0, INF)])
def test_timing_model_rejects_bad_pass_times(times):
    bad = "t_backward" if times[0] == 1.0 else "t_forward"
    with pytest.raises(ValueError, match=f"^{bad} must be positive and finite$"):
        TimingModel(*times)


def test_skip_fractions_validation():
    with pytest.raises(ValueError):
        SkipFractions(0.7, 0.5)
    with pytest.raises(ValueError):
        SkipFractions(-0.1, 0.0)


# -- t_norm -----------------------------------------------------------------------


def test_t_norm_identity():
    assert t_norm(3.0, 3.0) == 1.0


def test_t_norm_degenerate_zero_numerator():
    assert t_norm(0.0, 5.0) == 0.0


def test_t_norm_zero_denominator_rejected():
    with pytest.raises(ValueError):
        t_norm(1.0, 0.0)


def test_t_norm_headline_scale_reduction():
    # a 6.7x time reduction corresponds to roughly 0.149
    assert t_norm(1.0, 6.7) == pytest.approx(0.14925, abs=5e-5)


# -- agot -------------------------------------------------------------------------


def test_agot_epsilon_one_ignores_time():
    params = AgotParams(epsilon=1.0, a_base=0.5, a_full=0.9)
    assert agot(0.8, 0.25, params) == agot(0.8, 1.0, params) == pytest.approx(0.75, abs=1e-12)


def test_agot_normalization_anchor_exact():
    for eps in (0.0, 0.5, 0.95, 1.0):
        params = AgotParams(epsilon=eps, a_base=0.5, a_full=0.9)
        assert agot(0.9, 1.0, params) == 1.0


def test_agot_substitution_case():
    params = AgotParams(epsilon=0.95, a_base=0.5, a_full=0.9)
    expected = (0.88 - 0.5) / (0.9 - 0.5) / 0.25 ** (1 - 0.95)
    assert expected == pytest.approx(1.0182, abs=5e-4)
    assert agot(0.88, 0.25, params) == pytest.approx(expected, abs=1e-9)


def test_agot_monotone_in_accuracy_and_time():
    params = AgotParams(epsilon=0.95, a_base=0.5, a_full=0.9)
    assert agot(0.85, 0.5, params) < agot(0.86, 0.5, params)
    assert agot(0.85, 0.5, params) > agot(0.85, 0.6, params)


def test_agot_rejects_nonpositive_time():
    params = AgotParams()
    with pytest.raises(ValueError):
        agot(0.9, 0.0, params)
    with pytest.raises(ValueError):
        agot(0.9, -1.0, params)


def test_agot_params_validation():
    with pytest.raises(ValueError):
        AgotParams(epsilon=1.5)
    with pytest.raises(ValueError):
        AgotParams(a_base=0.7, a_full=0.7)


@pytest.mark.parametrize("field", ["a_base", "a_full"])
@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_agot_params_reject_non_finite_anchors(field, value):
    with pytest.raises(ValueError, match="finite"):
        AgotParams(**{field: value})


# -- energy -----------------------------------------------------------------------


def test_energy_zero_time():
    assert energy_co2(EnergyParams(hours=0.0)) == (0.0, 0.0)


def test_energy_substitution_case():
    kwh, co2 = energy_co2(EnergyParams(p_cpu=100, p_dram=50, p_gpu=250, gpu_count=1, hours=10))
    assert kwh == pytest.approx(6.32, abs=1e-9)
    assert co2 == pytest.approx(6.02928, abs=1e-9)


def test_energy_linear_in_time():
    full = energy_co2(EnergyParams(hours=10))
    half = energy_co2(EnergyParams(hours=5))
    assert half[0] == pytest.approx(full[0] / 2, rel=1e-12)
    assert half[1] == pytest.approx(full[1] / 2, rel=1e-12)


def test_energy_linear_in_each_power_term():
    base = EnergyParams(p_cpu=100, p_dram=0, p_gpu=0, gpu_count=0, hours=2)
    doubled = EnergyParams(p_cpu=200, p_dram=0, p_gpu=0, gpu_count=0, hours=2)
    assert energy_co2(doubled)[0] == pytest.approx(2 * energy_co2(base)[0], rel=1e-12)


def test_energy_applies_the_fixed_pue_and_co2_rate():
    # Strubell et al. 2019's constants, multiplied in the formula's order
    assert (PUE, CO2_LB_PER_KWH) == (1.58, 0.954)
    kwh, co2 = energy_co2(EnergyParams(p_cpu=1000, p_dram=0, p_gpu=0, gpu_count=0, hours=1))
    assert kwh == PUE * 1 * 1000 / 1000.0 == 1.58
    assert co2 == CO2_LB_PER_KWH * kwh


@pytest.mark.parametrize("field", ["p_cpu", "p_dram", "p_gpu", "gpu_count", "hours"])
@pytest.mark.parametrize("value", [-1.0, NAN, INF])
def test_energy_params_reject_negative_and_non_finite(field, value):
    with pytest.raises(ValueError, match="energy parameters"):
        EnergyParams(**{field: value})


# -- the number rules -------------------------------------------------------------------

BAD_NUMBERS = {
    "pass-time-bool": (TimingModel, {"t_forward": True}, "t_forward must be a number, got True"),
    "pass-time-string": (TimingModel, {"t_backward": "2"}, "t_backward must be a number, got '2'"),
    "skip-fraction-bool": (SkipFractions, {"alpha_b": True, "alpha_fb": 0.0}, "skip fractions"),
    "skip-fraction-string": (SkipFractions, {"alpha_b": 0.0, "alpha_fb": "0.5"}, "skip fractions"),
    "epsilon-bool": (AgotParams, {"epsilon": True}, "epsilon"),
    "anchor-bool": (AgotParams, {"a_full": True}, "a_full"),
    "anchor-string": (AgotParams, {"a_base": "0.5"}, "a_base"),
    "gpu-count-fraction": (EnergyParams, {"gpu_count": 1.5}, "energy parameters"),
    "gpu-count-bool": (EnergyParams, {"gpu_count": True}, "energy parameters"),
    "power-bool": (EnergyParams, {"p_cpu": True}, "energy parameters"),
    "hours-string": (EnergyParams, {"hours": "1"}, "energy parameters"),
    "num-batches-fraction": (partial(total_time, SkipFractions(0.0, 0.0), TIMING), {"num_batches": 2.5}, "num_batches"),
    "num-batches-bool": (partial(total_time, SkipFractions(0.0, 0.0), TIMING), {"num_batches": True}, "num_batches"),
    "t-ours-bool": (partial(t_norm, t_all=2.0), {"t_ours": True}, "t_ours"),
    "t-ours-string": (partial(t_norm, t_all=2.0), {"t_ours": "1"}, "t_ours"),
    "t-ours-nan": (partial(t_norm, t_all=2.0), {"t_ours": NAN}, "t_ours"),
    "t-all-bool": (partial(t_norm, 1.0), {"t_all": True}, "t_all"),
    "accuracy-bool": (partial(agot, time_norm=0.5, params=AgotParams()), {"accuracy": True}, "accuracy"),
    "accuracy-nan": (partial(agot, time_norm=0.5, params=AgotParams()), {"accuracy": NAN}, "accuracy"),
    "time-norm-bool": (partial(agot, 0.8, params=AgotParams()), {"time_norm": True}, "time_norm"),
    "time-norm-nan": (partial(agot, 0.8, params=AgotParams()), {"time_norm": NAN}, "time_norm"),
}


@pytest.mark.parametrize("case", BAD_NUMBERS)
def test_a_bool_a_fraction_or_a_string_is_refused_where_a_number_is_due(case):
    # a bool would count as 1 and a fraction of a GPU or a batch as a real one
    make, kwargs, match = BAD_NUMBERS[case]
    with pytest.raises(ValueError, match=match):
        make(**kwargs)


def test_numpy_numbers_pass_the_number_rules():
    timing = TimingModel(np.float64(1.0), np.int64(2))
    value = total_time(SkipFractions(np.float64(0.25), 0.0), timing, np.int64(4))
    assert value == 4 * (0.25 * 1.0 + 0.75 * 3.0)
    assert energy_co2(EnergyParams(gpu_count=np.int64(2), hours=np.float64(1.0))) == energy_co2(
        EnergyParams(gpu_count=2, hours=1.0)
    )
    assert AgotParams(epsilon=np.float64(0.5)).epsilon == 0.5
