import math

import numpy as np
import pytest

from lossgate.threshold import ThresholdState, make_label


def filled(values, window_size, **kw):
    state = ThresholdState(window_size, **kw)
    for v in values:
        state.observe(v)
    return state


# -- moving average ---------------------------------------------------------------


def test_mean_of_three():
    state = filled([0.2, 0.4, 0.6], window_size=3)
    assert state.l_low == pytest.approx(0.4, abs=1e-15)


def test_constant_stream_mean_is_constant():
    for k in (1, 4, 9):
        state = filled([0.7] * (k + 5), window_size=k)
        assert state.l_low == pytest.approx(0.7, abs=1e-15)


def test_sliding_mean_hand_case():
    state = filled([0.1, 0.2, 0.3, 0.4, 0.5], window_size=4)
    assert state.l_low == pytest.approx((0.2 + 0.3 + 0.4 + 0.5) / 4, abs=1e-15)


def test_undefined_until_window_full():
    state = ThresholdState(4)
    for v in (0.1, 0.2, 0.3):
        state.observe(v)
        assert state.l_low is None
    state.observe(0.4)
    assert state.l_low is not None


def test_sliding_mean_matches_slice_oracle():
    rng = np.random.default_rng(0)
    for k in (1, 8, 64):
        state = ThresholdState(k)
        stream = rng.uniform(0.0, 2.0, size=300)
        for i, loss in enumerate(stream):
            state.observe(loss)
            if i + 1 >= k:
                expected = sum(stream[i + 1 - k : i + 1]) / k
                assert abs(state.l_low - expected) <= 1e-12


def test_monotone_response_to_uniform_shift():
    rng = np.random.default_rng(1)
    values = rng.uniform(0.0, 1.0, size=16)
    delta = 0.25
    base = filled(values, window_size=16)
    shifted = filled(values + delta, window_size=16)
    assert shifted.l_low - base.l_low == pytest.approx(delta, abs=1e-12)


def test_observe_rejects_bad_losses():
    state = ThresholdState(3)
    with pytest.raises(ValueError):
        state.observe(-0.1)
    with pytest.raises(ValueError):
        state.observe(float("nan"))
    # a bool would count as 1.0, and a string is no loss
    for bad in (True, "0.5"):
        with pytest.raises(ValueError, match="loss"):
            state.observe(bad)
    assert len(state._window) == 0


# -- window variance ----------------------------------------------------------------


def test_constant_window_variance_is_zero():
    state = filled([0.5, 0.5, 0.5], window_size=3)
    assert state.variance() == 0.0


def test_two_point_window_variance():
    state = filled([0.0, 1.0], window_size=2)
    assert state.variance() == pytest.approx(0.5, abs=1e-15)


def test_symmetric_pair_variance_is_twice_the_squared_half_spread():
    # sample variance of {c - d, c + d} is 2 d^2; pick d for 4.3e-5
    d = math.sqrt(4.3e-5 / 2)
    state = filled([0.6 - d, 0.6 + d], window_size=2)
    assert state.variance() == pytest.approx(4.3e-5, rel=1e-9)


def test_partial_window_has_no_variance():
    state = ThresholdState(5)
    state.observe(0.2)
    assert state.variance() is None


def test_overflowing_window_variance_raises():
    # finite losses whose squared deviations overflow come from a diverged model
    state = filled([0.0, 1e300], window_size=2)
    with pytest.raises(RuntimeError, match="non-finite loss window variance"):
        state.variance()
    with pytest.raises(RuntimeError, match="non-finite loss window variance"):
        state.freeze()
    assert not state.frozen


def test_single_slot_window_has_zero_variance():
    state = filled([0.9], window_size=1)
    assert state.variance() == 0.0


# -- freeze -----------------------------------------------------------------------


def test_freeze_requires_full_window():
    state = ThresholdState(3)
    state.observe(0.1)
    with pytest.raises(ValueError):
        state.freeze()


def test_freeze_preserves_value_and_rejects_observe():
    state = filled([0.2, 0.4], window_size=2)
    before = state.l_low
    state.freeze()
    assert state.l_low == before
    with pytest.raises(ValueError, match="frozen"):
        state.observe(0.5)


def test_double_freeze_idempotent():
    state = filled([0.2, 0.4], window_size=2)
    state.freeze()
    value = state.l_low
    state.freeze()
    assert state.l_low == value


# -- skip decisions -----------------------------------------------------------------


def test_make_label_against_skip_boundary_is_strict():
    state = filled([0.4, 0.4], window_size=2)
    assert make_label(0.1, state.skip_boundary) == 0
    assert make_label(0.4, state.skip_boundary) == 1  # boundary stays trainable
    assert make_label(0.9, state.skip_boundary) == 1


def test_make_label_against_skip_boundary_before_window_full_raises():
    state = ThresholdState(2)
    state.observe(0.3)
    with pytest.raises(ValueError, match="undefined"):
        make_label(0.1, state.skip_boundary)


def test_skip_margin_gamma_scales_the_gate():
    state = filled([0.4, 0.4], window_size=2, skip_margin_gamma=0.5)
    assert state.skip_boundary == pytest.approx(0.2, abs=1e-15)
    assert make_label(0.15, state.skip_boundary) == 0
    assert make_label(0.3, state.skip_boundary) == 1


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_skip_margin_gamma_must_be_positive_and_finite(gamma):
    # a NaN gamma would make every comparison false, i.e. skip every backward
    with pytest.raises(ValueError, match="skip_margin_gamma"):
        ThresholdState(2, skip_margin_gamma=gamma)


def test_skip_decision_is_pure():
    state = filled([0.5, 0.7], window_size=2)
    answers = [make_label(0.55, state.skip_boundary) for _ in range(5)]
    assert answers == [0] * 5
    assert state.l_low == pytest.approx(0.6, abs=1e-15)


@pytest.mark.parametrize("window_size", [2.7, 2.0, True, 0, -1, np.int64(0), "2"])
def test_window_size_must_be_an_integer_of_at_least_1(window_size):
    # int() would truncate 2.7 to a window of 2 and True to one of 1
    with pytest.raises(ValueError, match="window_size"):
        ThresholdState(window_size)


def test_window_size_accepts_a_numpy_integer():
    state = ThresholdState(np.int64(2))
    assert type(state.window_size) is int
    assert filled([0.2, 0.4], window_size=np.int64(2)).l_low == pytest.approx(0.3, abs=1e-15)
