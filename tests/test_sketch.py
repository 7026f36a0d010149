"""Tests for the streaming quantile sketch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree.sketch import QuantileSketch, cdf_lookup, quantile_targets


def make_sketch_123():
    # three quantiles -> targets [0.25, 0.5, 0.75]; state forced to [1, 2, 3]
    sk = QuantileSketch(n_quantiles=3, step=0.01)
    sk.update(1.0)
    sk.estimates[:] = [1.0, 2.0, 3.0]
    return sk


def test_targets_evenly_spaced_open_interval():
    t = quantile_targets(16)
    assert len(t) == 16
    assert np.all(np.diff(t) > 0)
    assert 0.0 < t[0] and t[-1] < 1.0
    assert t[0] == pytest.approx(1 / 17)
    assert t[-1] == pytest.approx(16 / 17)


def test_seeding_sets_all_estimates():
    sk = QuantileSketch(n_quantiles=4, step=0.01)
    assert not sk.seeded
    sk.update(3.0)
    assert sk.seeded
    assert sk.count == 1
    assert np.all(sk.estimates == np.float32(3.0))


def test_update_rule_hand_computed():
    # single median estimate at 0.5, observation above it moves it up by
    # step * 2 * p = 0.01
    sk = QuantileSketch(n_quantiles=1, step=0.01)
    assert quantile_targets(1)[0] == 0.5
    sk.update(0.5)
    sk.update(0.7)
    assert sk.estimates[0] == pytest.approx(0.51, abs=1e-6)
    assert sk.count == 2


def test_update_zero_gradient_at_exact_value():
    sk = QuantileSketch(n_quantiles=1, step=0.5)
    sk.update(0.5)
    sk.update(0.5)
    assert sk.estimates[0] == np.float32(0.5)


def test_update_down_step_weighting():
    # observation below a p=0.25 estimate moves it down by step * 2 * (1-p)
    sk = QuantileSketch(n_quantiles=3, step=0.01)
    sk.update(1.0)
    sk.update(0.0)
    expected = np.float32(1.0) - np.float32(2 * 0.01 * 0.75)
    assert sk.estimates[0] == expected


def test_update_rejects_non_finite():
    sk = QuantileSketch()
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sk.update(bad)


def test_estimate_examples():
    sk = make_sketch_123()
    assert sk.estimate(0.5) == pytest.approx(2.0)
    assert sk.estimate(0.375) == pytest.approx(1.5)  # midway between knots
    assert sk.estimate(0.01) == pytest.approx(1.0)  # clamp below first knot
    assert sk.estimate(0.99) == pytest.approx(3.0)


def test_estimate_requires_seeded_and_open_interval():
    sk = QuantileSketch(3)
    with pytest.raises(ValueError):
        sk.estimate(0.5)
    sk.update(1.0)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            sk.estimate(bad)


def test_cdf_examples():
    sk = make_sketch_123()
    assert sk.cdf_estimate(2.0) == pytest.approx(0.5)
    assert sk.cdf_estimate(0.0) == pytest.approx(0.25)  # clamp
    assert sk.cdf_estimate(4.0) == pytest.approx(0.75)  # clamp
    assert sk.cdf_estimate(2.5) == pytest.approx(0.625)


def test_cdf_right_continuous_on_ties():
    # four quantiles -> targets [0.2, 0.4, 0.6, 0.8]; a run of equal
    # estimates must resolve to the largest target in the run
    sk = QuantileSketch(n_quantiles=4, step=0.01)
    sk.update(1.0)
    sk.estimates[:] = [1.0, 2.0, 2.0, 3.0]
    assert sk.cdf_estimate(2.0) == pytest.approx(0.6)
    assert sk.cdf_estimate(1.0) == pytest.approx(0.2)


def test_cdf_requires_seeded():
    with pytest.raises(ValueError):
        QuantileSketch(3).cdf_estimate(1.0)


def test_cdf_inverts_estimate_at_knots():
    sk = make_sketch_123()
    for p in sk.targets:
        assert sk.cdf_estimate(sk.estimate(float(p))) == pytest.approx(float(p))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60))
def test_estimates_stay_sorted(xs):
    sk = QuantileSketch(n_quantiles=8, step=0.5)
    for x in xs:
        sk.update(x)
    assert np.all(np.diff(sk.estimates) >= 0)


def test_update_deterministic_bit_identical():
    rng = np.random.default_rng(7)
    xs = rng.normal(size=500)
    a = QuantileSketch(16, 0.01)
    b = QuantileSketch(16, 0.01)
    for x in xs:
        a.update(float(x))
        b.update(float(x))
    assert a.estimates.tobytes() == b.estimates.tobytes()
    assert a.count == b.count


def test_estimates_converge_to_uniform_quantiles():
    # The stationary point of each estimate is its target quantile; the
    # constant step leaves fluctuation of roughly sqrt(step * p * (1-p)),
    # about 0.05 at the median here. Check bias across the whole curve,
    # which a broken update rule would wreck far beyond these bounds.
    worst, mean_errs = 0.0, []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(size=10_000)
        sk = QuantileSketch(16, 0.01)
        for x in xs:
            sk.update(float(x))
        exact = np.quantile(xs, sk.targets)  # buffered brute-force oracle
        errs = np.abs(sk.estimates - exact)
        worst = max(worst, errs.max())
        mean_errs.append(errs.mean())
    assert worst < 0.2
    assert np.mean(mean_errs) < 0.06


def test_constructor_validation():
    with pytest.raises(ValueError):
        QuantileSketch(0)
    with pytest.raises(ValueError):
        QuantileSketch(4, step=0.0)


def test_cdf_lookup_interpolates_in_float64():
    est = np.array([0.0, 1.0], dtype=np.float32)
    t = np.array([0.25, 0.75])
    assert cdf_lookup(est, t, 0.5) == pytest.approx(0.5)


def test_cdf_lookup_on_an_infinite_knot_reads_its_target():
    # interpolating from a -inf knot would give NaN; a knot hit reads the
    # knot's own target instead
    est = np.array([-np.inf, 0.0, 1.0], dtype=np.float32)
    t = quantile_targets(3)
    assert cdf_lookup(est, t, -np.inf) == t[0]
    assert cdf_lookup(est, t, 0.0) == t[1]
