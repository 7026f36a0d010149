"""Tests for the streaming quantile sketch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import streamtree.sketch as sketch_module
from streamtree.sketch import (
    QuantileSketch,
    _signum_steps,
    cdf_lookup,
    quantile_targets,
    signum_update,
)
from streamtree.tree import Hyperparams


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


def test_cdf_refuses_nan():
    # a NaN used to count no knot at or below it and read the first target
    sk = make_sketch_123()
    with pytest.raises(ValueError, match="at value nan"):
        sk.cdf_estimate(math.nan)
    with pytest.raises(ValueError, match="at value nan"):
        cdf_lookup(sk.estimates, sk.targets, np.float32("nan"))


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


@pytest.mark.parametrize("step", [1e-47, 1e39])
def test_steps_that_round_to_zero_or_inf_in_f32_are_refused(step):
    # signum_update's arithmetic step is exact only for finite positive steps
    with pytest.raises(ValueError, match="f32 increments of 0 or inf"):
        QuantileSketch(16, step=step)
    with pytest.raises(ValueError, match="f32 increments of 0 or inf"):
        Hyperparams(dims=1, classes=2, lam=step)


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


# ------------------------------------------------------- step exactness


def masked_signum_update(estimates, x, up, down):
    """The masked step signum_update made before its arithmetic form: the reference."""
    above = x > estimates
    below = x < estimates
    np.add(estimates, up, out=estimates, where=above)
    np.subtract(estimates, down, out=estimates, where=below)
    estimates.sort(axis=-1)


# repeated values, signed zeros and magnitudes up to 1e30
TIE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, 1e30, -1e30, 3e-39], dtype=np.float32)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 40),
    dims=st.sampled_from([1, 3, 54]),
    lam=st.sampled_from([0.01, 0.5, 1e-44, 1e25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_signum_update_matches_the_masked_step_byte_for_byte(m, dims, lam, seed):
    rng = np.random.default_rng(seed)
    nq = 16
    wide = (rng.standard_normal(8) * 10.0 ** rng.integers(-3, 31, 8)).astype(np.float32)
    values = np.concatenate((TIE_VALUES, wide))
    knots = np.sort(rng.choice(values, size=(m, dims, nq)), axis=-1)
    # half the observations are knots of their own row: ties
    own = np.take_along_axis(knots, rng.integers(0, nq, (m, dims, 1)), axis=-1)
    x = np.where(rng.random((m, dims, 1)) < 0.5, own, rng.choice(values, size=(m, dims, 1)))
    up, down = _signum_steps(nq, lam)
    want = knots.copy()
    masked_signum_update(want, x, up, down)

    def full(a):
        return np.ascontiguousarray(np.broadcast_to(a, knots.shape))

    for operands in ((x, up, down), (full(x), full(up), full(down))):
        got = knots.copy()
        signum_update(got, *operands)
        assert got.tobytes() == want.tobytes()


def test_sketch_update_matches_the_masked_step_byte_for_byte():
    # seeded at -0.0, then ties of either sign, then repeated values
    rng = np.random.default_rng(5)
    zeros = rng.choice(TIE_VALUES[:2], size=50)
    xs = np.concatenate(([-0.0], zeros, rng.choice(TIE_VALUES[:5], size=350)))
    sk = QuantileSketch(8, step=0.5)
    up, down = _signum_steps(8, 0.5)
    want = np.full(8, -0.0, dtype=np.float32)
    for i, x in enumerate(xs):
        sk.update(float(x))
        if i:
            masked_signum_update(want, np.float32(x), up, down)
        assert sk.estimates.tobytes() == want.tobytes()
        if i == len(zeros):
            assert np.signbit(want).all() and (want == 0.0).all()


# ------------------------------------------------------- crossed-row sort


def full_sort_signum_update(estimates, x, up, down):
    """The arithmetic step, then a sort of every row: the reference for the sort rule."""
    estimates -= (x < estimates) * down - (x > estimates) * up
    estimates.sort(axis=-1)


# the tie values, the f32 extremes, infinite knots and a subnormal of either sign
SORT_VALUES = np.concatenate((
    TIE_VALUES, np.float32([np.inf, -np.inf, 3.4e38, -3.4e38, -1e-45, 1e-45])
))


def crossing_block(rng, m, dims, nq):
    """Knots a hundredth of a step apart around each observation, so every row crosses."""
    centre = rng.normal(size=(m, dims, 1)).astype(np.float32)
    knots = (centre + 1e-4 * np.arange(nq) - 1e-4 * (nq // 2)).astype(np.float32)
    return knots, centre


def partly_crossing_block(rng, m, dims, nq, crossing):
    """Knots 1,000 apart, which no step of up to 1 reorders, but in the rows where crossing holds."""
    far = (np.arange(nq) * 1e3 + rng.integers(-10**6, 10**6, (m, dims, 1))).astype(np.float32)
    tight, centre = crossing_block(rng, m, dims, nq)
    crossing = crossing[..., None]
    return np.where(crossing, tight, far), np.where(crossing, centre, far[..., 7:8] + np.float32(500))


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 24),
    dims=st.sampled_from([1, 3, 54]),
    kind=st.sampled_from(["mixed", "fresh", "signed-zeros", "crossing", "few-crossing"]),
    lam=st.sampled_from([0.01, 0.5, 1e25]),
    seed=st.integers(0, 2**32 - 1),
)
def test_signum_update_sorts_like_a_full_sort_on_either_side_of_the_rule(m, dims, kind, lam, seed):
    rng = np.random.default_rng(seed)
    nq = 16
    if kind == "crossing":
        knots, x = crossing_block(rng, m, dims, nq)
    elif kind == "few-crossing":
        knots, x = partly_crossing_block(rng, m, dims, nq, rng.random((m, dims)) < 0.05)
    else:
        if kind == "mixed":
            knots = np.sort(rng.choice(SORT_VALUES, size=(m, dims, nq)), axis=-1)
        elif kind == "fresh":
            # freshly seeded rows: every knot of a row at one value
            knots = np.repeat(rng.choice(SORT_VALUES, size=(m, dims, 1)), nq, axis=-1)
        else:
            # rows of +-0.0 in any order, which a sort may leave or reorder
            knots = rng.choice(TIE_VALUES[:2], size=(m, dims, nq))
        own = np.take_along_axis(knots, rng.integers(0, nq, (m, dims, 1)), axis=-1)
        x = np.where(rng.random((m, dims, 1)) < 0.5, own, rng.choice(SORT_VALUES[:-6], size=(m, dims, 1)))
    up, down = _signum_steps(nq, lam)
    want = knots.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        full_sort_signum_update(want, x, up, down)
        masked = knots.copy()
        masked_signum_update(masked, x, up, down)
    assert masked.tobytes() == want.tobytes()

    def full(a):
        return np.ascontiguousarray(np.broadcast_to(a, knots.shape))

    # 1: every call takes the crossed-row path; 10**9: every call sorts all rows
    for rule in (1, sketch_module._SORT_ROWS, 10**9):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sketch_module, "_SORT_ROWS", rule)
            for operands in ((x, up, down), (full(x), full(up), full(down))):
                got = knots.copy()
                with np.errstate(over="ignore", invalid="ignore"):
                    signum_update(got, *operands)
                assert got.tobytes() == want.tobytes()
            # a strided block cannot be flattened in place, so it sorts every row
            wide = np.zeros((2 * m, dims, nq), dtype=np.float32)
            wide[::2] = knots
            with np.errstate(over="ignore", invalid="ignore"):
                signum_update(wide[::2], full(x), full(up), full(down))
            assert wide[::2].tobytes() == want.tobytes()


@pytest.mark.parametrize("crossing", [1, 2, 70, 71, 21 * 54])
def test_wide_blocks_re_sort_their_crossed_rows(crossing):
    # of 1,134 rows, up to 70 (one in 16) crossed rows are sorted one by one,
    # and more by a sort of every row
    rng = np.random.default_rng(3)
    rows = np.arange(21 * 54).reshape(21, 54) < crossing
    knots, x = partly_crossing_block(rng, 21, 54, 16, rows)
    up, down = _signum_steps(16, 0.01)
    stepped = knots - ((x < knots) * down - (x > knots) * up)
    assert np.count_nonzero((np.diff(stepped, axis=-1) <= 0).any(axis=-1)) == crossing
    want = knots.copy()
    full_sort_signum_update(want, x, up, down)
    got = knots.copy()
    signum_update(got, x, up, down)
    assert got.tobytes() == want.tobytes()
    assert (np.diff(got, axis=-1) > 0).all()
