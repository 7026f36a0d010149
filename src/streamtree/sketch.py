"""Constant-memory streaming quantile estimation.

A sketch tracks a fixed set of quantile estimates for a scalar stream.
Each observation nudges every estimate by a fixed step whose direction and
magnitude come from an asymmetric signum rule: an estimate for target
probability p moves up by 2*lambda*p when the observation lies above it and
down by 2*lambda*(1-p) when below. The stationary point of that rule is the
true p-quantile. Estimates are kept in f32, matching the storage layout of
the serialized tree.

Accuracy: with f the stream's density at the p-quantile q*, an estimate q
drifts by -2*lambda*f*(q - q*) per observation, so it is unbiased at q* but
never settles. It keeps fluctuating about q* with standard deviation
sqrt(lambda*p*(1-p)/f), e.g. 0.05 for the median of Uniform(0,1) at
lambda = 0.01, and forgets its past within about 1/(2*lambda*f)
observations. lambda is in the stream's units: a smaller step narrows the
spread and slows tracking.

The same update arithmetic is reused by the tree's per-leaf statistics,
which batch many sketches into one array; the helpers here are written
against trailing-axis layouts so both paths share one code path.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["QuantileSketch", "quantile_targets"]


@lru_cache(maxsize=None)
def quantile_targets(n_quantiles: int) -> np.ndarray:
    """Evenly spaced target probabilities i/(n+1), i = 1..n, read-only."""
    if n_quantiles < 1:
        raise ValueError("n_quantiles must be positive")
    targets = np.arange(1, n_quantiles + 1, dtype=np.float64) / (n_quantiles + 1)
    targets.flags.writeable = False
    return targets


@lru_cache(maxsize=None)
def _signum_steps(n_quantiles: int, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-estimate increments (upward, downward) as read-only f32 arrays."""
    p = quantile_targets(n_quantiles)
    up = (2.0 * step * p).astype(np.float32)
    down = (2.0 * step * (1.0 - p)).astype(np.float32)
    up.flags.writeable = False
    down.flags.writeable = False
    return up, down


def signum_update(estimates: np.ndarray, x, up: np.ndarray, down: np.ndarray) -> None:
    """Apply one asymmetric-signum step in place along the trailing axis.

    ``estimates`` is f32 with shape (..., n); ``x`` must broadcast against it
    (a scalar, or shape (..., 1) for batched rows). Estimates exactly equal
    to the observation do not move. The trailing axis is re-sorted afterwards
    so the estimate vector stays a valid monotone quantile function.
    """
    above = x > estimates
    below = x < estimates
    np.add(estimates, up, out=estimates, where=above)
    np.subtract(estimates, down, out=estimates, where=below)
    estimates.sort(axis=-1)


def cdf_grid(knots: np.ndarray, targets: np.ndarray, values) -> np.ndarray:
    """Inverse read of monotone (knots -> targets) curves at many values.

    ``knots`` holds sorted curves along the trailing axis, shape (..., n);
    ``values`` broadcasts against ``knots.shape[:-1]``. Each curve is read
    piecewise-linearly between distinct knots and clamped to the first/last
    target outside the knot range. Runs of equal knots resolve to the
    largest target in the run, i.e. the curve is right-continuous.
    Comparisons and arithmetic are in f64; each read performs the
    operations a scalar read would, in the same order.
    """
    knots = np.asarray(knots, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    n = knots.shape[-1]
    # knots <= value, counted, is searchsorted(knots, value, side="right")
    i = np.count_nonzero(knots <= values[..., None], axis=-1)
    lo = np.maximum(i - 1, 0)
    hi = np.minimum(i, n - 1)
    grid = np.broadcast_to(knots, i.shape + (n,))
    e0 = np.take_along_axis(grid, lo[..., None], axis=-1)[..., 0]
    e1 = np.take_along_axis(grid, hi[..., None], axis=-1)[..., 0]
    t0 = targets[lo]
    with np.errstate(divide="ignore", invalid="ignore"):
        # NaN or inf only where a clamp or a knot hit below replaces it
        inner = t0 + (targets[hi] - t0) * (values - e0) / (e1 - e0)
    on_knot_or_above = (values == e0) | (i == n)
    return np.where(i == 0, targets[0], np.where(on_knot_or_above, t0, inner))


def cdf_lookup(estimates: np.ndarray, targets: np.ndarray, value: float) -> float:
    """Inverse read of one monotone (estimates -> targets) curve; see cdf_grid."""
    return float(cdf_grid(estimates, targets, value))


class QuantileSketch:
    """Streaming estimates of n_quantiles quantiles of one scalar stream.

    Memory is constant: one f32 per tracked quantile. The first observation
    seeds every estimate, so no assumption about the stream's scale is
    needed. Updates are deterministic; identical input sequences produce
    bit-identical state.
    """

    __slots__ = ("n_quantiles", "step", "estimates", "count")

    def __init__(self, n_quantiles: int = 16, step: float = 0.01) -> None:
        if n_quantiles < 1:
            raise ValueError("n_quantiles must be positive")
        if not step > 0.0:
            raise ValueError("step must be positive")
        self.n_quantiles = n_quantiles
        self.step = float(step)
        self.estimates = np.zeros(n_quantiles, dtype=np.float32)
        self.count = 0

    @property
    def targets(self) -> np.ndarray:
        return quantile_targets(self.n_quantiles)

    @property
    def seeded(self) -> bool:
        return self.count > 0

    def update(self, x: float) -> None:
        """Absorb one observation."""
        if not math.isfinite(x):
            raise ValueError(f"observation must be finite, got {x!r}")
        if self.count == 0:
            self.estimates[:] = np.float32(x)
        else:
            up, down = _signum_steps(self.n_quantiles, self.step)
            signum_update(self.estimates, np.float32(x), up, down)
        self.count += 1

    def estimate(self, p: float) -> float:
        """Quantile estimate at probability p, 0 < p < 1.

        Piecewise-linear interpolation over the tracked targets, clamped to
        the outermost estimates beyond the first/last target.
        """
        if self.count == 0:
            raise ValueError("sketch has absorbed no observations")
        if not 0.0 < p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {p!r}")
        return float(np.interp(p, self.targets, self.estimates))

    def cdf_estimate(self, value: float) -> float:
        """Estimated P(x <= value), clamped to the tracked target range."""
        if self.count == 0:
            raise ValueError("sketch has absorbed no observations")
        return cdf_lookup(self.estimates, self.targets, value)

    def __repr__(self) -> str:
        return (
            f"QuantileSketch(n_quantiles={self.n_quantiles}, step={self.step}, "
            f"count={self.count})"
        )
