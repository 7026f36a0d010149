"""Bounded-memory incremental decision tree for numeric data streams.

The tree grows inside a fixed-capacity node arena. Leaves keep per-class
streaming quantile sketches instead of samples, so memory is constant in
stream length. A leaf is split only when the Hoeffding bound says the best
attribute's information gain beats the runner-up with confidence 1 - delta,
or when the bound has shrunk below the tie-break threshold tau. Training is
infer-then-train: every call returns the prediction the tree would have made
before absorbing the sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sketch import _signum_steps, cdf_lookup, quantile_targets, signum_update

__all__ = [
    "Hyperparams",
    "Sample",
    "LeafStats",
    "Node",
    "Tree",
    "hoeffding_bound",
    "split_gain",
    "entropy_gain",
]


@dataclass(frozen=True)
class Hyperparams:
    """Tunable constants of the learner.

    dims and classes describe the data; everything else controls growth.
    lam is the sketch step, n_min the number of samples a leaf absorbs
    between split attempts, n_pt the number of candidate thresholds tried
    per attribute, and max_nodes the hard arena capacity.
    """

    dims: int
    classes: int
    delta: float = 0.001
    lam: float = 0.01
    tau: float = 0.05
    n_min: int = 200
    n_pt: int = 10
    n_quantiles: int = 16
    max_nodes: int = 2047

    def __post_init__(self) -> None:
        if self.dims < 1:
            raise ValueError("dims must be positive")
        if self.classes < 2:
            raise ValueError("classes must be at least 2")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if self.tau < 0.0:
            raise ValueError("tau must be non-negative")
        if self.n_min < 1:
            raise ValueError("n_min must be positive")
        if self.n_quantiles < 1:
            raise ValueError("n_quantiles must be positive")
        if not 1 <= self.n_pt <= self.n_quantiles:
            raise ValueError("n_pt must lie in [1, n_quantiles]")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


@dataclass
class Sample:
    """One feature vector with its label and a train/infer flag.

    The label is only meaningful when train is set; inference-only samples
    may leave it at the default.
    """

    features: np.ndarray
    label: int = 0
    train: bool = True

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float32)


class LeafStats:
    """Per-leaf class counts plus one quantile sketch per (class, attribute).

    The sketch grid is stored as packed arrays, estimates with shape
    (classes, dims, n_quantiles), so one training sample updates all dims
    sketches of its label row in a single vectorized step. Semantics per
    cell are identical to a standalone QuantileSketch fed the same scalars.
    """

    __slots__ = (
        "class_counts",
        "sketch_estimates",
        "since_last_attempt",
        "frozen",
        "_targets",
        "_up",
        "_down",
    )

    def __init__(self, params: Hyperparams) -> None:
        k, d, q = params.classes, params.dims, params.n_quantiles
        self.class_counts = np.zeros(k, dtype=np.int64)
        self.sketch_estimates = np.zeros((k, d, q), dtype=np.float32)
        self.since_last_attempt = 0
        self.frozen = False
        self._targets = quantile_targets(q)
        self._up, self._down = _signum_steps(q, params.lam)

    @property
    def total(self) -> int:
        return int(self.class_counts.sum())

    def majority(self) -> int:
        """Most frequent class; ties and the empty leaf resolve to the lowest index."""
        return int(np.argmax(self.class_counts))

    def absorb(self, label: int, features: np.ndarray) -> None:
        """Fold one training sample into the counts and the label's sketch row."""
        row = self.sketch_estimates[label]
        if self.class_counts[label] == 0:
            row[:] = features[:, None]
        else:
            signum_update(row, features[:, None], self._up, self._down)
        self.class_counts[label] += 1
        self.since_last_attempt += 1

    def cdf(self, label: int, attr: int, value: float) -> float:
        """Estimated P(x_attr <= value | class=label). Requires a seen class."""
        if self.class_counts[label] == 0:
            raise ValueError(f"class {label} has no observations at this leaf")
        return cdf_lookup(self.sketch_estimates[label, attr], self._targets, value)


class Node:
    """One arena slot: a leaf (stats set) or an internal split (children set)."""

    __slots__ = ("split_attr", "split_value", "left", "right", "stats")

    def __init__(self, stats: LeafStats | None = None) -> None:
        self.split_attr = 0
        self.split_value = 0.0
        self.left = 0
        self.right = 0
        self.stats = stats

    @property
    def is_leaf(self) -> bool:
        return self.stats is not None


def hoeffding_bound(range_r: float, delta: float, n: int) -> float:
    """Deviation bound sqrt(R^2 * ln(1/delta) / (2N)) for N samples of range R."""
    if range_r < 0.0:
        raise ValueError("range must be non-negative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.sqrt(range_r * range_r * math.log(1.0 / delta) / (2.0 * n))


def _entropy_bits(masses: np.ndarray) -> float:
    """Shannon entropy in bits of an unnormalized non-negative mass vector."""
    total = masses.sum()
    if total <= 0.0:
        return 0.0
    p = masses[masses > 0.0] / total
    return float(-(p * np.log2(p)).sum())


def entropy_gain(class_counts: np.ndarray, left_mass: np.ndarray) -> float:
    """Information gain of a two-way partition given per-class left masses.

    class_counts is the parent's per-class total; left_mass assigns each
    class's share to the left side (the remainder goes right). Returns 0
    when either side carries no mass. Arithmetic is f64; the result is
    clamped at 0 so rounding noise cannot produce a negative gain.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    left = np.asarray(left_mass, dtype=np.float64)
    right = counts - left
    n_left = left.sum()
    n_right = right.sum()
    n = counts.sum()
    if n_left <= 0.0 or n_right <= 0.0:
        return 0.0
    gain = (
        _entropy_bits(counts)
        - (n_left / n) * _entropy_bits(left)
        - (n_right / n) * _entropy_bits(right)
    )
    return max(0.0, gain)


def split_gain(stats: LeafStats, attr: int, value: float) -> float:
    """Information gain in bits of splitting at value on one attribute.

    The left mass of class k is count_k times the class sketch's CDF read at
    the threshold; entropies are computed from those masses.
    """
    n = stats.total
    if n < 1:
        raise ValueError("leaf has absorbed no training samples")
    counts = stats.class_counts
    left = np.zeros(len(counts), dtype=np.float64)
    for k in np.flatnonzero(counts):
        left[k] = float(counts[k]) * stats.cdf(int(k), attr, value)
    return entropy_gain(counts, left)


def split_candidates(stats: LeafStats, attr: int, n_pt: int) -> np.ndarray:
    """Candidate thresholds for one attribute.

    Pools every seen class's sketch knots, weighted by class count, into one
    merged quantile curve and reads it at n_pt evenly spaced probabilities.
    Duplicates collapse, so fewer than n_pt values may come back.
    """
    seen = stats.class_counts > 0
    values = stats.sketch_estimates[seen, attr, :].astype(np.float64).ravel()
    n_q = stats.sketch_estimates.shape[-1]
    weights = np.repeat(stats.class_counts[seen].astype(np.float64), n_q)
    order = np.argsort(values, kind="stable")
    values = values[order]
    weights = weights[order]
    cum = np.cumsum(weights)
    positions = (cum - weights / 2.0) / cum[-1]
    probes = np.arange(1, n_pt + 1, dtype=np.float64) / (n_pt + 1)
    return np.unique(np.interp(probes, positions, values).astype(np.float32))


class Tree:
    """Fixed-capacity incremental decision tree.

    The arena never exceeds max_nodes entries; a fresh tree is a single
    empty leaf. One writer at a time; infer and sort_to_leaf never mutate.
    """

    def __init__(self, params: Hyperparams) -> None:
        self.params = params
        self.arena: list[Node] = [Node(LeafStats(params))]
        self.root = 0

    @property
    def node_count(self) -> int:
        return len(self.arena)

    def _check_features(self, features) -> np.ndarray:
        x = np.asarray(features, dtype=np.float32)
        if x.shape != (self.params.dims,):
            raise ValueError(
                f"expected {self.params.dims} features, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise ValueError("features must be finite")
        return x

    def _descend(self, x: np.ndarray) -> int:
        idx = self.root
        node = self.arena[idx]
        while node.stats is None:
            idx = node.left if x[node.split_attr] <= node.split_value else node.right
            node = self.arena[idx]
        return idx

    def sort_to_leaf(self, features) -> int:
        """Index of the leaf this feature vector routes to. No mutation."""
        return self._descend(self._check_features(features))

    def infer(self, features) -> int:
        """Majority class of the routed leaf. No mutation."""
        return self.arena[self.sort_to_leaf(features)].stats.majority()

    def train(self, sample: Sample) -> int:
        """Absorb one flagged training sample; returns the pre-update prediction.

        After the grace period (n_min samples since the last attempt) the
        routed leaf re-evaluates its split decision, unless frozen.
        """
        if not sample.train:
            raise ValueError("sample is not flagged for training")
        label = int(sample.label)
        if not 0 <= label < self.params.classes:
            raise ValueError(
                f"label {label} out of range for {self.params.classes} classes"
            )
        x = self._check_features(sample.features)
        leaf_idx = self._descend(x)
        stats = self.arena[leaf_idx].stats
        prediction = stats.majority()
        stats.absorb(label, x)
        if stats.since_last_attempt >= self.params.n_min and not stats.frozen:
            stats.since_last_attempt = 0
            self.attempt_split(leaf_idx)
        return prediction

    def attempt_split(self, leaf_idx: int) -> tuple[int, float] | None:
        """Split the leaf if the Hoeffding bound justifies it.

        Returns (attribute, threshold) when a split happened, else None.
        A leaf that cannot fit two children in the arena is frozen for good
        and keeps accumulating statistics for prediction only.
        """
        node = self.arena[leaf_idx]
        stats = node.stats
        if stats is None:
            raise ValueError(f"node {leaf_idx} is not a leaf")
        if stats.frozen:
            return None
        if self.node_count + 2 > self.params.max_nodes:
            stats.frozen = True
            return None
        if int(np.count_nonzero(stats.class_counts)) < 2:
            return None

        params = self.params
        best_gain = np.zeros(params.dims, dtype=np.float64)
        best_value = np.zeros(params.dims, dtype=np.float64)
        for attr in range(params.dims):
            for value in split_candidates(stats, attr, params.n_pt):
                gain = split_gain(stats, attr, float(value))
                if gain > best_gain[attr]:
                    best_gain[attr] = gain
                    best_value[attr] = float(value)

        first = int(np.argmax(best_gain))
        g_first = best_gain[first]
        if params.dims > 1:
            rest = np.delete(best_gain, first)
            g_second = float(rest.max())
        else:
            g_second = 0.0
        epsilon = hoeffding_bound(
            math.log2(params.classes), params.delta, stats.total
        )
        if g_first > 0.0 and (g_first - g_second > epsilon or epsilon < params.tau):
            value = best_value[first]
            self._split(leaf_idx, first, value)
            return first, value
        return None

    def _split(self, leaf_idx: int, attr: int, value: float) -> None:
        # threshold held at f32 so the live tree and its serialized form agree
        node = self.arena[leaf_idx]
        node.stats = None
        node.split_attr = attr
        node.split_value = float(np.float32(value))
        node.left = len(self.arena)
        node.right = len(self.arena) + 1
        self.arena.append(Node(LeafStats(self.params)))
        self.arena.append(Node(LeafStats(self.params)))

    def leaf_indices(self) -> list[int]:
        return [i for i, n in enumerate(self.arena) if n.stats is not None]
