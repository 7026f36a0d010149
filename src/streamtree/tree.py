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

from .sketch import _signum_steps, cdf_grid, cdf_lookup, quantile_targets, signum_update

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


# learn() works through its rows in blocks of at most this many, which bounds
# its temporaries (a (rows, classes) count table among them)
_BLOCK_ROWS = 8192


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


class _StatsPool:
    """Leaf statistics of a whole arena: four arrays with one slot per node.

    Slot i holds node i's class counts, its (classes, dims, n_quantiles)
    sketch grid, its samples since the last split attempt and its frozen
    flag. A leaf's LeafStats is a view of its slot; the slot of a node
    that split keeps the statistics it had then, and nothing reads them.
    """

    __slots__ = ("counts", "sketch", "since", "frozen", "targets", "up", "down")

    def __init__(self, params: Hyperparams, counts, sketch, since, frozen) -> None:
        self.counts = counts  # int64 (slots, classes)
        self.sketch = sketch  # f32 (slots, classes, dims, n_quantiles)
        self.since = since  # int64 (slots,)
        self.frozen = frozen  # bool (slots,)
        self.targets = quantile_targets(params.n_quantiles)
        self.up, self.down = _signum_steps(params.n_quantiles, params.lam)

    @classmethod
    def zeros(cls, params: Hyperparams, slots: int) -> "_StatsPool":
        k, d, q = params.classes, params.dims, params.n_quantiles
        return cls(
            params,
            np.zeros((slots, k), dtype=np.int64),
            np.zeros((slots, k, d, q), dtype=np.float32),
            np.zeros(slots, dtype=np.int64),
            np.zeros(slots, dtype=bool),
        )

    def reserve(self, slots: int, limit: int) -> None:
        """Make room for at least slots slots, growing by doubling up to limit.

        New slots are zero. The arrays are replaced, so views taken before
        a reserve() may be stale after it; LeafStats re-reads them.
        """
        have = len(self.since)
        if slots <= have:
            return
        size = max(slots, min(2 * have, limit))
        for name in ("counts", "sketch", "since", "frozen"):
            old = getattr(self, name)
            new = np.zeros((size,) + old.shape[1:], dtype=old.dtype)
            new[:have] = old
            setattr(self, name, new)

    def absorb(self, slots: np.ndarray, labels: np.ndarray, x: np.ndarray) -> None:
        """Fold row i of x, (rows, dims), into class labels[i] of slot slots[i], in order.

        Rows of different (slot, class) pairs touch disjoint sketch rows, so
        they are absorbed in waves: wave t takes the t-th row of every
        pair, gathers the pairs' sketch rows into one (pairs, dims,
        n_quantiles) block, applies one signum_update to it and scatters it
        back. Each sketch row thus sees its samples in order and takes the
        steps a loop over the rows would take. A pair's first sample ever
        seeds every knot at the sample's value, so its own step moves
        nothing.
        """
        classes = self.counts.shape[1]
        cells = slots * classes + labels
        sketch = self.sketch.reshape((-1,) + self.sketch.shape[2:])
        counts = self.counts.reshape(-1)
        if len(cells) > 1:
            rank = _ranks(cells)
            order = rank.argsort(kind="stable")
            cells, x = cells[order], x[order]
            bounds = np.bincount(rank).cumsum().tolist()
        else:
            bounds = [len(cells)]
        begin = 0
        for end in bounds:
            wave, step = cells[begin:end], x[begin:end, :, None]
            block = sketch[wave]
            if begin == 0 and not counts[wave].all():
                fresh = counts[wave] == 0
                block[fresh] = step[fresh]
            signum_update(block, step, self.up, self.down)
            sketch[wave] = block
            begin = end
        np.add.at(counts, cells, 1)
        np.add.at(self.since, slots, 1)


class LeafStats:
    """Per-leaf class counts plus one quantile sketch per (class, attribute).

    A view of one slot of a statistics pool: a tree's leaves view the
    tree's pool, and LeafStats(params) makes a leaf of its own. The
    sketch grid has shape (classes, dims, n_quantiles), so one training
    sample updates all dims sketches of its label row in a single
    vectorized step. Semantics per cell are identical to a standalone
    QuantileSketch fed the same scalars.

    class_counts and sketch_estimates return views into the pool's
    arrays, which a split may replace to make room for its children: an
    array taken from them is valid until the tree next splits. Read them
    again after training rather than keeping them.
    """

    __slots__ = ("_pool", "_slot")

    def __init__(self, params: Hyperparams, pool: _StatsPool | None = None, slot: int = 0) -> None:
        self._pool = _StatsPool.zeros(params, 1) if pool is None else pool
        self._slot = slot

    @property
    def class_counts(self) -> np.ndarray:
        return self._pool.counts[self._slot]

    @property
    def sketch_estimates(self) -> np.ndarray:
        return self._pool.sketch[self._slot]

    @property
    def since_last_attempt(self) -> int:
        return int(self._pool.since[self._slot])

    @since_last_attempt.setter
    def since_last_attempt(self, value: int) -> None:
        self._pool.since[self._slot] = value

    @property
    def frozen(self) -> bool:
        return bool(self._pool.frozen[self._slot])

    @frozen.setter
    def frozen(self, value: bool) -> None:
        self._pool.frozen[self._slot] = value

    @property
    def _targets(self) -> np.ndarray:
        return self._pool.targets

    @property
    def total(self) -> int:
        return int(self.class_counts.sum())

    def majority(self) -> int:
        """Most frequent class; ties and the empty leaf resolve to the lowest index."""
        return int(self._pool.counts[self._slot].argmax())

    def absorb(self, label: int, features: np.ndarray) -> None:
        """Fold one training sample into the counts and the label's sketch row."""
        self._pool.absorb(np.array([self._slot]), np.array([label]), np.asarray(features)[None])

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


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """For each entry of a sorted array, the index where its run of equal values starts."""
    start = np.ones(len(ordered), dtype=bool)
    start[1:] = ordered[1:] != ordered[:-1]
    return np.maximum.accumulate(np.where(start, np.arange(len(ordered)), 0))


def _ranks(keys: np.ndarray) -> np.ndarray:
    """How many earlier entries share each entry's key."""
    if len(keys) < 2:
        return np.zeros(len(keys), dtype=np.intp)
    order = keys.argsort(kind="stable")
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.arange(len(keys)) - _run_starts(keys[order])
    return rank


def hoeffding_bound(range_r: float, delta: float, n: int) -> float:
    """Deviation bound sqrt(R^2 * ln(1/delta) / (2N)) for N samples of range R."""
    if range_r < 0.0:
        raise ValueError("range must be non-negative")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if n < 1:
        raise ValueError("n must be at least 1")
    return math.sqrt(range_r * range_r * math.log(1.0 / delta) / (2.0 * n))


def _class_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the class (last) axis, each cell added up like a 1-D vector.

    numpy sums a C-contiguous last axis pairwise, the way it sums a 1-D
    class vector, but a strided one sequentially, which differs in the last
    bit from 8 classes on; broadcasting can hand over either layout.
    """
    return np.ascontiguousarray(a).sum(axis=-1)


def _entropy_bits(masses: np.ndarray, total) -> np.ndarray:
    """Shannon entropy in bits of positive masses along the last axis.

    total is each cell's mass summed over all classes, unseen ones included,
    in the same order as the caller's class vector. p is made C-contiguous
    so that log2 and the sum run the loops they run on a 1-D class vector.
    """
    p = np.ascontiguousarray(masses / np.asarray(total)[..., None])
    return -_class_sum(p * np.log2(p))


def _partition_gain(parent, n, left, n_left, right, n_right) -> np.ndarray:
    """Information gain in bits, clamped at 0, of two-way partitions.

    parent holds the positive class counts and n their total; left and right
    hold each cell's positive side masses along the last axis, and n_left
    and n_right their totals.
    """
    gain = (
        _entropy_bits(parent, n)
        - (n_left / n) * _entropy_bits(left, n_left)
        - (n_right / n) * _entropy_bits(right, n_right)
    )
    return np.where(gain > 0.0, gain, 0.0)


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
    if n_left <= 0.0 or n_right <= 0.0:
        return 0.0
    return float(_partition_gain(
        counts[counts > 0.0], counts.sum(),
        left[left > 0.0], n_left,
        right[right > 0.0], n_right,
    ))


def _seen_knots(stats: LeafStats) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the classes the leaf has seen, and their knots per attribute.

    The knots are f64 with shape (dims, seen classes, n_quantiles).
    """
    seen = stats.class_counts > 0
    if not seen.any():
        raise ValueError("leaf has absorbed no training samples")
    knots = stats.sketch_estimates[seen].transpose(1, 0, 2).astype(np.float64)
    return seen, knots


def _candidate_grid(knots: np.ndarray, counts: np.ndarray, n_pt: int):
    """Candidate thresholds of every attribute, one sorted row each.

    knots is (attrs, seen classes, n_quantiles) and counts the seen classes'
    counts. Each row pools its classes' knots, weighted by class count, into
    one merged quantile curve and reads it at n_pt evenly spaced
    probabilities, with np.interp's arithmetic. Returns the f32 candidates,
    shape (attrs, n_pt), and a mask that is False on repeats of the
    previous value in a row, so the masked row is np.unique of the reads.
    """
    attrs = knots.shape[0]
    values = knots.reshape(attrs, -1)
    weights = np.repeat(counts.astype(np.float64), knots.shape[-1])
    order = np.argsort(values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    weights = weights[order]
    cum = np.cumsum(weights, axis=1)
    positions = (cum - weights / 2.0) / cum[:, -1:]
    probes = np.arange(1, n_pt + 1, dtype=np.float64) / (n_pt + 1)

    # np.interp: j is the last position <= the probe; probes below the
    # first position read the first value, at or past the last the last
    last = positions.shape[1] - 1
    j = np.count_nonzero(positions[:, None, :] <= probes[:, None], axis=-1) - 1
    lo = np.clip(j, 0, max(last - 1, 0))
    hi = np.minimum(lo + 1, last)
    x0 = np.take_along_axis(positions, lo, axis=1)
    x1 = np.take_along_axis(positions, hi, axis=1)
    y0 = np.take_along_axis(values, lo, axis=1)
    y1 = np.take_along_axis(values, hi, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (y1 - y0) / (x1 - x0)
        reads = slope * (probes - x0) + y0
        # np.interp's fix-ups: on NaN retry from the right knot, then take
        # the flat segment's value
        reads = np.where(np.isnan(reads), slope * (probes - x1) + y1, reads)
    reads = np.where(np.isnan(reads) & (y0 == y1), y0, reads)
    reads = np.where(x0 == probes, y0, reads)
    reads = np.where(j < 0, values[:, :1], np.where(j >= last, values[:, -1:], reads))

    cands = np.sort(reads.astype(np.float32), axis=1)
    fresh = np.ones(cands.shape, dtype=bool)
    fresh[:, 1:] = cands[:, 1:] != cands[:, :-1]
    return cands, fresh


def _gain_grid(stats: LeafStats, seen, knots, values) -> np.ndarray:
    """Information gain of splitting at values[a, p] on knots' attribute a.

    seen and knots come from _seen_knots (knots may hold a subset of the
    attributes); values is f64 of shape (attrs, thresholds). The left mass
    of class k is count_k times the class sketch's CDF read at the
    threshold.
    """
    counts = stats.class_counts.astype(np.float64)
    seen_counts = counts[seen]
    n = counts.sum()
    cdf = cdf_grid(knots[:, None], stats._targets, values[:, :, None])
    left_seen = seen_counts * cdf
    right_seen = seen_counts - left_seen
    left = np.zeros(left_seen.shape[:-1] + counts.shape)
    left[..., seen] = left_seen
    right = counts - left
    # a seen class's CDF lies in [t_first, t_last], inside (0, 1), so both of
    # its side masses are positive: the seen classes are exactly the classes
    # with mass on either side, and no side is ever empty
    return _partition_gain(
        seen_counts, n, left_seen, _class_sum(left), right_seen, _class_sum(right)
    )


def _best_splits(stats: LeafStats, n_pt: int) -> tuple[np.ndarray, np.ndarray]:
    """Best gain and its threshold per attribute, over all candidates at once.

    Within an attribute the first of the candidates with the largest gain
    wins, and a gain must exceed 0 to count; an attribute with no positive
    gain reports gain 0 at threshold 0.
    """
    seen, knots = _seen_knots(stats)
    cands, fresh = _candidate_grid(knots, stats.class_counts[seen], n_pt)
    values = cands.astype(np.float64)
    gains = np.where(fresh, _gain_grid(stats, seen, knots, values), 0.0)
    rows = np.arange(len(gains))
    first = np.argmax(gains, axis=1)
    best_gain = gains[rows, first]
    return best_gain, np.where(best_gain > 0.0, values[rows, first], 0.0)


def split_gain(stats: LeafStats, attr: int, value: float) -> float:
    """Information gain in bits of splitting at value on one attribute.

    The left mass of class k is count_k times the class sketch's CDF read at
    the threshold; entropies are computed from those masses.
    """
    seen, knots = _seen_knots(stats)
    values = np.array([[value]], dtype=np.float64)
    return float(_gain_grid(stats, seen, knots[[attr]], values)[0, 0])


def split_candidates(stats: LeafStats, attr: int, n_pt: int) -> np.ndarray:
    """Candidate thresholds for one attribute.

    Pools every seen class's sketch knots, weighted by class count, into one
    merged quantile curve and reads it at n_pt evenly spaced probabilities.
    Duplicates collapse, so fewer than n_pt values may come back.
    """
    seen, knots = _seen_knots(stats)
    cands, fresh = _candidate_grid(knots[[attr]], stats.class_counts[seen], n_pt)
    return cands[0][fresh[0]]


class Tree:
    """Fixed-capacity incremental decision tree.

    The arena never exceeds max_nodes entries; a fresh tree is a single
    empty leaf. Leaf statistics live in one pool indexed by node, which
    arena[i].stats views; it holds a slot per node and grows on split.
    One writer at a time; infer and sort_to_leaf never mutate.
    """

    def __init__(self, params: Hyperparams) -> None:
        self.params = params
        self._pool = _StatsPool.zeros(params, 1)
        self.arena: list[Node] = [Node(LeafStats(params, self._pool, 0))]
        self.root = 0
        self._routes: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

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
        routed leaf re-evaluates its split decision, unless frozen. The
        one-row case of learn().
        """
        if not sample.train:
            raise ValueError("sample is not flagged for training")
        label = int(sample.label)
        if not 0 <= label < self.params.classes:
            raise ValueError(
                f"label {label} out of range for {self.params.classes} classes"
            )
        x = self._check_features(sample.features)
        return int(self._learn(x[None], np.array([label]), np.array([True]))[0])

    def learn(self, X, labels, train_mask) -> np.ndarray:
        """Infer-then-train over rows in order; returns each row's answer.

        Row i is answered by the tree that the train rows before it left:
        the pre-update prediction for a train row, a pure inference for the
        others, whose labels are ignored. The answers and the tree are
        exactly those of one train() or infer() call per row. Every row is
        checked before the tree changes; a ValueError names the first bad
        sample.
        """
        dims, classes = self.params.dims, self.params.classes
        X = np.asarray(X, dtype=np.float32)
        if X.ndim != 2 or X.shape[1] != dims:
            raise ValueError(f"expected rows of {dims} features, got shape {X.shape}")
        n = len(X)
        train = np.asarray(train_mask)
        if train.shape != (n,) or train.dtype != bool:
            raise ValueError(f"train_mask must be {n} bools, got {train.dtype} {train.shape}")
        labels = np.asarray(labels)
        if labels.shape != (n,) or labels.dtype.kind not in "iub":
            raise ValueError(f"labels must be {n} integers, got {labels.dtype} {labels.shape}")
        labels = np.where(train, labels, 0)
        finite = np.isfinite(X).all(axis=1)
        if not finite.all():
            raise ValueError(f"sample {int(np.argmin(finite))}: features must be finite")
        bad = (labels < 0) | (labels >= classes)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"sample {i}: label {labels[i]} out of range for {classes} classes")
        return self._learn(X, labels.astype(np.intp), train)

    def _learn(self, X: np.ndarray, labels: np.ndarray, train: np.ndarray) -> np.ndarray:
        """learn() on checked rows, a block of at most _BLOCK_ROWS at a time."""
        out = np.empty(len(X), dtype=np.intp)
        for start in range(0, len(X), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            out[rows] = self._learn_block(X[rows], labels[rows], train[rows])
        return out

    def _learn_block(self, X: np.ndarray, labels: np.ndarray, train: np.ndarray) -> np.ndarray:
        """Route, answer and absorb rows segment by segment.

        The tree's structure can only change at a split attempt, so the
        rows are cut after each row that brings a non-frozen leaf to n_min
        samples since its last attempt. Within a segment every row routes
        to the leaf it would reach alone, and rows at different leaves, or
        of different classes, touch disjoint statistics, so the segment's
        train rows are absorbed in waves: wave t takes the t-th row of
        every (leaf, class) pair. A split re-routes only the later rows at
        the split leaf, one level down, into the two fresh children.
        """
        pool = self._pool
        leaf = self._route(X)
        trigger = self._attempt_rows(leaf, train)
        out = np.empty(len(X), dtype=np.intp)
        start = 0
        while start < len(X):
            end = start + int(trigger[start:].argmax())
            attempt = bool(trigger[end])
            if not attempt:
                end = len(X) - 1
            seg = slice(start, end + 1)
            out[seg] = self._answers(leaf[seg], labels[seg], train[seg])
            rows = start + train[seg].nonzero()[0]
            if rows.size:
                pool.absorb(leaf[rows], labels[rows], X[rows])
            start = end + 1
            if attempt:
                idx = int(leaf[end])
                pool.since[idx] = 0
                self.attempt_split(idx)
                node = self.arena[idx]
                later = start + (leaf[start:] == idx).nonzero()[0]
                if node.stats is None:
                    left = X[later, node.split_attr] <= node.split_value
                    leaf[later] = np.where(left, node.left, node.right)
                    trigger[later] = self._attempt_rows(leaf[later], train[later])
                elif pool.frozen[idx]:
                    trigger[later] = False
        return out

    def _routing_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split attribute, threshold and (left, right) children of every node.

        A leaf's children are the leaf itself. Built from the arena on
        first use after a split or a load, so lockstep routing pays for it
        once per tree shape, not once per call.
        """
        if self._routes is None:
            arena = self.arena
            self._routes = (
                np.array([n.split_attr for n in arena], dtype=np.intp),
                np.array([n.split_value for n in arena], dtype=np.float32),
                np.array(
                    [(i, i) if n.stats is not None else (n.left, n.right) for i, n in enumerate(arena)],
                    dtype=np.intp,
                ),
            )
        return self._routes

    def _route(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of every row, by lockstep descent from the root.

        Each step moves every row one level down the routing table, where
        a leaf leads to itself, until no row moves; a step costs a few
        numpy calls whatever the row count. A lone row, the case of
        train(), descends on its own, which makes the same comparisons
        without those calls.
        """
        if len(X) == 1:
            return np.array([self._descend(X[0])], dtype=np.intp)
        attr, value, child = self._routing_table()
        rows = np.arange(len(X))
        leaf = np.full(len(X), self.root, dtype=np.intp)
        while True:
            step = child[leaf, (X[rows, attr[leaf]] > value[leaf]).view(np.int8)]
            if (step == leaf).all():
                return leaf
            leaf = step

    def _attempt_rows(self, leaf: np.ndarray, train: np.ndarray) -> np.ndarray:
        """Mask of the rows after which their leaf attempts a split.

        A non-frozen leaf attempts when its count of samples since the last
        attempt reaches n_min, and the attempt resets the count. So the
        c-th train row at a leaf whose count stands at s attempts when
        min(s, n_min - 1) + c is a multiple of n_min (a snapshot may hold a
        count past n_min, which attempts at the next row). The mask holds
        while the leaf stays a non-frozen leaf; the caller updates it when
        an attempt splits or freezes the leaf.
        """
        pool, n_min = self._pool, self.params.n_min
        rows = (train & ~pool.frozen[leaf]).nonzero()[0]
        at = leaf[rows]
        since = np.minimum(pool.since[at], n_min - 1) + _ranks(at) + 1
        mask = np.zeros(len(leaf), dtype=bool)
        mask[rows] = since % n_min == 0
        return mask

    def _answers(self, leaf: np.ndarray, labels: np.ndarray, train: np.ndarray) -> np.ndarray:
        """Each row's prediction, given the segment's earlier train rows.

        Row i sees its leaf's counts as the segment began plus the labels
        of the segment's earlier train rows at that leaf, a running count
        per leaf; argmax ties go to the lowest class, as in majority().
        """
        counts = self._pool.counts[leaf]
        rows = train[:-1].nonzero()[0]
        if rows.size:
            order = leaf.argsort(kind="stable")
            onehot = np.zeros(counts.shape, dtype=np.int64)
            onehot[rows, labels[rows]] = 1
            onehot = onehot[order]
            before = onehot.cumsum(axis=0) - onehot
            counts[order] += before - before[_run_starts(leaf[order])]
        return counts.argmax(axis=1)

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
        best_gain, best_value = _best_splits(stats, params.n_pt)
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
        self._routes = None
        self._pool.reserve(node.right + 1, self.params.max_nodes)
        self.arena.append(Node(LeafStats(self.params, self._pool, node.left)))
        self.arena.append(Node(LeafStats(self.params, self._pool, node.right)))

    def leaf_indices(self) -> list[int]:
        return [i for i, n in enumerate(self.arena) if n.stats is not None]
