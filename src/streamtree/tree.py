"""Bounded-memory incremental decision tree for numeric data streams.

The tree grows inside a fixed-capacity node arena. Leaves keep per-class
streaming quantile sketches instead of samples, so memory is constant in
stream length. A leaf is split only when the Hoeffding bound says the best
attribute's information gain beats the runner-up with confidence 1 - delta,
or when the bound has shrunk below the tie-break threshold tau. Training is
infer-then-train: every call returns the prediction the tree would have made
before absorbing the sample.

The tree's nodes live in one numpy record array in the snapshot's record
layout, so a snapshot is a header plus one copy of the used records (see
serialize.py). Tree.view() hands out read-only copies of them; nothing
outside the tree writes them.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sketch import (
    _signum_steps, cdf_grid, cdf_lookup, count_at_or_below, quantile_targets, signum_update,
)

__all__ = [
    "Hyperparams",
    "Sample",
    "LeafStats",
    "Tree",
    "TreeView",
    "hoeffding_bound",
    "split_gain",
]


# learn() works through its rows in blocks of at most this many, which bounds
# its temporaries (a (rows, classes) count table among them)
_BLOCK_ROWS = 8192
# absorb expands at most this many f32 values of rows over the quantile axis
# at once, and keeps step grids of at most as many (1 MiB each)
_WAVE_VALUES = 2**18


def _check_integer(name: str, value, least: int | None = None) -> None:
    """Raise a ValueError naming the parameter unless value is an integer of at least least.

    A Python or numpy integer; a bool or a float is refused, not cast.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be {'positive' if least == 1 else f'at least {least}'}")


def _check_real(name: str, value) -> None:
    """Raise a ValueError naming the parameter unless value is a real number; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class Hyperparams:
    """Tunable constants of the learner.

    dims and classes describe the data; everything else controls growth.
    lam is the sketch step, n_min the number of samples a leaf absorbs
    between split attempts, n_pt the number of candidate thresholds tried
    per attribute, and max_nodes the hard arena capacity. The integer
    fields take Python or numpy integers, kept as Python ints, not bools
    or floats, and delta, lam and tau real numbers, not bools; a value
    that is not one, or is out of range, tau NaN included, raises a
    ValueError that names the field.
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
        _check_integer("dims", self.dims, 1)
        _check_integer("classes", self.classes, 2)
        for name in ("delta", "lam", "tau"):
            _check_real(name, getattr(self, name))
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not self.lam > 0.0:
            raise ValueError("lam must be positive")
        if not self.tau >= 0.0:
            raise ValueError("tau must be non-negative")
        _check_integer("n_min", self.n_min, 1)
        _check_integer("n_quantiles", self.n_quantiles, 1)
        _check_integer("n_pt", self.n_pt)
        if not 1 <= self.n_pt <= self.n_quantiles:
            raise ValueError("n_pt must lie in [1, n_quantiles]")
        _check_integer("max_nodes", self.max_nodes, 1)
        _signum_steps(self.n_quantiles, self.lam)
        # as Python ints, whose arithmetic in the kernel cannot wrap at a numpy width
        for name in ("dims", "classes", "n_min", "n_pt", "n_quantiles", "max_nodes"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass(slots=True)
class Sample:
    """One feature vector with its label and a train/infer flag.

    The label is only meaningful when train is set; inference-only samples
    may leave it at the default. A slotted record: an f32 ndarray is kept
    as given, anything else is cast to one; features that are not numbers
    raise a ValueError.
    """

    features: np.ndarray
    label: int = 0
    train: bool = True

    def __init__(self, features, label: int = 0, train: bool = True) -> None:
        if type(features) is not np.ndarray or features.dtype is not _F32:
            features = _as_f32(features)
        self.features = features
        self.label = label
        self.train = train


_KIND_LEAF, _KIND_INTERNAL = 0, 1
# a leaf's (kind, split_attr, split_value, left, right)
_LEAF = (_KIND_LEAF, 0, 0.0, 0, 0)


@lru_cache(maxsize=16)
def _record_dtype(dims: int, classes: int, n_quantiles: int, live: bool = False) -> np.dtype:
    """The node record: packed, little-endian, one field per wire field.

    live types the same bytes for the live tree: class counts as int64 (a
    snapshot's are below 2^63) and the frozen byte as bool.
    """
    return np.dtype([
        ("kind", "u1"), ("frozen", "?" if live else "u1"),
        ("split_attr", "<u4"), ("split_value", "<f4"), ("left", "<u4"), ("right", "<u4"),
        ("class_counts", "<i8" if live else "<u8", (classes,)),
        ("sketch_estimates", "<f4", (classes, dims, n_quantiles)),
        ("sketch_counts", "<u8", (classes, dims)),
        ("since_last_attempt", "<u4"),
    ])


_F32 = np.dtype(np.float32)


def _as_f32(values) -> np.ndarray:
    """values as f32, or a ValueError if they are not numbers.

    One past the f32 range casts to inf, which callers reject, unwarned.
    """
    if type(values) is np.ndarray and values.dtype is _F32:
        return values
    try:
        with np.errstate(over="ignore"):
            return np.asarray(values, dtype=np.float32)
    except (TypeError, ValueError):
        raise ValueError("features are not numbers") from None


def _as_row(features, dims: int | None, like: str = "") -> np.ndarray:
    """features as one f32 row of dims numbers, of any length with dims None, or a ValueError.

    The message names no sample; like follows the expected count in it.
    """
    x = _as_f32(features)
    if x.ndim != 1 or dims is not None and len(x) != dims:
        expected = "one row of features" if dims is None else f"{dims} features{like}"
        raise ValueError(f"expected {expected}, got shape {x.shape}")
    return x


def _name_odd_row(rows, dims: int | None = None) -> None:
    """Raise a ValueError naming the first of rows that is not one row of dims numbers.

    Without dims, row 0 must be one row, and every other row as long.
    """
    like = ", as sample 0" if dims is None else ""
    for i, row in enumerate(rows):
        try:
            dims = len(_as_row(row, dims, like))
        except ValueError as fault:
            raise ValueError(f"sample {i}: {fault}") from None


def _check_sample(sample: Sample, classes: int) -> None:
    """Raise a ValueError if a sample's flag or label makes it unusable for learning.

    The train flag must be a bool and a flagged sample's label an integer
    class index; nothing is cast, so a flag of 1 and a label of 2.9 or "1"
    are refused. The features are checked elsewhere.
    """
    if not isinstance(sample.train, (bool, np.bool_)):
        raise ValueError(f"train flag {sample.train!r} is not a bool")
    label = sample.label
    integer = isinstance(label, (int, np.integer))
    if sample.train and not (integer and 0 <= label < classes):
        raise ValueError(f"label {int(label) if integer else repr(label)} is not a class index below {classes}")


class _Records:
    """The nodes of an arena: one record array whose bytes are the wire records.

    Split fields stay zero on leaves and statistics on internal nodes, so
    the used records copy out as a snapshot's but for two fields
    serialize() derives: the sketch counts, from the class counts, and the
    samples since the last split attempt, from since, a live int64 count
    that may pass the wire's u32. counts, sketch and frozen view the class
    counts, the sketch grids and the frozen flags. The arrays hold a slot
    per node and grow by doubling.

    The absorb methods are the only code that advances since. A
    non-frozen leaf attempts a split whenever its count reaches n_min,
    and the attempt resets it, so c train rows at a leaf whose count
    stands at s leave (min(s, n_min - 1) + c) mod n_min, the rows after
    its last attempt (a snapshot may hold a count past n_min, which
    attempts at the next row). A count that reads 0 after absorbing
    means "attempt now". A frozen leaf never attempts again, and its
    count goes on to s + c.

    answer, which one-row infer() reads, is a list with each slot's
    majority class, or -1 where it is not known. Writers only invalidate:
    a slot whose counts may have changed goes back to -1, and majority()
    computes it again from the counts on the next read.

    grids holds the steps up and down expanded to (rows, dims,
    n_quantiles), the full-shape operands of absorb's waves (see _waves),
    or None before the first such wave.
    """

    __slots__ = ("array", "since", "counts", "sketch", "frozen", "answer", "targets", "up", "down",
                 "grids", "n_min")

    def __init__(self, params: Hyperparams, array: np.ndarray, since: np.ndarray) -> None:
        self._bind(array, since)
        self.answer = [-1] * len(array)
        self.n_min = params.n_min
        self.targets = quantile_targets(params.n_quantiles)
        self.up, self.down = _signum_steps(params.n_quantiles, params.lam)
        # built by the first waves that need them, so a load pays nothing
        self.grids = None

    def _bind(self, array: np.ndarray, since: np.ndarray) -> None:
        self.array, self.since = array, since
        self.counts = array["class_counts"]  # int64 (slots, classes)
        self.sketch = array["sketch_estimates"]  # f32 (slots, classes, dims, n_quantiles)
        self.frozen = array["frozen"]

    @classmethod
    def leaf(cls, params: Hyperparams) -> "_Records":
        """The records of a single empty leaf."""
        dtype = _record_dtype(params.dims, params.classes, params.n_quantiles, live=True)
        return cls(params, np.zeros(1, dtype), np.zeros(1, dtype=np.int64))

    def reserve(self, slots: int, limit: int) -> None:
        """Make room for at least slots slots, growing by doubling up to limit.

        New slots are zero, their answers unknown. The arrays are replaced,
        and counts, sketch and frozen bound to the new ones."""
        have = len(self.array)
        if slots <= have:
            return
        more = max(slots, min(2 * have, limit)) - have
        self._bind(*(np.concatenate((a, np.zeros((more,) + a.shape[1:], a.dtype)))
                     for a in (self.array, self.since)))
        self.answer += [-1] * more

    def majority(self, slot: int) -> int:
        """The slot's most frequent class, ties to the lowest; computed once per change."""
        answer = self.answer[slot]
        if answer < 0:
            # a list's max beats an argmax of the packed record's unaligned row
            counts = self.counts[slot].tolist()
            answer = self.answer[slot] = counts.index(max(counts))
        return answer

    def absorb_cell(self, slot: int, label: int, x: np.ndarray) -> None:
        """Fold every row of x, (rows, dims), into class label of slot, in order."""
        self.answer[slot] = -1
        row, values = self.sketch[slot, label], x[..., None]
        fresh = 0 if self.counts[slot, label] else 1
        if fresh:
            row[:] = values[0]
        for i in range(fresh, len(x)):
            signum_update(row, values[i], self.up, self.down)
        self.counts[slot, label] += len(x)
        since = int(self.since[slot])
        self.since[slot] = (since + len(x) if self.frozen[slot]
                            else (min(since, self.n_min - 1) + len(x)) % self.n_min)

    def absorb(self, slots: np.ndarray, labels: np.ndarray, x: np.ndarray) -> None:
        """Fold row i of x, (rows, dims), into class labels[i] of slot slots[i], in order.

        Rows of different (slot, class) cells touch disjoint sketch rows, so
        they are absorbed in waves, one signum_update each, and wave t takes
        the t-th row of every cell that has one, so each sketch row sees its
        samples in order. The touched cells' sketch rows are gathered once
        into an aligned block, largest cell first: wave t's cells are then
        the first m_t of the block, and each wave updates the prefix view
        block[:m_t] with a contiguous slice of the rows, before one scatter
        back (see _waves). Rows that all hit one cell update its sketch row
        in place. A cell's first sample ever seeds every knot at its value,
        so its own step moves nothing. Every touched slot's answer becomes
        unknown, and its since advances by its row count, as absorb_cell's
        does.
        """
        classes = self.counts.shape[1]
        keys = slots * classes + labels
        if len(keys) == 1 or not np.count_nonzero(keys != keys[0]):
            self.absorb_cell(int(slots[0]), int(labels[0]), x)
            return
        cells, sizes, rows, ends = _prefix_waves(keys)
        x = x[rows]
        cell = np.divmod(cells, classes)
        for slot in cell[0].tolist():
            self.answer[slot] = -1
        block = self.sketch[cell]
        seen = self.counts[cell]
        if np.count_nonzero(seen) < len(seen):
            # the first wave holds every cell once, in block order
            fresh = seen == 0
            block[fresh] = x[: len(cells), :, None][fresh]
        self._waves(block, x, ends)
        self.sketch[cell] = block
        self.counts[cell] = seen + sizes
        rows = np.bincount(slots)
        touched = rows.nonzero()[0]
        rows, since = rows[touched], self.since[touched]
        self.since[touched] = np.where(self.frozen[touched], since + rows,
                                       (np.minimum(since, self.n_min - 1) + rows) % self.n_min)

    def _waves(self, block: np.ndarray, x: np.ndarray, ends: list[int]) -> None:
        """Run the waves of rows x, (rows, dims), ending at ends, over prefix views of block.

        Each wave's operands have its block view's full shape, (m_t, dims,
        n_quantiles), since broadcast ones make signum_update slower (see
        there): the rows are expanded over the quantile axis a slice of
        waves at a time, and the steps are prefix views of step grids kept
        beside the records. Both are bounded by _WAVE_VALUES; a wave wider
        than that, only ever a call's first waves since m_t never grows,
        broadcasts its operands instead.
        """
        dims, nq = block.shape[1:]
        span = max(1, _WAVE_VALUES // (dims * nq))
        have = 0 if self.grids is None else len(self.grids[0])
        if have < min(len(block), span):
            rows = min(max(len(block), 2 * have), span)
            self.grids = tuple(np.broadcast_to(step, (rows, dims, nq)).copy()
                               for step in (self.up, self.down))
        up, down = self.grids
        begin = lo = hi = 0
        for end in ends:
            m = end - begin
            if m > span:
                signum_update(block[:m], x[begin:end, :, None], self.up, self.down)
            else:
                if end > hi:
                    lo, hi = begin, min(begin + span, len(x))
                    grid = x[lo:hi].repeat(nq, axis=1).reshape(hi - lo, dims, nq)
                signum_update(block[:m], grid[begin - lo : end - lo], up[:m], down[:m])
            begin = end


class LeafStats:
    """Class counts plus one quantile sketch per (class, attribute) of a leaf of its own.

    A one-record tree leaf: absorb() folds a sample in as a tree's leaf
    does (see _Records), and since_last_attempt wraps to 0 every n_min
    samples. The sketch grid has shape (classes, dims, n_quantiles); each
    cell behaves as a standalone QuantileSketch fed the same scalars.
    class_counts and sketch_estimates are the leaf's own arrays, which a
    caller may write. A tree's leaves are read through Tree.view().
    """

    __slots__ = ("_pool",)

    def __init__(self, params: Hyperparams) -> None:
        self._pool = _Records.leaf(params)

    @property
    def class_counts(self) -> np.ndarray:
        return self._pool.counts[0]

    @property
    def sketch_estimates(self) -> np.ndarray:
        return self._pool.sketch[0]

    @property
    def since_last_attempt(self) -> int:
        return int(self._pool.since[0])

    @property
    def _targets(self) -> np.ndarray:
        return self._pool.targets

    @property
    def total(self) -> int:
        return int(self.class_counts.sum())

    def majority(self) -> int:
        """Most frequent class; ties and the empty leaf resolve to the lowest index."""
        return int(self.class_counts.argmax())

    def absorb(self, label: int, features: np.ndarray) -> None:
        """Fold one training sample into the counts and the label's sketch row."""
        self._pool.absorb_cell(0, label, np.asarray(features)[None])

    def cdf(self, label: int, attr: int, value: float) -> float:
        """Estimated P(x_attr <= value | class=label). Requires a seen class.

        A label or an attribute that is not an index of the sketch grid,
        or a NaN value, raises a ValueError that names it.
        """
        classes, dims = self.sketch_estimates.shape[:2]
        label, attr = _index(label, classes, "class"), _index(attr, dims, "attribute")
        if self.class_counts[label] == 0:
            raise ValueError(f"class {label} has no observations at this leaf")
        return cdf_lookup(self.sketch_estimates[label, attr], self._targets, value)


class TreeView(NamedTuple):
    """Read-only copies of a tree's used node records, indexed by node.

    kind is 1 on an internal node and 0 on a leaf. An internal node splits
    on attribute split_attr: rows whose value is at most split_value go to
    left, the others to right. A leaf holds class_counts, its sketch grid
    sketch_estimates of shape (classes, dims, n_quantiles), frozen, and
    since_last_attempt, the live count of samples since its last split
    attempt, which a snapshot saturates at 2^32 - 1. Fields a node does not
    use are zero.
    """

    kind: np.ndarray
    split_attr: np.ndarray
    split_value: np.ndarray
    left: np.ndarray
    right: np.ndarray
    class_counts: np.ndarray
    sketch_estimates: np.ndarray
    frozen: np.ndarray
    since_last_attempt: np.ndarray


def _grouped(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stable order that groups equal keys, the keys in it, and where each group starts."""
    if len(keys) < 2:
        return np.arange(len(keys)), keys, np.ones(len(keys), dtype=bool)
    order = keys.argsort(kind="stable")
    grouped = keys[order]
    head = np.ones(len(keys), dtype=bool)
    head[1:] = grouped[1:] != grouped[:-1]
    return order, grouped, head


def _prefix_waves(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Entries in waves over their distinct keys, the most frequent key first.

    Wave t holds the t-th entry of every key that has one, so it holds the
    first m_t keys of that order, and m_t never grows. Returns the keys in
    that order, how many entries each has, the entries' indices in waves,
    and where each wave ends.
    """
    n = len(keys)
    order = keys.argsort(kind="stable")
    grouped = keys[order]
    # bounds: where each run of equal keys starts, and n
    head = np.empty(n + 1, dtype=bool)
    head[0] = head[n] = True
    np.not_equal(grouped[1:], grouped[:-1], out=head[1:n])
    bounds = head.nonzero()[0]
    size = bounds[1:] - bounds[:-1]
    each = size.repeat(size)
    rank = np.arange(n) - bounds[:-1].repeat(size)
    # by rank, then by size down: rank * n - size orders both, since size <= n
    waves = (rank * n - each).argsort(kind="stable")
    firsts = waves[: len(size)]
    return grouped[firsts], each[firsts], order[waves], np.bincount(rank).cumsum().tolist()


def _index(i, size: int, what: str) -> int:
    """i as an int in [0, size), or a ValueError that names it; a bool is no index."""
    if isinstance(i, (bool, np.bool_)) or not isinstance(i, (int, np.integer)) or not 0 <= i < size:
        raise ValueError(f"{what} {i!r} is not an index in [0, {size})")
    return int(i)


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


def _seen_knots(counts: np.ndarray, sketch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the classes a leaf has seen, and their knots per attribute.

    counts and sketch are the leaf's class counts and sketch grid. The
    knots are f32, C-contiguous, with shape (dims, seen classes,
    n_quantiles).
    """
    seen = counts > 0
    if not seen.any():
        raise ValueError("leaf has absorbed no training samples")
    return seen, np.ascontiguousarray(sketch[seen].transpose(1, 0, 2))


def _stable_order(values: np.ndarray) -> np.ndarray:
    """np.argsort(values, axis=1, kind="stable") of f32 rows free of NaN, by one integer sort.

    Each value's bits give an int32 key in the values' order: +0.0 added
    first makes -0.0 into +0.0, which it equals; a sign-magnitude value's
    bits then order as two's complement once a negative value's magnitude
    bits are flipped. The key in the high half of an int64 and the
    value's index in its row in the low half make every entry distinct,
    so a sort of these composites, stable or not, orders by value and
    then by index, as the stable argsort does.
    """
    bits = (values + np.float32(0.0)).view(np.int32)
    keys = (bits ^ ((bits >> 31) & 0x7FFFFFFF)).astype(np.int64) << 32
    keys |= np.arange(values.shape[1])
    keys.sort(axis=1)
    return keys & 0xFFFFFFFF


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
    order = _stable_order(values)
    # gathers from the flat rows, where row a starts at start[a]
    start = np.arange(0, values.size, values.shape[1])[:, None]
    values = values.reshape(-1)[start + order].astype(np.float64)
    weights = weights[order]
    cum = np.cumsum(weights, axis=1)
    # each row ascends, as count_at_or_below needs: while the counts sum
    # below 2^53, cum holds exact integers and cum - weights / 2 rises
    positions = (cum - weights / 2.0) / cum[:, -1:]
    probes = np.arange(1, n_pt + 1, dtype=np.float64) / (n_pt + 1)

    # np.interp: j is the last position <= the probe; probes below the
    # first position read the first value, at or past the last the last
    last = positions.shape[1] - 1
    j = count_at_or_below(positions[:, None, :], probes) - 1
    lo = np.clip(j, 0, max(last - 1, 0))
    hi = np.minimum(lo + 1, last)
    lo, hi = start + lo, start + hi
    x0, x1 = positions.reshape(-1)[lo], positions.reshape(-1)[hi]
    y0, y1 = values.reshape(-1)[lo], values.reshape(-1)[hi]
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


def _gain_grid(counts: np.ndarray, targets: np.ndarray, seen, knots, values) -> np.ndarray:
    """Information gain of splitting at values[a, p] on knots' attribute a.

    counts are the leaf's class counts and targets its sketches' quantile
    targets; seen and knots come from _seen_knots (knots may hold a subset
    of the attributes); values is f64 of shape (attrs, thresholds). The
    left mass of class k is count_k times the class sketch's CDF read at
    the threshold.
    """
    counts = counts.astype(np.float64)
    seen_counts = counts[seen]
    n = counts.sum()
    cdf = cdf_grid(knots[:, None], targets, values[:, :, None])
    left_seen = seen_counts * cdf
    right_seen = seen_counts - left_seen
    if len(seen_counts) == len(counts):
        # every class seen: the all-class masses are the seen ones, bit for bit
        left, right = left_seen, right_seen
    else:
        left = np.zeros(left_seen.shape[:-1] + counts.shape)
        left[..., seen] = left_seen
        right = counts - left
    # a seen class's CDF lies in [t_first, t_last], inside (0, 1), so both of
    # its side masses are positive: the seen classes are exactly the classes
    # with mass on either side, and no side is ever empty
    return _partition_gain(
        seen_counts, n, left_seen, _class_sum(left), right_seen, _class_sum(right)
    )


def _best_splits(counts: np.ndarray, sketch: np.ndarray, targets: np.ndarray,
                 n_pt: int) -> tuple[np.ndarray, np.ndarray]:
    """Best gain and its threshold per attribute, over all candidates at once.

    counts, sketch and targets are a leaf's class counts, sketch grid and
    quantile targets. Within an attribute the first of the candidates with
    the largest gain wins, and a gain must exceed 0 to count; an attribute
    with no positive gain reports gain 0 at threshold 0.
    """
    seen, knots = _seen_knots(counts, sketch)
    cands, fresh = _candidate_grid(knots, counts[seen], n_pt)
    values = cands.astype(np.float64)
    gains = np.where(fresh, _gain_grid(counts, targets, seen, knots, values), 0.0)
    rows = np.arange(len(gains))
    first = np.argmax(gains, axis=1)
    best_gain = gains[rows, first]
    return best_gain, np.where(best_gain > 0.0, values[rows, first], 0.0)


def split_gain(stats: LeafStats, attr: int, value: float) -> float:
    """Information gain in bits of splitting at value on one attribute.

    The left mass of class k is count_k times the class sketch's CDF read at
    the threshold; entropies are computed from those masses. An attribute
    that is not an index below dims, or a NaN value, raises a ValueError
    that names it.
    """
    attr = _index(attr, stats.sketch_estimates.shape[1], "attribute")
    if math.isnan(value):
        raise ValueError(f"cannot split at value {float(value)}")
    counts = stats.class_counts
    seen, knots = _seen_knots(counts, stats.sketch_estimates)
    values = np.array([[value]], dtype=np.float64)
    return float(_gain_grid(counts, stats._targets, seen, knots[[attr]], values)[0, 0])


def split_candidates(stats: LeafStats, attr: int, n_pt: int) -> np.ndarray:
    """Candidate thresholds for one attribute.

    Pools every seen class's sketch knots, weighted by class count, into one
    merged quantile curve and reads it at n_pt evenly spaced probabilities.
    Duplicates collapse, so fewer than n_pt values may come back. An
    attribute that is not an index below dims raises a ValueError.
    """
    attr = _index(attr, stats.sketch_estimates.shape[1], "attribute")
    counts = stats.class_counts
    seen, knots = _seen_knots(counts, stats.sketch_estimates)
    cands, fresh = _candidate_grid(knots[[attr]], counts[seen], n_pt)
    return cands[0][fresh[0]]


class Tree:
    """Fixed-capacity incremental decision tree; a fresh tree is one empty leaf.

    Its at most max_nodes nodes live in one record array in the snapshot
    layout (_Records), of which view() makes read-only copies. One-row
    calls read two Python lists beside it: _nodes, a mirror of the kind
    and split fields that _leaf() descends, and the records' answer list.
    Calls of many rows descend _table, aligned arrays of the split fields
    and the tree's depth (see _routing_table): the first such call after
    a split or a load builds it from _nodes, and _split drops it, since
    every split changes it. Children follow their parent, so the root is
    node 0. One writer at a time.
    """

    root = 0
    # a fresh tree, and one deserialize() builds, starts without a table
    _table: tuple[np.ndarray, np.ndarray, np.ndarray, int] | None = None

    def __init__(self, params: Hyperparams) -> None:
        self.params = params
        self._pool = _Records.leaf(params)
        self._nodes: list[tuple[int, int, float, int, int]] = [_LEAF]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def view(self) -> TreeView:
        """Read-only copies of the used node records; see TreeView.

        A view stays as it was when the tree changes, and taking one
        changes nothing in the tree.
        """
        n, pool = self.node_count, self._pool
        # every field but the live count is the record field of its name
        fields = [pool.array[name][:n].copy() for name in TreeView._fields[:-1]]
        fields.append(pool.since[:n].copy())
        for field in fields:
            field.flags.writeable = False
        return TreeView(*fields)

    def _leaf(self, features) -> int:
        """Leaf index of one row, checked for shape and finiteness first.

        The row is cast to f32 and turned into Python floats once. The f64
        sum of f32 values cannot overflow, and a NaN or an infinity carries
        through to it, so the sum is finite exactly when every value is.
        Thresholds are f32 values too, so comparing the floats gives the f32
        comparison without indexing numpy scalars.
        """
        dims = self.params.dims
        if type(features) is not np.ndarray or features.dtype is not _F32 or features.shape != (dims,):
            features = _as_row(features, dims)
        values = features.tolist()
        if not math.isfinite(sum(values)):
            raise ValueError("features must be finite")
        nodes = self._nodes
        idx = 0
        kind, attr, value, left, right = nodes[0]
        while kind:
            idx = left if values[attr] <= value else right
            kind, attr, value, left, right = nodes[idx]
        return idx

    def _checked(self, X, labels=None, train=None):
        """X as f32 rows checked for predict(), or with labels and a train mask, the rows learn() takes.

        X must be (rows, dims) and finite. Labels and the train mask, when
        given, must be as many integers and bools, or with no rows any
        empty arrays, and every train row's label a class index; the
        labels of the other rows are never read.
        The first fault found, in that order, raises a ValueError that
        names the sample when one row is at fault, a row that is not dims
        numbers among them; nothing changes before.
        """
        dims = self.params.dims
        try:
            X = _as_f32(X)
        except ValueError:
            # ragged or not numbers: name the first row that is not dims numbers
            if np.iterable(X):
                _name_odd_row(X, dims)
            raise
        if X.ndim != 2 or X.shape[1] != dims:
            raise ValueError(f"expected rows of {dims} features, got shape {X.shape}")
        if train is not None:
            n = len(X)
            train, labels = np.asarray(train), np.asarray(labels)
            if not n and train.shape == labels.shape == (0,):
                # numpy makes an empty list float64; an empty chunk has nothing to check
                return X, labels.astype(np.intp), train.astype(bool)
            if train.shape != (n,) or train.dtype != bool:
                raise ValueError(f"train_mask must be {n} bools, got {train.dtype} {train.shape}")
            if labels.shape != (n,) or labels.dtype.kind not in "iub":
                raise ValueError(f"labels must be {n} integers, got {labels.dtype} {labels.shape}")
        if not np.isfinite(X).all():
            finite = np.isfinite(X).all(axis=1)
            raise ValueError(f"sample {int(np.argmin(finite))}: features must be finite")
        if train is None:
            return X
        classes = self.params.classes
        bad = train & ((labels < 0) | (labels >= classes))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"sample {i}: label {labels[i]} is not a class index below {classes}")
        return X, labels.astype(np.intp, copy=False), train

    def _sample_rows(self, samples: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The samples as the rows learn() takes, checked: features, labels and train flags.

        A ValueError names a bad sample: features that are not dims
        numbers or not finite, a train flag that is not a bool, or a train
        label that is not an integer class index. The common case takes
        one array build before _checked(); any other input is checked
        sample by sample first, and only then for finiteness.
        """
        dims, classes = self.params.dims, self.params.classes
        flags = [s.train for s in samples]
        try:
            X = _as_f32(np.array([s.features for s in samples]))
            # an infer row's label is never read; one that is not an integer
            # takes the sample-by-sample path
            labels = np.array([s.label for s in samples])
            ok = X.shape == (len(samples), dims) and labels.dtype.kind in "iub"
        except (TypeError, ValueError):
            ok = False
        # per flag type, not per flag: numpy 2 allows subclasses of np.bool_
        if not (ok and all(issubclass(t, (bool, np.bool_)) for t in set(map(type, flags)))):
            X = np.empty((len(samples), dims), dtype=np.float32)
            labels = np.zeros(len(samples), dtype=np.int64)
            for i, s in enumerate(samples):
                try:
                    X[i] = _as_row(s.features, dims)
                    _check_sample(s, classes)
                except ValueError as fault:
                    raise ValueError(f"sample {i}: {fault}") from None
                if s.train:
                    labels[i] = s.label
        return self._checked(X, labels, np.array(flags, dtype=bool))

    def sort_to_leaf(self, features) -> int:
        """Index of the leaf this feature vector routes to. No mutation."""
        return self._leaf(features)

    def infer(self, features) -> int:
        """Majority class of the routed leaf, ties to the lowest class.

        Reads the leaf's cached answer; only the first call after the
        leaf's counts change computes it. The tree's model is unchanged."""
        pool = self._pool
        idx = self._leaf(features)
        answer = pool.answer[idx]
        return answer if answer >= 0 else pool.majority(idx)

    def predict(self, X) -> np.ndarray:
        """infer() of every row of X, (rows, dims), routed in lockstep. No mutation."""
        return self._pool.counts[self._route(self._checked(X))].argmax(axis=1)

    def train(self, sample: Sample) -> int:
        """Absorb one flagged training sample; returns the pre-update prediction.

        After the grace period (n_min samples since the last attempt) the
        routed leaf re-evaluates its split decision, unless frozen. The
        one-row case of learn(), taken directly: the leaf the row check
        routes to answers, absorbs the row and attempts when absorbing
        wraps its count to 0 (see _Records), which is where learn()
        attempts.
        """
        _check_sample(sample, self.params.classes)
        if not sample.train:
            raise ValueError("sample is not flagged for training")
        x = _as_f32(sample.features)
        pool, idx = self._pool, self._leaf(x)
        answer = pool.majority(idx)
        pool.absorb_cell(idx, int(sample.label), x[None])
        # a frozen leaf's count only grows, so it never reads 0 here
        if not pool.since[idx]:
            self.attempt_split(idx)
        return answer

    def learn(self, X, labels, train_mask) -> np.ndarray:
        """Infer-then-train over rows in order; returns each row's answer.

        Row i is answered by the tree that the train rows before it left:
        the pre-update prediction for a train row, a pure inference for the
        others, whose labels are ignored. The answers and the tree are
        exactly those of one train() or infer() call per row. Every row is
        checked before the tree changes; a ValueError names the first bad
        sample.
        """
        return self._learn(*self._checked(X, labels, train_mask))

    def _learn(self, X: np.ndarray, labels: np.ndarray, train: np.ndarray) -> np.ndarray:
        """learn() on rows _checked() made, a block of at most _BLOCK_ROWS at a time."""
        out = np.empty(len(X), dtype=np.intp)
        for start in range(0, len(X), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            out[rows] = self._learn_block(X[rows], labels[rows], train[rows])
        return out

    def _learn_block(self, X: np.ndarray, labels: np.ndarray, train: np.ndarray) -> np.ndarray:
        """Route, answer and absorb rows segment by segment.

        The tree's structure can only change at a split attempt that can
        act, so the rows are cut after each such attempt row (see
        _attempt_rows). Within a segment every row routes to the leaf it
        would reach alone, and rows at different leaves, or of different
        classes, touch disjoint statistics, so the segment's train rows are
        absorbed in waves: wave t takes the t-th row of every (leaf, class)
        pair. Absorbing moves each leaf's count of samples since the last
        attempt past the attempts that cannot act, and leaves it at 0 at
        the segment's last row, whose attempt can. A split re-routes only
        the later rows at the split leaf, one level down, into the two
        fresh children.
        """
        pool = self._pool
        leaf = self._route(X)
        act = self._attempt_rows(leaf, labels, train)
        out = np.empty(len(X), dtype=np.intp)
        start = 0
        while start < len(X):
            end = start + int(act[start:].argmax())
            acts = bool(act[end])
            if not acts:
                end = len(X) - 1
            seg = slice(start, end + 1)
            out[seg] = self._answers(leaf[seg], labels[seg], train[seg])
            rows = start + train[seg].nonzero()[0]
            if rows.size:
                pool.absorb(leaf[rows], labels[rows], X[rows])
            start = end + 1
            if acts:
                idx = int(leaf[end])
                self.attempt_split(idx)
                later = start + (leaf[start:] == idx).nonzero()[0]
                kind, attr, value, left, right = self._nodes[idx]
                if kind:
                    go_left = X[later, attr] <= value
                    leaf[later] = np.where(go_left, left, right)
                    if self.node_count + 2 > self.params.max_nodes:
                        # from now on every attempt freezes its leaf
                        later = slice(start, None)
                    act[later] = self._attempt_rows(leaf[later], labels[later], train[later])
                elif pool.frozen[idx]:
                    act[later] = False
        return out

    def _route(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of every row, by lockstep descent from the root.

        Each step moves every row one level down the routing table, where
        a leaf leads to itself, with flat gathers from X: a few numpy calls
        per level, whatever the row count. The table is kept on the tree
        as _table: built here on the first call after a split or a load
        (see _routing_table), reused until _split drops it. Every row has
        reached its leaf after the table's depth of steps, and stays there,
        so the descent takes exactly that many and tests nothing in
        between. A lone row, such as a one-sample bundle's, descends on its
        own, which makes the same comparisons without those calls.
        """
        if len(X) == 1:
            return np.array([self._leaf(X[0])], dtype=np.intp)
        if self._table is None:
            self._table = self._routing_table()
        attr, value, child, depth = self._table
        flat, starts = X.ravel(), np.arange(0, X.size, X.shape[1])
        leaf = np.zeros(len(X), dtype=np.intp)
        for _ in range(depth):
            leaf = child[2 * leaf + (flat[starts + attr[leaf]] > value[leaf])]
        return leaf

    def _routing_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """_route's aligned split attributes and thresholds, children and depth.

        child[2 * i] and child[2 * i + 1] are node i's left and right
        child, or i itself on a leaf; the depth is the most edges from the
        root to a leaf. Children follow their parent, so one pass over
        _nodes in order sets every node's depth.
        """
        nodes = self._nodes
        depth, child = [0] * len(nodes), []
        for i, (kind, _, _, left, right) in enumerate(nodes):
            if kind:
                depth[left] = depth[right] = depth[i] + 1
                child += (left, right)
            else:
                child += (i, i)
        _, attr, value, _, _ = zip(*nodes)
        return (np.array(attr, dtype=np.intp), np.array(value, dtype=np.float32),
                np.array(child, dtype=np.intp), max(depth))

    def _attempt_rows(self, leaf: np.ndarray, labels: np.ndarray, train: np.ndarray) -> np.ndarray:
        """Mask of the rows after which their leaf makes a split attempt that can act.

        A non-frozen leaf attempts at the train row whose absorption wraps
        its count of samples since the last attempt to 0 (see _Records):
        the c-th train row at a leaf whose count stands at s attempts when
        min(s, n_min - 1) + c is a multiple of n_min. An attempt can act,
        splitting or freezing the leaf, only when the arena has no room for
        two more nodes or the leaf has seen two classes by then: in its
        counts or in its train rows up to the attempt's. The mask holds
        while the leaf stays a non-frozen leaf and the arena keeps room;
        the caller updates it when an attempt splits or freezes the leaf.

        A leaf with c train rows attempts at all only when min(s, n_min -
        1) + c reaches n_min, so when no leaf's count does, one bincount
        shows it and the mask is all False, without grouping the rows.
        That holds for most calls of a few train rows per leaf, such as
        93.7% of the serve-bundles benchmark's 128-row bundles, and for
        few training calls (3 of 41 on synth-d3k5, 1 of 21 on
        covtype-d54k7), which take the full path.
        """
        pool, n_min = self._pool, self.params.n_min
        rows = (train & ~pool.frozen[leaf]).nonzero()[0]
        c = np.bincount(leaf[rows])
        if not (np.minimum(pool.since[: len(c)], n_min - 1) + c >= n_min).any():
            return np.zeros(len(leaf), dtype=bool)
        # the train rows grouped by leaf, each leaf's in order
        order, grouped, head = _grouped(leaf[rows])
        rows = rows[order]
        index = np.arange(len(rows))
        begins = np.maximum.accumulate(np.where(head, index, 0))
        since = np.minimum(pool.since[grouped], n_min - 1) + index - begins + 1
        hit = since % n_min == 0
        act = np.zeros(len(leaf), dtype=bool)
        if self.node_count + 2 > self.params.max_nodes or not np.count_nonzero(hit):
            act[rows] = hit
            return act
        # a leaf's second class comes with its first train row whose label is
        # not its one seen class, or, unseen, not its first row's label
        counts = pool.counts[grouped[head]]
        seen = np.count_nonzero(counts, axis=1)
        label = labels[rows]
        one = np.where(seen > 0, counts.argmax(axis=1), label[head])
        group = head.cumsum() - 1
        other = (label != one[group]) | (seen > 1)[group]
        act[rows] = hit & (np.maximum.accumulate(np.where(other, index, -1)) >= begins)
        return act

    def _answers(self, leaf: np.ndarray, labels: np.ndarray, train: np.ndarray) -> np.ndarray:
        """Each row's prediction, given the segment's earlier train rows.

        Row i sees its leaf's counts as the segment began plus the labels
        of the segment's earlier train rows at that leaf, a running count
        per leaf; argmax ties go to the lowest class, as in majority().

        Most segments change no leaf's answer, and a test on per-leaf
        arrays shows it. Take a leaf whose majority m leads the runner-up
        class by lead, and let b count the segment's train rows there whose
        label is not m, the last row aside, since no row comes after it.
        Every other class's running count stays at most the runner-up's
        plus b, so below m's when b < lead; when b = 0 only m's count
        grows, and m, the lowest of any tied classes, stays the answer.
        When every leaf passes, each row gets its leaf's majority.
        Otherwise the rows are grouped by leaf, and the running counts are
        one cumulative sum over the groups, less its value where each group
        starts, in int32, since a block holds at most _BLOCK_ROWS rows.
        """
        counts = self._pool.counts
        rows = train[:-1].nonzero()[0]
        if not rows.size:
            return counts[leaf].argmax(axis=1)
        # per leaf of the segment: its majority, by node index, its counts
        # sorted (the lead is the last minus the one before), and the count
        # of its earlier train rows whose label is not the majority
        per = np.bincount(leaf)
        leaves = per.nonzero()[0]
        held = counts[leaves]
        major = np.zeros(len(per), dtype=np.intp)
        major[leaves] = held.argmax(axis=1)
        held.sort(axis=1)
        at = leaf[rows]
        other = np.bincount(at, labels[rows] != major[at], len(per))[leaves]
        # other < lead, or other = 0, at every leaf
        if not np.count_nonzero(other >= np.maximum(held[:, -1] - held[:, -2], 1)):
            return major[leaf]
        n = len(leaf)
        order, grouped, head = _grouped(leaf)
        place = np.empty(n, dtype=np.intp)
        place[order] = np.arange(n)
        # before[i]: the train labels, per class, of the grouped rows above i
        before = np.zeros((n + 1, counts.shape[1]), dtype=np.int32)
        before[place[rows] + 1, labels[rows]] = 1
        np.cumsum(before, axis=0, dtype=np.int32, out=before)
        heads = head.nonzero()[0]
        seen = (counts[grouped[heads]] - before[heads])[head.cumsum() - 1]
        seen += before[:n]
        out = np.empty(n, dtype=np.intp)
        out[order] = seen.argmax(axis=1)
        return out

    def attempt_split(self, leaf_idx: int) -> tuple[int, float] | None:
        """Split the leaf if the Hoeffding bound justifies it.

        Returns (attribute, threshold) when a split happened, else None.
        A leaf that cannot fit two children in the arena is frozen for good
        and keeps accumulating statistics for prediction only. learn() does
        not call it on a leaf that has seen fewer than two classes while
        the arena has room, since such an attempt changes nothing. The
        leaf's count of samples since the last attempt is left as it is:
        absorbing the row that attempts has already wrapped it to 0. An
        index outside [0, node_count) raises a ValueError.
        """
        leaf_idx = _index(leaf_idx, self.node_count, "node")
        if self._nodes[leaf_idx][0]:
            raise ValueError(f"node {leaf_idx} is not a leaf")
        pool, params = self._pool, self.params
        if pool.frozen[leaf_idx]:
            return None
        if self.node_count + 2 > params.max_nodes:
            pool.frozen[leaf_idx] = True
            return None
        counts = pool.counts[leaf_idx]
        if int(np.count_nonzero(counts)) < 2:
            return None

        best_gain, best_value = _best_splits(counts, pool.sketch[leaf_idx], pool.targets, params.n_pt)
        first = int(np.argmax(best_gain))
        g_first = best_gain[first]
        g_second = float(np.delete(best_gain, first).max()) if params.dims > 1 else 0.0
        epsilon = hoeffding_bound(math.log2(params.classes), params.delta, int(counts.sum()))
        if g_first > 0.0 and (g_first - g_second > epsilon or epsilon < params.tau):
            value = best_value[first]
            self._split(leaf_idx, first, value)
            return first, value
        return None

    def _split(self, leaf_idx: int, attr: int, value: float) -> None:
        # threshold held at f32 so the live tree and its serialized form agree
        value = float(np.float32(value))
        left, right = self.node_count, self.node_count + 1
        pool = self._pool
        pool.reserve(right + 1, self.params.max_nodes)
        # the record of an internal node holds no statistics
        pool.array[leaf_idx] = (_KIND_INTERNAL, False, attr, value, left, right, 0, 0, 0, 0)
        pool.since[leaf_idx] = 0
        pool.answer[leaf_idx] = -1
        self._nodes[leaf_idx] = (_KIND_INTERNAL, attr, value, left, right)
        self._nodes += (_LEAF, _LEAF)
        self._table = None

    def leaf_indices(self) -> list[int]:
        return [i for i, node in enumerate(self._nodes) if not node[0]]
