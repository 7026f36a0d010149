"""Tests for the tree learner: bound, routing, training, splits, gains."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamtree.datasets import DatasetSpec, generate_clusters
from streamtree.serialize import _records, serialize
from streamtree.sketch import QuantileSketch
from streamtree.tree import (
    Hyperparams,
    LeafStats,
    Sample,
    Tree,
    _best_splits,
    entropy_gain,
    hoeffding_bound,
    split_candidates,
    split_gain,
)


def small_params(**overrides):
    base = dict(dims=2, classes=2, max_nodes=255)
    base.update(overrides)
    return Hyperparams(**base)


# ---------------------------------------------------------------- bound


def test_bound_zero_range():
    assert hoeffding_bound(0.0, 0.001, 200) == 0.0


def test_bound_direct_evaluation():
    expected = math.sqrt(math.log(1000.0) / 400.0)
    assert hoeffding_bound(1.0, 0.001, 200) == pytest.approx(expected, abs=1e-12)
    assert hoeffding_bound(1.0, 0.001, 200) == pytest.approx(0.13142, abs=1e-4)


def test_bound_quarter_n_halves_epsilon():
    assert hoeffding_bound(1.0, math.exp(-1.0), 50) == pytest.approx(0.1)
    assert hoeffding_bound(1.0, math.exp(-1.0), 200) == pytest.approx(0.05)


def test_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 0.001, 0)
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 0.0, 10)
    with pytest.raises(ValueError):
        hoeffding_bound(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        hoeffding_bound(-1.0, 0.5, 10)


def test_bound_monotonicity_small_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(500):
        r = rng.uniform(0.01, 8.0)
        delta = rng.uniform(1e-6, 0.999)
        n = int(rng.integers(1, 10_000))
        e = hoeffding_bound(r, delta, n)
        assert hoeffding_bound(r, delta, n + 1) < e
        assert hoeffding_bound(r * 1.5, delta, n) > e
        assert hoeffding_bound(r, delta * 0.5, n) > e


# ---------------------------------------------------------------- params


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(dims=0, classes=2)
    with pytest.raises(ValueError):
        Hyperparams(dims=1, classes=1)
    with pytest.raises(ValueError):
        Hyperparams(dims=1, classes=2, delta=0.0)
    with pytest.raises(ValueError):
        Hyperparams(dims=1, classes=2, lam=-1.0)
    with pytest.raises(ValueError):
        Hyperparams(dims=1, classes=2, tau=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(dims=1, classes=2, n_pt=17, n_quantiles=16)
    with pytest.raises(ValueError):
        Hyperparams(dims=1, classes=2, max_nodes=0)


# ---------------------------------------------------------------- routing


def test_fresh_tree_routes_to_root():
    tree = Tree(small_params())
    assert tree.node_count == 1
    assert tree.sort_to_leaf([0.0, 0.0]) == tree.root


def test_single_split_routes_by_threshold():
    tree = Tree(small_params())
    tree._split(0, 0, 0.5)
    left, right = tree.arena[0].left, tree.arena[0].right
    assert tree.sort_to_leaf([0.3, 9.0]) == left
    assert tree.sort_to_leaf([0.5, 9.0]) == left  # boundary goes left
    assert tree.sort_to_leaf([0.7, -9.0]) == right


def test_depth_three_matches_recursive_oracle():
    tree = Tree(small_params())
    tree._split(0, 0, 0.5)
    tree._split(1, 1, 0.3)
    tree._split(2, 1, 0.7)
    tree._split(3, 0, 0.2)

    def descend(idx, x):  # independent recursive descent
        node = tree.arena[idx]
        if node.stats is not None:
            return idx
        child = node.left if x[node.split_attr] <= node.split_value else node.right
        return descend(child, x)

    grid = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85]
    for a in grid:
        for b in grid:
            x = np.array([a, b], dtype=np.float32)
            assert tree.sort_to_leaf(x) == descend(tree.root, x)


def test_feature_validation():
    tree = Tree(small_params())
    with pytest.raises(ValueError):
        tree.sort_to_leaf([1.0])
    with pytest.raises(ValueError):
        tree.sort_to_leaf([1.0, math.nan])


# ---------------------------------------------------------------- inference


def test_infer_defaults_and_ties():
    tree = Tree(small_params(classes=3))
    assert tree.infer([0.0, 0.0]) == 0  # empty leaf
    tree.arena[0].stats.class_counts[:] = [3, 7, 0]
    assert tree.infer([0.0, 0.0]) == 1  # majority
    tree.arena[0].stats.class_counts[:] = [5, 5, 2]
    assert tree.infer([0.0, 0.0]) == 0  # tie toward lowest index


def test_infer_does_not_mutate():
    tree = Tree(small_params())
    for i in range(30):
        tree.train(Sample([i * 0.1, -i * 0.1], i % 2))
    before = serialize(tree)
    for i in range(50):
        tree.infer([i * 0.07, 0.5])
        tree.sort_to_leaf([0.1, 0.2])
    assert serialize(tree) == before


# ---------------------------------------------------------------- training


def test_train_returns_pre_update_prediction():
    tree = Tree(small_params(classes=4))
    assert tree.train(Sample([0.0, 0.0], label=2)) == 0
    stats = tree.arena[0].stats
    assert stats.class_counts.tolist() == [0, 0, 1, 0]
    assert stats.since_last_attempt == 1
    snapshot = _records(serialize(tree), tree.params, tree.node_count)
    assert snapshot["sketch_counts"][0, 2].tolist() == [1, 1]
    # second sample of the same class is now predicted as that class
    assert tree.train(Sample([5.0, 5.0], label=2)) == 2


def test_train_rejects_bad_samples():
    tree = Tree(small_params())
    with pytest.raises(ValueError):
        tree.train(Sample([0.0, 0.0], label=2))  # out of range
    with pytest.raises(ValueError):
        tree.train(Sample([0.0, 0.0], label=0, train=False))


def test_pure_stream_never_splits():
    tree = Tree(small_params(n_min=50))
    rng = np.random.default_rng(3)
    for _ in range(600):
        tree.train(Sample(rng.normal(size=2), label=0))
    assert tree.node_count == 1
    assert tree.arena[0].stats.since_last_attempt < 50  # attempts did run


def two_class_stream(n, rng, sep_attr=0, dims=2, gap=2.0, noise=0.1):
    """Perfectly separable stream: classes at -gap/2 and +gap/2 on one axis."""
    out = []
    for i in range(n):
        label = i % 2
        x = rng.normal(0.0, noise, dims)
        x[sep_attr] += (label - 0.5) * gap
        out.append(Sample(x, label))
    return out


def test_separable_stream_splits_root_on_separating_attribute():
    tree = Tree(small_params())
    rng = np.random.default_rng(11)
    for s in two_class_stream(1000, rng):
        tree.train(s)
        if tree.node_count > 1:
            break
    assert tree.node_count == 3  # one split: root plus two fresh leaves
    root = tree.arena[tree.root]
    assert root.stats is None
    assert root.split_attr == 0
    assert -1.5 < root.split_value < 1.5  # between the class centers
    assert tree.arena[root.left].stats is not None
    assert tree.arena[root.right].stats is not None


def test_grace_period_counter_resets_after_attempt():
    # a pure stream can never split, but attempts still run and reset
    tree = Tree(small_params(n_min=100))
    rng = np.random.default_rng(5)
    for _ in range(100):
        tree.train(Sample(rng.normal(size=2), label=1))
    assert tree.node_count == 1
    assert tree.arena[0].stats.since_last_attempt == 0


# ---------------------------------------------------------------- splits


def test_attempt_split_requires_leaf():
    tree = Tree(small_params())
    tree._split(0, 0, 0.0)
    with pytest.raises(ValueError):
        tree.attempt_split(0)


def test_attempt_split_pure_leaf_returns_none():
    tree = Tree(small_params())
    for _ in range(10):
        tree.train(Sample([1.0, 1.0], label=1))
    assert tree.attempt_split(0) is None
    assert tree.node_count == 1


def test_capacity_guard_freezes_leaf():
    # arena of 4: after the first split (3 nodes) nothing else may split
    tree = Tree(small_params(dims=1, max_nodes=4, n_min=100))
    rng = np.random.default_rng(2)
    for s in two_class_stream(400, rng, sep_attr=0, dims=1):
        tree.train(s)
    assert tree.node_count == 3  # == max_nodes - 1
    right = tree.arena[tree.arena[tree.root].right]
    # drive a separable two-class mixture into the right child
    for i in range(400):
        label = i % 2
        tree.train(Sample([1.0 + label * 1.0 + rng.normal(0, 0.05)], label))
    assert tree.node_count == 3
    frozen = [
        tree.arena[i].stats.frozen
        for i in tree.leaf_indices()
        if tree.arena[i].stats.total > 0
    ]
    assert any(frozen)


def test_frozen_leaf_keeps_absorbing():
    tree = Tree(small_params(max_nodes=1, n_min=10))
    rng = np.random.default_rng(4)
    for s in two_class_stream(100, rng):
        tree.train(s)
    stats = tree.arena[0].stats
    assert tree.node_count == 1
    assert stats.frozen
    assert stats.total == 100


# ---------------------------------------------------------------- gain


def test_entropy_gain_perfect_partition_is_one_bit():
    counts = np.array([100, 100])
    left = np.array([100.0, 0.0])
    assert entropy_gain(counts, left) == pytest.approx(1.0)


def test_entropy_gain_replicated_distribution_is_zero():
    counts = np.array([50, 50])
    left = np.array([25.0, 25.0])
    assert entropy_gain(counts, left) == pytest.approx(0.0, abs=1e-12)


def test_entropy_gain_empty_side_is_zero():
    counts = np.array([10, 20])
    assert entropy_gain(counts, np.zeros(2)) == 0.0
    assert entropy_gain(counts, counts.astype(float)) == 0.0


def separated_stats(params, low_label=0, high_label=1, low=0.0, high=10.0, n=100):
    """Leaf stats with two classes fully separated on every attribute."""
    stats = LeafStats(params)
    rng = np.random.default_rng(9)
    for _ in range(n):
        stats.absorb(low_label, np.full(params.dims, low, dtype=np.float32)
                     + rng.normal(0, 0.01, params.dims).astype(np.float32))
        stats.absorb(high_label, np.full(params.dims, high, dtype=np.float32)
                     + rng.normal(0, 0.01, params.dims).astype(np.float32))
    return stats


def test_split_gain_matches_independent_entropy_arithmetic():
    params = small_params(n_quantiles=16)
    stats = separated_stats(params)
    v = 5.0
    # oracle: same masses, entropy arithmetic written out independently
    c0 = stats.cdf(0, 0, v)
    c1 = stats.cdf(1, 0, v)
    n0 = n1 = 100.0
    lm = [n0 * c0, n1 * c1]
    rm = [n0 - lm[0], n1 - lm[1]]

    def h(ms):
        tot = sum(ms)
        return -sum(m / tot * math.log2(m / tot) for m in ms if m > 0)

    wl = sum(lm) / 200.0
    expected = h([n0, n1]) - wl * h(lm) - (1 - wl) * h(rm)
    assert split_gain(stats, 0, v) == pytest.approx(expected, abs=1e-12)
    # the clamped CDF caps the gain below the ideal 1.0 bit
    assert 0.5 < split_gain(stats, 0, v) < 1.0


def test_split_gain_off_support_threshold_is_zero():
    params = small_params()
    stats = separated_stats(params)
    # below every estimate both classes report the same clamped CDF, so the
    # children replicate the parent distribution
    assert split_gain(stats, 0, -100.0) == pytest.approx(0.0, abs=1e-9)
    assert split_gain(stats, 0, +100.0) == pytest.approx(0.0, abs=1e-9)


def test_split_gain_requires_observations():
    with pytest.raises(ValueError):
        split_gain(LeafStats(small_params()), 0, 0.0)


def test_split_gain_bounds_fuzz():
    rng = np.random.default_rng(17)
    params = Hyperparams(dims=3, classes=4, max_nodes=7)
    for _ in range(300):
        stats = LeafStats(params)
        for _ in range(int(rng.integers(1, 60))):
            stats.absorb(int(rng.integers(0, 4)),
                         rng.normal(0, 3, 3).astype(np.float32))
        v = float(rng.normal(0, 4))
        g = split_gain(stats, int(rng.integers(0, 3)), v)
        assert 0.0 <= g <= math.log2(4) + 1e-12


def test_split_candidates_lie_in_pooled_range():
    params = small_params()
    stats = separated_stats(params, low=0.0, high=10.0)
    cands = split_candidates(stats, 0, 10)
    assert 1 <= len(cands) <= 10
    lo = stats.sketch_estimates[:2, 0, :].min()
    hi = stats.sketch_estimates[:2, 0, :].max()
    assert np.all(cands >= lo) and np.all(cands <= hi)
    # duplicates collapse
    assert len(np.unique(cands)) == len(cands)


# ------------------------------------------------------- leaf statistics


def test_leafstats_row_update_matches_scalar_sketches():
    params = Hyperparams(dims=3, classes=2, n_quantiles=8, n_pt=8, lam=0.05, max_nodes=3)
    stats = LeafStats(params)
    mirror = [[QuantileSketch(8, 0.05) for _ in range(3)] for _ in range(2)]
    rng = np.random.default_rng(21)
    for _ in range(300):
        label = int(rng.integers(0, 2))
        x = rng.normal(0, 2, 3).astype(np.float32)
        stats.absorb(label, x)
        for d in range(3):
            mirror[label][d].update(float(x[d]))
    for k in range(2):
        for d in range(3):
            assert (
                stats.sketch_estimates[k, d].tobytes()
                == mirror[k][d].estimates.tobytes()
            )
            assert int(stats.class_counts[k]) == mirror[k][d].count


def test_leaf_conservation_shadow_oracle():
    params = small_params(n_min=50, max_nodes=15)
    tree = Tree(params)
    rng = np.random.default_rng(13)
    shadow = {}
    for s in two_class_stream(2000, rng, gap=1.0, noise=0.4):
        leaf = tree.sort_to_leaf(s.features)
        shadow[leaf] = shadow.get(leaf, 0) + 1
        tree.train(s)
        if tree.arena[leaf].stats is None:  # split consumed this leaf
            del shadow[leaf]
    for idx in tree.leaf_indices():
        assert tree.arena[idx].stats.total == shadow.get(idx, 0)


def structure_counts(tree):
    stack, leaves, internals = [tree.root], 0, 0
    while stack:
        node = tree.arena[stack.pop()]
        if node.stats is not None:
            leaves += 1
        else:
            internals += 1
            stack.extend((node.left, node.right))
    return leaves, internals


def test_strict_binary_structure():
    tree = Tree(small_params(n_min=50, max_nodes=31))
    rng = np.random.default_rng(23)
    for s in two_class_stream(3000, rng, gap=1.5, noise=0.5):
        tree.train(s)
    leaves, internals = structure_counts(tree)
    assert leaves == internals + 1
    assert leaves + internals == tree.node_count
    assert tree.node_count <= 31


def test_training_is_deterministic():
    rng = np.random.default_rng(29)
    stream = two_class_stream(1500, rng, gap=1.0, noise=0.3)
    trees = [Tree(small_params(n_min=50)) for _ in range(2)]
    for t in trees:
        for s in stream:
            t.train(s)
    assert serialize(trees[0]) == serialize(trees[1])


# ------------------------------------------- split kernel vs scalar loop
#
# The scalar attribute x candidate x class loop that the batched kernel in
# Tree.attempt_split replaced, kept verbatim as the reference. The kernel
# must reproduce it to the bit, so comparisons use np.array_equal.


def scalar_cdf(estimates, targets, value):
    i = int(np.searchsorted(estimates, value, side="right"))
    if i == 0:
        return float(targets[0])
    if value == estimates[i - 1]:
        return float(targets[i - 1])
    if i == len(estimates):
        return float(targets[-1])
    e0 = float(estimates[i - 1])
    e1 = float(estimates[i])
    t0 = float(targets[i - 1])
    t1 = float(targets[i])
    return t0 + (t1 - t0) * (value - e0) / (e1 - e0)


def scalar_entropy_bits(masses):
    total = masses.sum()
    if total <= 0.0:
        return 0.0
    p = masses[masses > 0.0] / total
    return float(-(p * np.log2(p)).sum())


def scalar_entropy_gain(class_counts, left_mass):
    counts = np.asarray(class_counts, dtype=np.float64)
    left = np.asarray(left_mass, dtype=np.float64)
    right = counts - left
    n_left = left.sum()
    n_right = right.sum()
    n = counts.sum()
    if n_left <= 0.0 or n_right <= 0.0:
        return 0.0
    gain = (
        scalar_entropy_bits(counts)
        - (n_left / n) * scalar_entropy_bits(left)
        - (n_right / n) * scalar_entropy_bits(right)
    )
    return max(0.0, gain)


def scalar_split_gain(stats, attr, value):
    counts = stats.class_counts
    left = np.zeros(len(counts), dtype=np.float64)
    for k in np.flatnonzero(counts):
        cdf = scalar_cdf(stats.sketch_estimates[k, attr], stats._targets, value)
        left[k] = float(counts[k]) * cdf
    return scalar_entropy_gain(counts, left)


def scalar_split_candidates(stats, attr, n_pt):
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


def scalar_best_splits(stats, n_pt):
    dims = stats.sketch_estimates.shape[1]
    best_gain = np.zeros(dims, dtype=np.float64)
    best_value = np.zeros(dims, dtype=np.float64)
    for attr in range(dims):
        for value in scalar_split_candidates(stats, attr, n_pt):
            gain = scalar_split_gain(stats, attr, float(value))
            if gain > best_gain[attr]:
                best_gain[attr] = gain
                best_value[attr] = float(value)
    return best_gain, best_value


def assert_kernel_matches_scalar_loop(stats, n_pt):
    gain, value = _best_splits(stats, n_pt)
    want_gain, want_value = scalar_best_splits(stats, n_pt)
    assert np.array_equal(gain, want_gain), (gain, want_gain)
    assert np.array_equal(value, want_value), (value, want_value)


def leaves_at_split_attempts(params, spec):
    """Copies of every leaf a split attempt evaluates while training on spec."""
    leaves = []

    class Recording(Tree):
        def attempt_split(self, leaf_idx):
            stats = self.arena[leaf_idx].stats
            if not stats.frozen and np.count_nonzero(stats.class_counts) >= 2:
                copy = LeafStats(self.params)
                copy.class_counts[:] = stats.class_counts
                copy.sketch_estimates[:] = stats.sketch_estimates
                leaves.append(copy)
            return super().attempt_split(leaf_idx)

    tree = Recording(params)
    for sample in generate_clusters(spec):
        tree.train(sample)
    return leaves


@pytest.mark.parametrize("dims,classes,samples,spread", [
    (54, 7, 6000, 0.5),
    (3, 5, 20000, 0.5),
    (4, 10, 30000, 1.0),
    (6, 12, 30000, 1.0),
    (1, 2, 5000, 1.0),
])
def test_split_kernel_matches_scalar_loop_on_training_leaves(dims, classes, samples, spread):
    params = Hyperparams(dims=dims, classes=classes)
    spec = DatasetSpec(clusters=classes, dims=dims, samples=samples,
                       cluster_spread=spread, seed=1)
    leaves = leaves_at_split_attempts(params, spec)
    assert len(leaves) >= 20
    if classes >= 10:
        # from 9 summed classes on, numpy's pairwise summation differs from
        # a sequential one, which a strided class axis would fall back to
        assert sum(np.count_nonzero(s.class_counts) >= 9 for s in leaves) >= 100
    for stats in leaves:
        assert_kernel_matches_scalar_loop(stats, params.n_pt)


knot_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(-100.0, 100.0, width=32),
)


def assert_leaf_matches_scalar_loop(dims, classes, n_quantiles, n_pt, lam, labels, features):
    params = Hyperparams(dims=dims, classes=classes, lam=lam,
                         n_quantiles=n_quantiles, n_pt=n_pt)
    stats = LeafStats(params)
    for label, x in zip(labels, features):
        stats.absorb(label, x)
    assert_kernel_matches_scalar_loop(stats, n_pt)
    # the public wrappers run the kernel's stages
    for attr in range(dims):
        cands = split_candidates(stats, attr, n_pt)
        want = scalar_split_candidates(stats, attr, n_pt)
        assert np.array_equal(cands, want) and cands.dtype == want.dtype
        for value in cands:
            assert split_gain(stats, attr, float(value)) == scalar_split_gain(
                stats, attr, float(value))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_split_kernel_matches_scalar_loop_property(data):
    dims = data.draw(st.integers(1, 4), label="dims")
    classes = data.draw(st.integers(2, 12), label="classes")
    n_quantiles = data.draw(st.integers(1, 16), label="n_quantiles")
    n_pt = data.draw(st.integers(1, n_quantiles), label="n_pt")
    lam = data.draw(st.sampled_from([0.01, 0.5, 4.0]), label="lam")
    labels = data.draw(st.lists(st.integers(0, classes - 1), min_size=1, max_size=120),
                       label="labels")
    features = data.draw(arrays(np.float32, (len(labels), dims), elements=knot_values),
                         label="features")
    assert_leaf_matches_scalar_loop(dims, classes, n_quantiles, n_pt, lam, labels, features)


def test_split_kernel_sums_classes_of_a_broadcast_grid_pairwise():
    # found by the property above: with one candidate per attribute the
    # broadcast CDF grid came out with a strided class axis, and its
    # sequential sum over 8 classes missed the scalar loop's gain of 0 by
    # 4.4e-16
    labels = [0] * 8 + list(range(1, 8))
    features = np.zeros((len(labels), 2), dtype=np.float32)
    assert_leaf_matches_scalar_loop(2, 8, 1, 1, 0.01, labels, features)


def test_split_candidates_follow_np_interp_on_infinite_knots():
    # a snapshot may carry infinite knots. Between -inf and a finite knot
    # np.interp's first formula gives NaN and it retries from the right
    # knot; between two +inf knots both give NaN and it takes the knot
    params = Hyperparams(dims=1, classes=3, n_quantiles=4, n_pt=4)
    stats = LeafStats(params)
    stats.class_counts[:] = [1, 1, 1]
    stats.sketch_estimates[0, 0] = [-1.0, 0.0, 0.5, 2.0]
    stats.sketch_estimates[1, 0] = np.inf
    stats.sketch_estimates[2, 0] = [-np.inf, -np.inf, 1.0, 1.0]
    want = scalar_split_candidates(stats, 0, params.n_pt)
    assert np.isinf(want).any() and not np.isnan(want).any()
    assert np.array_equal(split_candidates(stats, 0, params.n_pt), want)


def test_identical_columns_split_on_first_at_first_best_candidate():
    # class 0 sits at 0, class 1 at 10, on both (identical) attributes; every
    # candidate from 0 up to below 10 separates them equally well, and with
    # 50 against 60 samples one probe reads between the two classes
    params = Hyperparams(dims=2, classes=2, tau=1.0, max_nodes=3)
    stats = LeafStats(params)
    for label, x, times in ((0, 0.0, 50), (1, 10.0, 60)):
        for _ in range(times):
            stats.absorb(label, np.array([x, x], dtype=np.float32))
    cands = scalar_split_candidates(stats, 0, params.n_pt)
    gains = [scalar_split_gain(stats, 0, float(v)) for v in cands]
    assert cands[0] == 0.0 and gains.count(max(gains)) >= 2 and gains[0] == max(gains)
    tree = Tree(params)
    tree.arena[0].stats = stats
    assert tree.attempt_split(0) == (0, 0.0)
    assert tree.arena[0].split_attr == 0 and tree.arena[0].split_value == 0.0


@pytest.mark.parametrize("dims,classes,samples,spread,params,digest", [
    (54, 7, 6000, 0.5, dict(tau=0.2, max_nodes=63),
     "2f70331bef614e623ff971052f6a6171e4bb73e77c2da40e59b3c6dd751b3610"),
    (4, 10, 20000, 1.0, dict(tau=0.1, max_nodes=15),
     "9d8d2ef9ec4d187e09ce989a245011faeeb049cf0b89586e16bd0812a9eef050"),
])
def test_trained_snapshot_bytes_are_pinned(dims, classes, samples, spread, params, digest):
    # digests taken from the scalar split loop that preceded the kernel
    tree = Tree(Hyperparams(dims=dims, classes=classes, **params))
    spec = DatasetSpec(clusters=classes, dims=dims, samples=samples,
                       cluster_spread=spread, seed=5)
    for sample in generate_clusters(spec):
        tree.train(sample)
    assert tree.node_count > 3
    assert hashlib.sha256(serialize(tree)).hexdigest() == digest
