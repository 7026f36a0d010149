"""Tests for the tree learner: bound, routing, training, splits, gains."""

import copy
import dataclasses
import hashlib
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from buffers import same_bytes
from leaves import reloaded

from streamtree.datasets import CsvSchema, DatasetSpec, generate_clusters, load_csv
from streamtree.harness import Bundle, process_bundle
from streamtree.serialize import _records, deserialize, serialize
from streamtree.sketch import QuantileSketch, count_at_or_below
from streamtree.tree import (
    Hyperparams,
    LeafStats,
    Sample,
    Tree,
    _best_splits,
    _partition_gain,
    _stable_order,
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


def test_sample_is_a_slotted_record():
    x = np.array([0.5, -1.0], dtype=np.float32)
    s = Sample(x, 1)
    assert not hasattr(s, "__dict__")
    assert s.features is x and (s.label, s.train) == (1, True)
    for given in ([0.5, -1.0], np.array([0.5, -1.0]), (0.5, -1.0)):
        cast = Sample(given, label=1, train=False).features
        assert cast.dtype == np.float32 and cast.tobytes() == x.tobytes()
    assert Sample(x).label == 0 and Sample(x).train is True

    assert dataclasses.replace(s, label=2) == Sample(x, 2)
    assert dataclasses.replace(s, features=[1.0, 2.0]).features.dtype == np.float32
    copied = copy.copy(s)
    assert copied == s and copied is not s and copied.features is x
    loaded = pickle.loads(pickle.dumps(s))
    assert loaded.features.tobytes() == x.tobytes() and (loaded.label, loaded.train) == (1, True)
    s.features = np.zeros(2)  # still mutable, and not cast on assignment
    assert s.features.dtype == np.float64

    # the generated dataclass comparison and repr
    one = np.array([2.0], dtype=np.float32)
    assert Sample(one, 1) == Sample(one, 1) == Sample(one.copy(), 1)
    assert Sample(one, 1) != Sample(one, 2) and Sample(one, 1) != Sample(one, 1, False)
    assert Sample(one, 1) != (one, 1, True)
    assert repr(Sample(one, 3, False)) == (
        "Sample(features=array([2.], dtype=float32), label=3, train=False)"
    )


# ---------------------------------------------------------------- routing


def test_fresh_tree_routes_to_root():
    tree = Tree(small_params())
    assert tree.node_count == 1
    assert tree.sort_to_leaf([0.0, 0.0]) == tree.root


def test_single_split_routes_by_threshold():
    tree = Tree(small_params())
    tree._split(0, 0, 0.5)
    left, right = tree.view().left[0], tree.view().right[0]
    assert tree.sort_to_leaf([0.3, 9.0]) == left
    assert tree.sort_to_leaf([0.5, 9.0]) == left  # boundary goes left
    assert tree.sort_to_leaf([0.7, -9.0]) == right


def test_depth_three_matches_recursive_oracle():
    tree = Tree(small_params())
    tree._split(0, 0, 0.5)
    tree._split(1, 1, 0.3)
    tree._split(2, 1, 0.7)
    tree._split(3, 0, 0.2)

    view = tree.view()

    def descend(idx, x):  # independent recursive descent
        if not view.kind[idx]:
            return idx
        go_left = x[view.split_attr[idx]] <= view.split_value[idx]
        return descend(view.left[idx] if go_left else view.right[idx], x)

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


def split_three_dims():
    tree = Tree(small_params(dims=3))
    tree._split(0, 0, 0.5)
    tree._split(2, 2, -0.25)
    tree.train(Sample([1.0, 0.0, 1.0], label=1))
    return tree


@pytest.mark.parametrize("row", [
    [0.1, math.nan, 0.3],
    [0.1, 0.2, math.inf],
    [-math.inf, 0.2, 0.3],
    [math.inf, -math.inf, 0.3],  # the sum of the two is NaN
    [0.1, 1e39, 0.3],  # past the f32 range, so inf once cast
])
def test_non_finite_features_are_rejected_by_every_one_row_call(row):
    tree = split_three_dims()
    before = serialize(tree)
    for call in (tree.infer, tree.sort_to_leaf, lambda x: tree.train(Sample(x, label=1))):
        with pytest.raises(ValueError, match="^features must be finite$"):
            call(row)
    assert same_bytes(serialize(tree), before)


def test_f32_overflow_is_reported_once_on_every_path(tmp_path):
    # 1e39 is a finite float that casts to an f32 infinity: the ValueError
    # is the one report, with no numpy overflow warning before it
    row = [0.1, 1e39, 0.3]
    path = tmp_path / "t.csv"
    path.write_text("a,b,c,y\n0.1,1e39,0.3,0\n")
    tree = split_three_dims()
    cast_later = Sample(np.zeros(3), label=1)
    cast_later.features = np.array(row)  # f64, so the bundle casts it
    calls = [
        lambda: tree.infer(row),
        lambda: tree.train(Sample(row, label=1)),
        lambda: tree.learn(np.array([row]), np.array([1]), np.array([True])),
        lambda: tree.predict(np.array([row])),
        lambda: process_bundle(tree, Bundle([Sample(row, label=1)], 1)),
        lambda: process_bundle(tree, Bundle([cast_later], 1)),
        lambda: load_csv(path, CsvSchema(features=["a", "b", "c"], label="y")),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isinf(Sample(row).features[1])
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


def test_largest_f32_features_are_finite_in_every_attribute():
    # 54 of them overflow an f32 sum, not the f64 one the check takes
    big = float(np.finfo(np.float32).max)
    tree = Tree(small_params(dims=54))
    tree._split(0, 7, 0.0)
    for sign, leaf in ((1.0, 2), (-1.0, 1)):
        row = [sign * big] * 54
        assert tree.sort_to_leaf(row) == leaf
        assert tree.infer(row) == 0
        assert tree.train(Sample(row, label=1)) == 0
    assert tree.view().class_counts[[1, 2]].sum(axis=1).tolist() == [1, 1]


# ---------------------------------------------------------------- inference


def test_infer_defaults_and_ties():
    tree = Tree(small_params(classes=3))
    assert tree.infer([0.0, 0.0]) == 0  # empty leaf
    tree = reloaded(tree, 0, class_counts=[3, 7, 0])
    assert tree.infer([0.0, 0.0]) == 1  # majority
    tree = reloaded(tree, 0, class_counts=[5, 5, 2])
    assert tree.infer([0.0, 0.0]) == 0  # tie toward lowest index


def test_infer_does_not_mutate():
    tree = Tree(small_params())
    for i in range(30):
        tree.train(Sample([i * 0.1, -i * 0.1], i % 2))
    before = serialize(tree)
    for i in range(50):
        tree.infer([i * 0.07, 0.5])
        tree.sort_to_leaf([0.1, 0.2])
    assert same_bytes(serialize(tree), before)


def assert_answers_current(tree, X):
    """Per-row infer() equals predict(), which reads the counts, and the leaves' majority class."""
    answers = [tree.infer(x) for x in X]
    assert answers == tree.predict(X).tolist()
    counts = tree.view().class_counts
    assert answers == [int(counts[tree.sort_to_leaf(x)].argmax()) for x in X]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cached_answers_follow_every_writer(data):
    # every step is followed by infer() on rows that fill the answer cache,
    # so a writer that fails to invalidate shows as a stale answer later
    params = Hyperparams(
        dims=2, classes=3, tau=0.5,
        n_min=data.draw(st.sampled_from([1, 5, 20]), label="n_min"),
        max_nodes=data.draw(st.sampled_from([1, 3, 7, 31]), label="max_nodes"),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    tree = Tree(params)
    steps = st.sampled_from(["learn", "bundle", "train", "reload", "assign", "add"])
    for step in data.draw(st.lists(steps, min_size=1, max_size=10), label="steps"):
        # classes in overlapping bands along both attributes, so leaves mix
        # classes and split until the arena fills
        n = int(rng.integers(1, 120))
        labels = rng.integers(0, 3, n)
        X = (labels[:, None] + rng.uniform(-0.8, 0.8, (n, 2))).astype(np.float32)
        train = rng.random(n) < 0.8
        leaves = tree.leaf_indices()
        leaf = leaves[int(rng.integers(len(leaves)))]
        if step == "learn":
            tree.learn(X, labels, train)
        elif step == "bundle":
            samples = [Sample(x, int(y), bool(t)) for x, y, t in zip(X, labels, train)]
            process_bundle(tree, Bundle(samples, n))
        elif step == "train":
            for x, y in zip(X[:10], labels[:10]):
                tree.train(Sample(x, int(y)))
        elif step == "reload":
            tree = deserialize(serialize(tree))
        elif step == "assign":
            # a fresh leaf's statistics with random counts, loaded from an edited snapshot
            tree = reloaded(tree, leaf, class_counts=rng.integers(0, 50, 3), sketch_estimates=0,
                            since_last_attempt=0)
        else:
            counts = tree.view().class_counts[leaf].copy()
            counts[int(rng.integers(3))] += int(rng.integers(1, 30))
            tree = reloaded(tree, leaf, class_counts=counts)
        # the step's rows, the thresholds and +-0.0 on either attribute
        view = tree.view()
        cuts = view.split_value[view.kind == 1]
        grid = np.concatenate([cuts, np.float32([0.0, -0.0])])
        probes = np.concatenate([X, rng.choice(grid, size=(20, 2))])
        assert_answers_current(tree, probes)


def test_read_only_queries_keep_the_cached_answer():
    # two overlapping classes: the leaf has a split to weigh, but 40
    # samples leave the Hoeffding bound far above any gain, so the
    # attempt is rejected
    tree = Tree(small_params(classes=3, n_min=1_000))
    rng = np.random.default_rng(0)
    for i in range(40):
        tree.train(Sample(rng.normal(size=2), i % 3 % 2))
    answer = tree.infer(np.zeros(2))
    view = tree.view()
    assert view.class_counts[0].tolist() == [27, 13, 0]
    assert view.sketch_estimates[0, 1].min() < 0.5 < view.sketch_estimates[0, 1].max()
    assert tree.attempt_split(0) is None and tree.node_count == 1
    assert tree._pool.answer[0] == answer
    # a writer still drops it
    tree.learn(np.zeros((30, 2), dtype=np.float32), np.full(30, 2), np.ones(30, dtype=bool))
    assert tree._pool.answer[0] == -1
    assert tree.infer(np.zeros(2)) == 2


# ---------------------------------------------------------------- view


def view_tree():
    """A D=3 K=5 tree of 7 nodes, full, so that some of its leaves are frozen."""
    tree = Tree(Hyperparams(dims=3, classes=5, n_min=50, tau=0.1, max_nodes=7))
    for s in generate_clusters(DatasetSpec(5, 3, 6000, 0.3, seed=3)):
        tree.train(s)
    view = tree.view()
    assert tree.node_count == 7 and view.frozen.any()
    return tree


def test_view_is_a_read_only_copy():
    tree = view_tree()
    before = bytes(serialize(tree))
    view = tree.view()
    for name, array in zip(view._fields, view):
        assert len(array) == tree.node_count and not array.flags.writeable, name
        assert not np.shares_memory(array, tree._pool.array), name
        assert not np.shares_memory(array, tree._pool.since), name
        with pytest.raises(ValueError, match="read-only"):
            array[-1] = 1
    assert same_bytes(serialize(tree), before)


def test_view_agrees_with_the_snapshot_and_its_load():
    tree = view_tree()
    buf = serialize(tree)
    written = _records(buf, tree.params, tree.node_count)
    view, loaded = tree.view(), deserialize(buf).view()
    assert view.kind.any() and view.since_last_attempt.any()
    for name, mine, theirs in zip(view._fields, view, loaded):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name
        assert np.array_equal(mine, written[name]), name


def test_reading_a_view_keeps_the_cached_answers():
    tree = view_tree()
    X = np.random.default_rng(4).uniform(-3, 3, (200, 3)).astype(np.float32)
    answers = [tree.infer(x) for x in X]
    cached = list(tree._pool.answer)
    assert sum(a >= 0 for a in cached) > 3
    view = tree.view()
    assert [int(view.class_counts[tree.sort_to_leaf(x)].argmax()) for x in X] == answers
    assert tree._pool.answer == cached


def test_a_view_taken_before_a_split_is_kept_as_it_was():
    tree = Tree(small_params(n_min=50))
    stream = two_class_stream(400, np.random.default_rng(11))
    for s in stream[:40]:
        tree.train(s)
    view = tree.view()
    kept = [array.copy() for array in view]
    for s in stream[40:]:
        tree.train(s)
    assert tree.node_count > 1 and len(tree._pool.array) > 1
    before = bytes(serialize(tree))
    for name, array, copy in zip(view._fields, view, kept):
        assert array.tobytes() == copy.tobytes(), name
    assert view.class_counts.sum() == 40 and view.kind.tolist() == [0]
    assert same_bytes(serialize(tree), before)


# ---------------------------------------------------------------- training


def test_train_returns_pre_update_prediction():
    tree = Tree(small_params(classes=4))
    assert tree.train(Sample([0.0, 0.0], label=2)) == 0
    view = tree.view()
    assert view.class_counts[0].tolist() == [0, 0, 1, 0]
    assert view.since_last_attempt[0] == 1
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
    assert tree.view().since_last_attempt[0] < 50  # attempts did run


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
    view = tree.view()
    assert view.kind.tolist() == [1, 0, 0]
    assert view.split_attr[tree.root] == 0
    assert -1.5 < view.split_value[tree.root] < 1.5  # between the class centers
    assert (view.left[tree.root], view.right[tree.root]) == (1, 2)


def test_grace_period_counter_resets_after_attempt():
    # a pure stream can never split, but attempts still run and reset
    tree = Tree(small_params(n_min=100))
    rng = np.random.default_rng(5)
    for _ in range(100):
        tree.train(Sample(rng.normal(size=2), label=1))
    assert tree.node_count == 1
    assert tree.view().since_last_attempt[0] == 0


# ---------------------------------------------------------------- splits


def test_attempt_split_requires_leaf():
    tree = Tree(small_params())
    tree._split(0, 0, 0.0)
    with pytest.raises(ValueError):
        tree.attempt_split(0)


def seven_of_eight_nodes():
    """A tree of 7 nodes, 4 of them leaves, whose records hold 8 slots."""
    tree = Tree(small_params(max_nodes=8))
    for leaf in (0, 1, 2):
        tree._split(leaf, 0, 0.0)
    assert tree.node_count == 7 and len(tree._pool.array) == 8
    return tree


@pytest.mark.parametrize("index", [99, 7, -1, -8])
def test_attempt_split_refuses_indices_outside_the_nodes(index):
    # -1 used to alias the records' last slot: on this full arena it froze
    # unused slot 7, and 99 raised an IndexError
    tree = seven_of_eight_nodes()
    array = tree._pool.array.copy()
    with pytest.raises(ValueError, match=rf"node {index} is not an index in \[0, 7\)"):
        tree.attempt_split(index)
    assert tree._pool.array.tobytes() == array.tobytes()
    assert tree.attempt_split(np.int64(3)) is None and tree.view().frozen[3]


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
    # drive a separable two-class mixture into the right child
    for i in range(400):
        label = i % 2
        tree.train(Sample([1.0 + label * 1.0 + rng.normal(0, 0.05)], label))
    assert tree.node_count == 3
    view = tree.view()
    frozen = [
        view.frozen[i]
        for i in tree.leaf_indices()
        if view.class_counts[i].sum() > 0
    ]
    assert any(frozen)


def test_frozen_leaf_keeps_absorbing():
    tree = Tree(small_params(max_nodes=1, n_min=10))
    rng = np.random.default_rng(4)
    for s in two_class_stream(100, rng):
        tree.train(s)
    view = tree.view()
    assert tree.node_count == 1
    assert view.frozen[0]
    assert view.class_counts[0].sum() == 100


# ---------------------------------------------------------------- gain


def test_entropy_gain_perfect_partition_is_one_bit():
    # the kernel's gain of a parent of 100 + 100 split into 100 + 0 and 0 + 100
    one = np.array([100.0])
    gain = _partition_gain(np.array([100.0, 100.0]), 200.0, one, 100.0, one, 100.0)
    assert float(gain) == pytest.approx(1.0)


def test_entropy_gain_replicated_distribution_is_zero():
    half = np.array([25.0, 25.0])
    gain = _partition_gain(np.array([50.0, 50.0]), 100.0, half, 50.0, half, 50.0)
    assert float(gain) == pytest.approx(0.0, abs=1e-12)


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


def dims_two_stats():
    stats = LeafStats(small_params())
    stats.absorb(0, np.array([0.1, 0.2], dtype=np.float32))
    stats.absorb(1, np.array([0.5, 0.6], dtype=np.float32))
    return stats


@pytest.mark.parametrize("call,message", [
    (lambda stats: split_gain(stats, 5, 0.3), "attribute 5 is not an index in [0, 2)"),
    (lambda stats: split_gain(stats, -1, 0.3), "attribute -1 is not an index in [0, 2)"),
    (lambda stats: split_gain(stats, True, 0.3), "attribute True is not an index in [0, 2)"),
    (lambda stats: split_candidates(stats, 2, 10), "attribute 2 is not an index in [0, 2)"),
    (lambda stats: stats.cdf(0, 7, 0.3), "attribute 7 is not an index in [0, 2)"),
    (lambda stats: stats.cdf(9, 0, 0.3), "class 9 is not an index in [0, 2)"),
    (lambda stats: stats.cdf(-1, 0, 0.3), "class -1 is not an index in [0, 2)"),
    (lambda stats: stats.cdf(0, 0, math.nan), "cannot read a CDF at value nan"),
    (lambda stats: split_gain(stats, 0, math.nan), "cannot split at value nan"),
])
def test_per_attribute_reads_refuse_what_is_not_an_index_or_a_number(call, message):
    # at dims=2 these raised an IndexError, scored the last attribute (-1),
    # or read the first target and a gain of 0.0 at NaN
    with pytest.raises(ValueError) as caught:
        call(dims_two_stats())
    assert str(caught.value) == message


def test_per_attribute_reads_take_numpy_indices():
    stats = dims_two_stats()
    assert split_gain(stats, np.int64(1), 0.3) == split_gain(stats, 1, 0.3)
    assert stats.cdf(np.int32(1), np.uint8(1), 0.3) == stats.cdf(1, 1, 0.3)


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
        if leaf not in tree.leaf_indices():  # split consumed this leaf
            del shadow[leaf]
    totals = tree.view().class_counts.sum(axis=1)
    for idx in tree.leaf_indices():
        assert totals[idx] == shadow.get(idx, 0)


def structure_counts(tree):
    view = tree.view()
    stack, leaves, internals = [tree.root], 0, 0
    while stack:
        idx = stack.pop()
        if not view.kind[idx]:
            leaves += 1
        else:
            internals += 1
            stack.extend((view.left[idx], view.right[idx]))
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
    assert same_bytes(serialize(trees[0]), serialize(trees[1]))


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
    gain, value = _best_splits(stats.class_counts, stats.sketch_estimates, stats._targets, n_pt)
    want_gain, want_value = scalar_best_splits(stats, n_pt)
    assert np.array_equal(gain, want_gain), (gain, want_gain)
    assert np.array_equal(value, want_value), (value, want_value)


def leaves_at_split_attempts(params, spec):
    """Copies of every leaf a split attempt evaluates while training on spec."""
    leaves = []

    class Recording(Tree):
        def attempt_split(self, leaf_idx):
            view = self.view()
            if not view.frozen[leaf_idx] and np.count_nonzero(view.class_counts[leaf_idx]) >= 2:
                copy = LeafStats(self.params)
                copy.class_counts[:] = view.class_counts[leaf_idx]
                copy.sketch_estimates[:] = view.sketch_estimates[leaf_idx]
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
    tree = reloaded(Tree(params), 0, class_counts=stats.class_counts,
                    sketch_estimates=stats.sketch_estimates)
    assert tree.attempt_split(0) == (0, 0.0)
    assert tree.view().split_attr[0] == 0 and tree.view().split_value[0] == 0.0


# knots a snapshot or a long stream may hold: signed zeros, the f32 extremes,
# infinities and subnormals of either sign
KERNEL_VALUES = np.float32([
    0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, 3.4e38, -3.4e38, 3.4028235e38,
    1e-45, -1e-45, 1.2e-38, -1e-40, 7e-39,
])


def kernel_rows(rng, attrs, classes, nq):
    """(attrs, classes, nq) sorted f32 knots; some classes repeat another's knots."""
    values = np.concatenate((KERNEL_VALUES, rng.normal(size=8).astype(np.float32)))
    knots = np.sort(rng.choice(values, size=(attrs, classes, nq)), axis=-1)
    for c in range(1, classes):
        if rng.random() < 0.3:
            knots[:, c] = knots[:, int(rng.integers(0, c))]
    return knots


@settings(max_examples=150, deadline=None)
@given(
    attrs=st.integers(1, 6),
    classes=st.integers(1, 8),
    nq=st.sampled_from([1, 2, 5, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_composite_key_order_is_the_stable_argsort(attrs, classes, nq, seed):
    values = kernel_rows(np.random.default_rng(seed), attrs, classes, nq).reshape(attrs, -1)
    want = np.argsort(values, axis=1, kind="stable")
    assert np.array_equal(_stable_order(values), want)
    # the order the kernel took before, over the knots as f64
    assert np.array_equal(want, np.argsort(values.astype(np.float64), axis=1, kind="stable"))


@settings(max_examples=150, deadline=None)
@given(
    curves=st.integers(1, 12),
    nq=st.sampled_from([1, 2, 5, 16]),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_knot_above_counts_equal_the_comparison_counts(curves, nq, seed):
    rng = np.random.default_rng(seed)
    knots = kernel_rows(rng, curves, 1, nq)[:, 0]
    f32 = np.concatenate((KERNEL_VALUES, knots.ravel())).astype(np.float64)
    # thresholds between f32 values, past the f32 range, and NaN
    between = np.concatenate((
        np.nextafter(f32, np.inf), np.nextafter(f32, -np.inf),
        [1 / 3, -1 / 3, 1e39, -1e39, 5e-46, -5e-46, 1e-300, math.nan],
    ))
    for thresholds in (f32, between):
        values = rng.choice(thresholds, size=(curves, 7))
        want = np.count_nonzero(knots[:, None, :] <= values[..., None], axis=-1)
        assert np.array_equal(count_at_or_below(knots[:, None, :], values), want)
        # f64 rows, as the merged curves' positions are
        rows = knots.astype(np.float64)
        assert np.array_equal(count_at_or_below(rows[:, None, :], values), want)


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
