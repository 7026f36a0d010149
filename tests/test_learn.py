"""The segment kernel, Tree.learn, against the per-sample loop it replaced.

The reference below is the per-sample infer-then-train loop that preceded
the kernel (LeafStats with arrays of its own, Tree.train routing, predicting,
absorbing and attempting one sample at a time), kept verbatim apart from
the class names. Split evaluation is shared, since it is not what changed.
The kernel must give the same answers and, byte for byte, the same
snapshots.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import streamtree.tree as tree_module
from streamtree.datasets import DatasetSpec, generate_clusters
from streamtree.harness import Bundle, process_bundle, run_prequential
from streamtree.serialize import deserialize, serialize
from streamtree.sketch import _signum_steps, quantile_targets, signum_update
from streamtree.tree import Hyperparams, Sample, Tree, _best_splits, hoeffding_bound

# ------------------------------------------------------------ reference


class ReferenceLeafStats:
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


class ReferenceNode:
    """One arena slot: a leaf (stats set) or an internal split (children set)."""

    __slots__ = ("split_attr", "split_value", "left", "right", "stats")

    def __init__(self, stats=None) -> None:
        self.split_attr = 0
        self.split_value = 0.0
        self.left = 0
        self.right = 0
        self.stats = stats


class ReferenceTree:
    def __init__(self, params: Hyperparams) -> None:
        self.params = params
        self.arena = [ReferenceNode(ReferenceLeafStats(params))]
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

    def attempt_split(self, leaf_idx: int):
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
        self.arena.append(ReferenceNode(ReferenceLeafStats(self.params)))
        self.arena.append(ReferenceNode(ReferenceLeafStats(self.params)))


def reference_run(params, stream):
    """The reference's answers, one train() or infer() call per sample, and its snapshot."""
    ref = ReferenceTree(params)
    answers = [ref.train(s) if s.train else ref.infer(s.features) for s in stream]
    return answers, reference_snapshot(ref), ref


def reference_snapshot(ref: ReferenceTree) -> bytes:
    """serialize() bytes of a Tree that holds the reference tree's state."""
    tree = Tree(ref.params)
    # replay the splits in the order that gave the children their indices
    for _, i in sorted((n.left, i) for i, n in enumerate(ref.arena) if n.stats is None):
        node = ref.arena[i]
        tree._split(i, node.split_attr, node.split_value)
    for i, node in enumerate(ref.arena):
        if node.stats is not None:
            stats = tree.arena[i].stats
            stats.class_counts[:] = node.stats.class_counts
            stats.sketch_estimates[:] = node.stats.sketch_estimates
            stats.since_last_attempt = node.stats.since_last_attempt
            stats.frozen = node.stats.frozen
    return serialize(tree)


def kernel_run(params, stream, chunk):
    """Answers and snapshot of the kernel fed the stream in bundles of chunk samples."""
    tree = Tree(params)
    answers = []
    for start in range(0, len(stream), chunk):
        answers += process_bundle(tree, Bundle(stream[start : start + chunk], chunk))
    return answers, serialize(tree), tree


def assert_kernel_matches_reference(params, stream, chunks):
    """Run the reference once and the kernel at each chunk size; returns the reference's answers and tree."""
    want, want_bytes, ref = reference_run(params, stream)
    for chunk in chunks:
        got, got_bytes, tree = kernel_run(params, stream, chunk)
        assert got == want, f"answers differ at chunk size {chunk}"
        assert got_bytes == want_bytes, f"snapshots differ at chunk size {chunk}"
    return want, ref


def frozen_leaves(ref):
    return sum(n.stats is not None and n.stats.frozen for n in ref.arena)


# -------------------------------------------------------------- corpora


@pytest.mark.parametrize("seed", range(20))
def test_acceptance_stream_matches_reference(seed):
    # the acceptance suite's synthetic benchmark (criteria 4 and 9)
    stream = generate_clusters(DatasetSpec(clusters=5, dims=3, samples=40_000,
                                           cluster_spread=0.04, center_box=2.0, seed=seed))
    params = Hyperparams(dims=3, classes=5, tau=0.1)
    want, ref = assert_kernel_matches_reference(params, stream, [5_000])
    assert ref.node_count > 1
    # run_prequential is the same kernel
    want_hits = sum(a == s.label for a, s in zip(want[:5_000], stream))
    assert run_prequential(Tree(params), stream[:5_000], window=5_000).correct == want_hits


def criterion_3_corpus():
    """The 100 fuzzed mixed-flag streams of acceptance criterion 3."""
    rng = np.random.default_rng(300)
    for _ in range(100):
        n = int(rng.integers(1, 2001))
        dims = int(rng.integers(1, 5))
        classes = int(rng.integers(2, 6))
        params = Hyperparams(
            dims=dims, classes=classes,
            n_min=int(rng.integers(20, 200)),
            tau=float(rng.uniform(0.02, 0.2)),
            max_nodes=int(rng.choice([1, 3, 15, 63])),
        )
        train_prob = float(rng.uniform(0.3, 1.0))
        stream = [
            Sample(rng.normal(0, 2, dims).astype(np.float32),
                   int(rng.integers(0, classes)),
                   bool(rng.random() < train_prob))
            for _ in range(n)
        ]
        yield params, stream


def test_criterion_3_corpus_matches_reference():
    frozen = 0
    for params, stream in criterion_3_corpus():
        _, ref = assert_kernel_matches_reference(params, stream, [len(stream), 37])
        frozen += frozen_leaves(ref)
    assert frozen > 0


@lru_cache(maxsize=1)
def criterion_8_stream():
    """Acceptance criterion 8's drifting, label-noised stream."""
    rng = np.random.default_rng(800)
    out = []
    centers = rng.uniform(-4, 4, (3, 3))
    for i in range(100_000):
        if i % 10_000 == 0 and i:
            centers = rng.uniform(-4, 4, (3, 3))
        label = int(rng.integers(0, 3))
        x = centers[label] + rng.normal(0, 0.3, 3)
        if rng.random() < 0.1:
            label = int(rng.integers(0, 3))
        out.append(Sample(x.astype(np.float32), label))
    return out


@pytest.mark.parametrize("max_nodes", [1, 3, 7, 100])
def test_criterion_8_corpus_matches_reference(max_nodes):
    params = Hyperparams(dims=3, classes=3, n_min=50, tau=0.1, max_nodes=max_nodes)
    _, ref = assert_kernel_matches_reference(params, criterion_8_stream(), [1_000])
    assert frozen_leaves(ref) > 0


@pytest.mark.parametrize("max_nodes", [2047, 15])
def test_covertype_shaped_stream_matches_reference(max_nodes):
    stream = generate_clusters(DatasetSpec(clusters=7, dims=54, samples=6_000,
                                           cluster_spread=0.5, seed=1))
    params = Hyperparams(dims=54, classes=7, tau=0.2, n_min=100, max_nodes=max_nodes)
    _, ref = assert_kernel_matches_reference(params, stream, [1_000, 5_000])
    assert ref.node_count > 1


def clusters_with_flags(share, seed=7, samples=8_000):
    rng = np.random.default_rng(seed)
    stream = generate_clusters(DatasetSpec(clusters=5, dims=3, samples=samples,
                                           cluster_spread=0.3, seed=seed))
    if share == 1.0:
        return stream
    return [Sample(s.features, s.label, bool(rng.random() < share)) for s in stream]


@pytest.mark.parametrize("max_nodes", [3, 7])
def test_frozen_leaves_match_reference_at_every_chunk_size(max_nodes):
    params = Hyperparams(dims=3, classes=5, tau=0.1, n_min=100, max_nodes=max_nodes)
    _, ref = assert_kernel_matches_reference(params, clusters_with_flags(1.0),
                                             [1, 37, 1_000, 5_000])
    assert ref.node_count == max_nodes and frozen_leaves(ref) > 0


@pytest.mark.parametrize("share", [0.1, 0.9])
@pytest.mark.parametrize("max_nodes", [2047, 7])
def test_train_masks_match_reference(share, max_nodes):
    params = Hyperparams(dims=3, classes=5, tau=0.1, n_min=50, max_nodes=max_nodes)
    assert_kernel_matches_reference(params, clusters_with_flags(share), [37, 1_000])


feature_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-10.0, 10.0, width=32),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference_property(data):
    dims = data.draw(st.integers(1, 4), label="dims")
    classes = data.draw(st.integers(2, 6), label="classes")
    params = Hyperparams(
        dims=dims,
        classes=classes,
        n_min=data.draw(st.integers(1, 30), label="n_min"),
        max_nodes=data.draw(st.sampled_from([1, 3, 7, 63]), label="max_nodes"),
        tau=data.draw(st.sampled_from([0.05, 1.0]), label="tau"),
        lam=data.draw(st.sampled_from([0.01, 0.5]), label="lam"),
    )
    n = data.draw(st.integers(1, 300), label="n")
    features = data.draw(arrays(np.float32, (n, dims), elements=feature_values),
                         label="features")
    labels = data.draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n),
                       label="labels")
    share = data.draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]), label="train share")
    flags = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n), label="flags")
    chunk = data.draw(st.integers(1, n), label="chunk")
    stream = [Sample(x, y, f < share) for x, y, f in zip(features, labels, flags)]
    want, want_bytes, _ = reference_run(params, stream)
    got, got_bytes, _ = kernel_run(params, stream, chunk)
    assert got == want
    assert got_bytes == want_bytes


def test_counter_past_n_min_attempts_at_the_next_train_row():
    # only a snapshot can put such a count on a non-frozen leaf; the
    # per-sample loop attempts at that leaf's next train row
    params = Hyperparams(dims=3, classes=5, tau=0.1, n_min=50)
    stream = clusters_with_flags(1.0, samples=400)
    ref, tree = ReferenceTree(params), Tree(params)
    for s in stream[:40]:
        ref.train(s)
        tree.train(s)
    ref.arena[0].stats.since_last_attempt = tree.arena[0].stats.since_last_attempt = 70
    want = [ref.train(s) for s in stream[40:]]
    assert process_bundle(tree, Bundle(stream[40:], 360)) == want
    assert serialize(tree) == reference_snapshot(ref)


# ----------------------------------------------------------------- waves


def test_one_signum_update_per_wave(monkeypatch):
    # 30 rows at one leaf, classes in turn: each class row takes its 10
    # samples one wave at a time, so 10 waves (the first seeds 3 rows)
    calls = []

    def counting(estimates, x, up, down):
        calls.append(len(estimates))
        signum_update(estimates, x, up, down)

    monkeypatch.setattr(tree_module, "signum_update", counting)
    tree = Tree(Hyperparams(dims=2, classes=3, n_min=1_000))
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 2)).astype(np.float32)
    labels = np.arange(30) % 3
    tree.learn(X, labels, np.ones(30, dtype=bool))
    assert calls == [3] * 10


def test_learn_answers_infer_rows_without_training():
    params = Hyperparams(dims=1, classes=2, n_min=1_000)
    tree = Tree(params)
    X = np.zeros((5, 1), dtype=np.float32)
    labels = np.array([1, 1, 0, 1, 0])
    train = np.array([True, False, True, True, False])
    # majority before each row: empty, {1}, {1}, {0, 1} tie -> 0, {0, 1, 1}
    assert tree.learn(X, labels, train).tolist() == [0, 1, 1, 0, 1]
    assert tree.arena[0].stats.class_counts.tolist() == [1, 2]


# -------------------------------------------------------------- routing


def split_tree(nodes: int, seed: int = 0) -> Tree:
    """A D=3 tree of nodes nodes, each split at a median of the rows at a random leaf."""
    rng = np.random.default_rng(seed)
    tree = Tree(Hyperparams(dims=3, classes=5, max_nodes=nodes))
    X = rng.normal(size=(4_000, 3)).astype(np.float32)
    leaf = np.zeros(len(X), dtype=np.intp)
    while tree.node_count + 2 <= nodes:
        target = int(leaf[rng.integers(len(X))])
        attr = int(rng.integers(3))
        at = leaf == target
        value = float(np.median(X[at, attr]))
        tree._split(target, attr, value)
        node = tree.arena[target]
        leaf[at] = np.where(X[at, attr] <= node.split_value, node.left, node.right)
    return tree


def test_lockstep_routing_matches_per_row_descent_on_a_large_tree():
    # rows at every threshold, and at both signed zeros, as well as spread rows
    tree = split_tree(1_023)
    thresholds = [n.split_value for n in tree.arena if n.stats is None]
    rng = np.random.default_rng(1)
    X = rng.normal(size=(600, 3)).astype(np.float32)
    X[:300] = rng.choice(np.array(thresholds + [0.0, -0.0], dtype=np.float32), size=(300, 3))
    want = [tree.sort_to_leaf(x) for x in X]
    assert len(set(want)) > 100
    for routed in (tree, deserialize(serialize(tree))):
        assert routed._route(X).tolist() == want
        infer_only = routed.learn(X, np.zeros(len(X), dtype=np.intp), np.zeros(len(X), dtype=bool))
        assert infer_only.tolist() == [tree.infer(x) for x in X]


def test_loaded_tree_keeps_learning_like_the_reference():
    # a loaded tree routes through a routing table built from its arena;
    # the header holds delta, lam and tau as f32, so these are f32 values
    params = Hyperparams(dims=3, classes=5, delta=2**-10, lam=2**-7, tau=0.125,
                         n_min=50, max_nodes=63)
    rng = np.random.default_rng(0)
    stream = [Sample(s.features, s.label, bool(rng.random() < 0.7)) for s in generate_clusters(
        DatasetSpec(clusters=5, dims=3, samples=20_000, cluster_spread=0.04, seed=0))]
    ref, tree = ReferenceTree(params), Tree(params)
    for s in stream[:10_000]:
        ref.train(s) if s.train else ref.infer(s.features)
    process_bundle(tree, Bundle(stream[:10_000], 10_000))
    tree = deserialize(serialize(tree))
    loaded_nodes = tree.node_count
    want = [ref.train(s) if s.train else ref.infer(s.features) for s in stream[10_000:]]
    got = []
    for start in range(10_000, len(stream), 128):
        got += process_bundle(tree, Bundle(stream[start : start + 128], 128))
    assert got == want
    assert serialize(tree) == reference_snapshot(ref)
    # splits before and after the reload
    assert 1 < loaded_nodes < tree.node_count


# ------------------------------------------------------------ validation


def pretrained_tree():
    tree = Tree(Hyperparams(dims=3, classes=5, tau=0.1, n_min=50, max_nodes=15))
    run_prequential(tree, clusters_with_flags(1.0, samples=2_000), window=500)
    assert tree.node_count > 1
    return tree


def bad_sample(kind: str) -> Sample:
    x = np.array([0.1, 0.2, 0.3], dtype=np.float32)
    if kind == "shape":
        return Sample(x[:2], 1)
    if kind == "nan":
        return Sample(np.array([0.1, np.nan, 0.3]), 1)
    if kind == "inf":
        return Sample(np.array([0.1, 0.2, -np.inf]), 1)
    if kind == "label":
        return Sample(x, 5)
    if kind == "negative label":
        return Sample(x, -1)
    if kind == "float label":
        return Sample(x, 1.5)
    if kind == "flag":
        return Sample(x, 1, train="yes")
    raise AssertionError(kind)


BAD_KINDS = ["shape", "nan", "inf", "label", "negative label", "float label", "flag"]


@pytest.mark.parametrize("kind", BAD_KINDS)
def test_bad_bundle_sample_leaves_tree_byte_identical(kind):
    tree = pretrained_tree()
    before = serialize(tree)
    bundle = Bundle(clusters_with_flags(0.5, seed=9, samples=100), 128)
    # after construction, which already rejects mixed feature counts
    bundle.samples[57] = bad_sample(kind)
    with pytest.raises(ValueError, match="sample 57"):
        process_bundle(tree, bundle)
    assert serialize(tree) == before


@pytest.mark.parametrize("kind", BAD_KINDS + ["not train"])
def test_bad_prequential_sample_leaves_tree_byte_identical(kind):
    tree = pretrained_tree()
    before = serialize(tree)
    stream = clusters_with_flags(1.0, seed=9, samples=100)
    if kind == "not train":
        stream[57] = Sample(stream[57].features, 1, train=False)
    else:
        stream[57] = bad_sample(kind)
    with pytest.raises(ValueError, match="sample 57"):
        run_prequential(tree, stream)
    assert serialize(tree) == before


def test_infer_only_samples_may_carry_any_label():
    tree = pretrained_tree()
    x = np.zeros(3, dtype=np.float32)
    out = process_bundle(tree, Bundle([Sample(x, 99, False), Sample(x, None, False)], 2))
    assert out == [tree.infer(x)] * 2


def test_learn_rejects_malformed_arrays():
    tree = pretrained_tree()
    before = serialize(tree)
    X = np.zeros((4, 3), dtype=np.float32)
    ok = np.ones(4, dtype=bool)
    y = np.zeros(4, dtype=np.int64)
    for args in ((X[:, :2], y, ok), (X, y[:3], ok), (X, y, ok[:3]),
                 (X, y, ok.astype(int)), (X, y.astype(float), ok)):
        with pytest.raises(ValueError):
            tree.learn(*args)
    X[2, 1] = np.inf
    with pytest.raises(ValueError, match="sample 2"):
        tree.learn(X, y, ok)
    assert serialize(tree) == before
