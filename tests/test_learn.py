"""The segment kernel, Tree.learn, against the per-sample loop it replaced.

The reference below is the per-sample infer-then-train loop that preceded
the kernel (LeafStats with arrays of its own, Tree.train routing, predicting,
absorbing and attempting one sample at a time), kept verbatim apart from
the class names and the name of its node list, nodes. Split evaluation is
shared, since it is not what changed. The kernel must give the same
answers and, byte for byte, the same snapshots.
"""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from buffers import same_bytes
from leaves import reloaded, set_leaf

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
        self.nodes = [ReferenceNode(ReferenceLeafStats(params))]
        self.root = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)

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
        node = self.nodes[idx]
        while node.stats is None:
            idx = node.left if x[node.split_attr] <= node.split_value else node.right
            node = self.nodes[idx]
        return idx

    def sort_to_leaf(self, features) -> int:
        """Index of the leaf this feature vector routes to. No mutation."""
        return self._descend(self._check_features(features))

    def infer(self, features) -> int:
        """Majority class of the routed leaf. No mutation."""
        return self.nodes[self.sort_to_leaf(features)].stats.majority()

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
        stats = self.nodes[leaf_idx].stats
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
        node = self.nodes[leaf_idx]
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
        best_gain, best_value = _best_splits(
            stats.class_counts, stats.sketch_estimates, stats._targets, params.n_pt
        )
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
        node = self.nodes[leaf_idx]
        node.stats = None
        node.split_attr = attr
        node.split_value = float(np.float32(value))
        node.left = len(self.nodes)
        node.right = len(self.nodes) + 1
        self.nodes.append(ReferenceNode(ReferenceLeafStats(self.params)))
        self.nodes.append(ReferenceNode(ReferenceLeafStats(self.params)))


def reference_run(params, stream):
    """The reference's answers, one train() or infer() call per sample, and its snapshot."""
    ref = ReferenceTree(params)
    answers = [ref.train(s) if s.train else ref.infer(s.features) for s in stream]
    return answers, reference_snapshot(ref), ref


def reference_snapshot(ref: ReferenceTree) -> bytes:
    """serialize() bytes of a Tree that holds the reference tree's state."""
    tree = Tree(ref.params)
    # replay the splits in the order that gave the children their indices
    for _, i in sorted((n.left, i) for i, n in enumerate(ref.nodes) if n.stats is None):
        node = ref.nodes[i]
        tree._split(i, node.split_attr, node.split_value)
    for i, node in enumerate(ref.nodes):
        if node.stats is not None:
            # the reference's counter may pass the snapshot's u32
            set_leaf(tree, i, class_counts=node.stats.class_counts,
                     sketch_estimates=node.stats.sketch_estimates,
                     since_last_attempt=node.stats.since_last_attempt, frozen=node.stats.frozen)
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
        assert same_bytes(got_bytes, want_bytes), f"snapshots differ at chunk size {chunk}"
    return want, ref


def frozen_leaves(ref):
    return sum(n.stats is not None and n.stats.frozen for n in ref.nodes)


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
    assert same_bytes(got_bytes, want_bytes)
    # train() takes its one-row case without the kernel
    tree = Tree(params)
    assert [tree.train(s) if s.train else tree.infer(s.features) for s in stream] == want
    assert same_bytes(serialize(tree), want_bytes)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_single_class_runs_match_reference_after_every_chunk(data):
    # labels come in runs of one or two classes, and each class keeps to its
    # own region, so leaves see one class for long stretches and most of
    # their attempts cannot act, while two-class runs make splits that can
    # fill the arena while other leaves go on attempting
    dims = data.draw(st.integers(1, 3), label="dims")
    classes = data.draw(st.integers(2, 4), label="classes")
    params = Hyperparams(
        dims=dims,
        classes=classes,
        n_min=data.draw(st.integers(1, 30), label="n_min"),
        max_nodes=data.draw(st.sampled_from([1, 3, 7, 63]), label="max_nodes"),
        tau=data.draw(st.sampled_from([0.05, 1.0]), label="tau"),
    )
    pair = st.lists(st.integers(0, classes - 1), min_size=1, max_size=2)
    runs = data.draw(st.lists(st.tuples(pair, st.integers(1, 80)), min_size=1, max_size=8),
                     label="runs")
    n = sum(length for _, length in runs)
    picks = iter(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="picks"))
    labels = [run[-1] if next(picks) else run[0] for run, length in runs for _ in range(length)]
    noise = data.draw(arrays(np.float32, (n, dims), elements=st.floats(-0.25, 0.25, width=32)),
                      label="noise")
    share = data.draw(st.sampled_from([0.5, 0.9, 1.0]), label="train share")
    flags = data.draw(st.lists(st.floats(0, 1), min_size=n, max_size=n), label="flags")
    chunk = data.draw(st.integers(1, n), label="chunk")
    stream = [Sample(np.float32(y) + x, y, f < share) for x, y, f in zip(noise, labels, flags)]
    ref, tree = ReferenceTree(params), Tree(params)
    for start in range(0, n, chunk):
        part = stream[start : start + chunk]
        want = [ref.train(s) if s.train else ref.infer(s.features) for s in part]
        assert process_bundle(tree, Bundle(part, chunk)) == want
        assert same_bytes(serialize(tree), reference_snapshot(ref))


def test_one_class_stream_makes_no_split_attempt(monkeypatch):
    attempts = []
    attempt_split = Tree.attempt_split

    def counting(self, leaf_idx):
        attempts.append(leaf_idx)
        return attempt_split(self, leaf_idx)

    monkeypatch.setattr(Tree, "attempt_split", counting)
    params = Hyperparams(dims=2, classes=3, n_min=10)
    rng = np.random.default_rng(4)
    stream = [Sample(x, 1) for x in rng.normal(size=(1_000, 2)).astype(np.float32)]
    ref, tree = ReferenceTree(params), Tree(params)
    for start in range(0, len(stream), 37):
        part = stream[start : start + 37]
        assert process_bundle(tree, Bundle(part, 37)) == [ref.train(s) for s in part]
        since = ref.nodes[0].stats.since_last_attempt
        assert tree.view().since_last_attempt[0] == since == (start + len(part)) % 10
    assert attempts == []
    assert same_bytes(serialize(tree), reference_snapshot(ref))


@pytest.mark.parametrize("max_nodes", [3, 7])
def test_arena_filled_mid_chunk_freezes_every_leaf(max_nodes):
    # four classes in four regions: splits make one-class leaves until the
    # arena is full, and from then on every attempt freezes its leaf, at the
    # leaves a split re-routed rows to and, at 7 nodes, at the others too
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 4, 3_000)
    X = (labels[:, None] + rng.uniform(-0.25, 0.25, (3_000, 2))).astype(np.float32)
    params = Hyperparams(dims=2, classes=4, n_min=20, tau=1.0, max_nodes=max_nodes)
    stream = [Sample(x, int(y)) for x, y in zip(X, labels)]
    _, ref = assert_kernel_matches_reference(params, stream, [1_000, 3_000])
    leaves = [n.stats for n in ref.nodes if n.stats is not None]
    assert ref.node_count == max_nodes and all(stats.frozen for stats in leaves)
    if max_nodes == 7:
        assert sum(np.count_nonzero(stats.class_counts) == 1 for stats in leaves) == 3


# a leaf's stored count of samples since its last attempt, from its n_min
STORED_COUNTS = {
    "n_min-1": lambda n_min: n_min - 1,
    "n_min": lambda n_min: n_min,
    "3n_min+1": lambda n_min: 3 * n_min + 1,
    "2^32+5": lambda n_min: 2**32 + 5,
}


@pytest.mark.parametrize("stored", STORED_COUNTS)
@pytest.mark.parametrize("n_min", [1, 7, 50])
def test_counter_past_n_min_attempts_at_the_next_train_row(n_min, stored):
    # only a snapshot can put a count of n_min or more on a non-frozen
    # leaf; the per-sample loop attempts at that leaf's next train row,
    # and lone calls, small bundles and one bundle must wrap it alike. At
    # tau 1 the tree has split by row 400, so the counts sit on several
    # leaves, most of one class, whose attempts cannot act
    params = Hyperparams(dims=3, classes=5, tau=1.0, n_min=n_min)
    stream = generate_clusters(DatasetSpec(clusters=5, dims=3, samples=800,
                                           cluster_spread=0.04, center_box=2.0, seed=2))
    ref, lone, bundled, whole = ReferenceTree(params), Tree(params), Tree(params), Tree(params)
    for s in stream[:400]:
        for t in (ref, lone, bundled, whole):
            t.train(s)
    assert ref.node_count > 5
    count = STORED_COUNTS[stored](n_min)
    for node in ref.nodes:
        if node.stats is not None and not node.stats.frozen:
            node.stats.since_last_attempt = count
    # a count of 2^32 + 5 does not fit a snapshot, so it goes into the live records
    for t in (lone, bundled, whole):
        view = t.view()
        set_leaf(t, [i for i in t.leaf_indices() if not view.frozen[i]], since_last_attempt=count)
    rest = stream[400:]
    want = [ref.train(s) for s in rest]
    assert [lone.train(s) for s in rest] == want
    got = []
    for start in range(0, len(rest), 37):
        got += process_bundle(bundled, Bundle(rest[start : start + 37], 37))
    assert got == want
    assert process_bundle(whole, Bundle(rest, len(rest))) == want
    snapshot = reference_snapshot(ref)
    assert same_bytes(serialize(lone), serialize(bundled), serialize(whole), snapshot)


@pytest.mark.parametrize("max_nodes", [15, 2047])
@pytest.mark.parametrize("below", [1, 2])
@pytest.mark.parametrize("n_min", [2, 7, 50])
def test_attempts_one_and_two_rows_short_of_n_min(n_min, below, max_nodes):
    # every non-frozen leaf's count is set to n_min - below, then 8-row
    # bundles of one or two train rows each bring a leaf 1 or 2 rows: a
    # leaf attempts when its count plus its rows reaches n_min exactly,
    # and not a row before. At tau 1 an attempt at a two-class leaf splits;
    # once 15 nodes fill the arena, every attempt freezes its leaf
    params = Hyperparams(dims=3, classes=5, tau=1.0, n_min=n_min, max_nodes=max_nodes)
    stream = generate_clusters(DatasetSpec(clusters=5, dims=3, samples=900,
                                           cluster_spread=0.3, center_box=2.0, seed=4))
    ref, tree = ReferenceTree(params), Tree(params)
    for s in stream[:100]:
        ref.train(s)
        tree.train(s)
    before = ref.node_count, frozen_leaves(ref)
    for node in ref.nodes:
        if node.stats is not None and not node.stats.frozen:
            node.stats.since_last_attempt = n_min - below
    # into the live records: a loaded tree's lam and delta are rounded to
    # f32, so it would no longer learn like the reference
    view = tree.view()
    set_leaf(tree, [i for i in tree.leaf_indices() if not view.frozen[i]],
             since_last_attempt=n_min - below)
    rng = np.random.default_rng(n_min + below)
    rest = [Sample(s.features, s.label, False) for s in stream[100:]]
    for start in range(0, len(rest), 8):
        for i in start + rng.choice(8, size=int(rng.integers(1, 3)), replace=False):
            rest[i].train = True
    want = [ref.train(s) if s.train else ref.infer(s.features) for s in rest]
    got = []
    for start in range(0, len(rest), 8):
        got += process_bundle(tree, Bundle(rest[start : start + 8], 8))
    assert got == want
    assert same_bytes(serialize(tree), reference_snapshot(ref))
    assert (ref.node_count, frozen_leaves(ref)) != before


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

    # cells of 6, 1 and 3 rows: the largest cell first, so wave t is a
    # prefix of the block and wave sizes never grow
    calls.clear()
    labels = np.repeat([2, 0, 1, 0], [3, 2, 1, 4])
    tree.learn(X[: len(labels)], labels, np.ones(len(labels), dtype=bool))
    assert calls == [3, 2, 2, 1, 1, 1]

    # rows that all hit one cell update its record in place, one call each
    in_place = []

    def recording(estimates, x, up, down):
        in_place.append(np.shares_memory(estimates, tree._pool.array))
        signum_update(estimates, x, up, down)

    monkeypatch.setattr(tree_module, "signum_update", recording)
    tree.learn(X[:5], np.full(5, 2), np.ones(5, dtype=bool))
    assert in_place == [True] * 5
    assert tree.view().class_counts[0].tolist() == [16, 11, 18]


def test_waves_run_on_full_shape_operands_within_their_bound(monkeypatch):
    # 5 classes at one leaf, cells of 9 to 5 rows: with the bound at 2 rows
    # of values, the waves of 3 or more cells broadcast their operands, the
    # narrower ones take full-shape operands from row slices expanded 2 rows
    # at a time; the tree must be byte-identical to one with the bound unhit
    rng = np.random.default_rng(1)
    X = rng.normal(size=(35, 3)).astype(np.float32)
    labels = np.repeat(np.arange(5), [9, 8, 7, 6, 5])
    rng.shuffle(labels)
    params = Hyperparams(dims=3, classes=5, n_min=1_000)
    wide = Tree(params)
    wide.learn(X, labels, np.ones(35, dtype=bool))
    shapes = []

    def recording(estimates, x, up, down):
        shapes.append((len(estimates), x.shape == up.shape == down.shape == estimates.shape))
        signum_update(estimates, x, up, down)

    monkeypatch.setattr(tree_module, "signum_update", recording)
    monkeypatch.setattr(tree_module, "_WAVE_VALUES", 2 * 3 * params.n_quantiles)
    narrow = Tree(params)
    narrow.learn(X, labels, np.ones(35, dtype=bool))
    assert shapes == [(5, False)] * 5 + [(4, False), (3, False), (2, True), (1, True)]
    assert same_bytes(serialize(narrow), serialize(wide))


def test_learn_temporaries_stay_bounded_at_d54():
    # rows expanded over the quantile axis whole would take 27 MiB here
    rng = np.random.default_rng(0)
    X = rng.normal(size=(8192, 54)).astype(np.float32)
    labels = rng.integers(0, 7, 8192)
    tree = Tree(Hyperparams(dims=54, classes=7, n_min=100_000))
    tracemalloc.start()
    try:
        tree.learn(X, labels, np.ones(8192, dtype=bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.node_count == 1
    assert peak < 8 * 2**20


def test_learn_answers_infer_rows_without_training():
    params = Hyperparams(dims=1, classes=2, n_min=1_000)
    tree = Tree(params)
    X = np.zeros((5, 1), dtype=np.float32)
    labels = np.array([1, 1, 0, 1, 0])
    train = np.array([True, False, True, True, False])
    # majority before each row: empty, {1}, {1}, {0, 1} tie -> 0, {0, 1, 1}
    assert tree.learn(X, labels, train).tolist() == [0, 1, 1, 0, 1]
    assert tree.view().class_counts[0].tolist() == [1, 2]


# the majority's lead over the runner-up, from B, a leaf's minority train rows
LEADS = {"0": lambda b: 0, "B-1": lambda b: max(b - 1, 0), "B": lambda b: b, "B+1": lambda b: b + 1}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_segment_answers_match_reference_at_every_majority_lead(data):
    # one segment, since no leaf reaches n_min, over the two leaves of a
    # split root. At each leaf the majority m leads the runner-up r by 0,
    # B - 1, B or B + 1, where B counts the segment's train rows there,
    # but for its last row, whose label is not m. r may lie below or above
    # m, so minority rows of r can tie m from either side; a tie answers
    # the lower class. The kernel answers a leaf's rows with m only while
    # B < lead, or B = 0, which takes these leads to both sides of the rule
    classes = data.draw(st.integers(2, 4), label="classes")
    params = Hyperparams(dims=1, classes=classes, n_min=10_000)
    ref, bundled, learned = ReferenceTree(params), Tree(params), Tree(params)
    for t in (ref, bundled, learned):
        t._split(0, 0, 0.0)
    label = st.integers(0, classes - 1)
    warmup, segment, majors = [], [], {}
    for x in (-1.0, 1.0):
        major = data.draw(label, label="majority")
        rival = data.draw(label.filter(lambda k: k != major), label="runner-up")
        others = st.one_of(st.just(rival), label.filter(lambda k: k != major))
        minority = data.draw(st.lists(others, max_size=5), label="minority labels")
        lead = LEADS[data.draw(st.sampled_from(sorted(LEADS)), label="lead")](len(minority))
        runner = data.draw(st.integers(0 if lead else 1, 3), label="runner-up count")
        if not lead and rival < major:
            # tied counts answer the lower class: swap the two labels throughout
            swap = {major: rival, rival: major}
            major, rival = rival, major
            minority = [swap.get(k, k) for k in minority]
        majors[x] = major
        warmup += [Sample([x], major)] * (runner + lead) + [Sample([x], rival)] * runner
        rows = [Sample([x], k) for k in minority]
        rows += [Sample([x], major)] * data.draw(st.integers(0, 2), label="majority rows")
        rows += [Sample([x], k, False) for k in data.draw(st.lists(label, max_size=3), label="infer")]
        segment += rows
    segment = data.draw(st.permutations(segment), label="order") or [Sample([1.0], 0, False)]
    last = data.draw(st.sampled_from([None, -1.0, 1.0]), label="minority last row")
    if last is not None:
        segment.append(Sample([last], data.draw(label.filter(lambda k: k != majors[last]))))
    for s in warmup:
        for t in (ref, bundled, learned):
            t.train(s)
    want = [ref.train(s) if s.train else ref.infer(s.features) for s in segment]
    assert process_bundle(bundled, Bundle(segment, len(segment))) == want
    X = np.array([s.features for s in segment])
    y = np.array([s.label for s in segment])
    assert learned.learn(X, y, np.array([s.train for s in segment])).tolist() == want
    assert same_bytes(reference_snapshot(ref), serialize(bundled), serialize(learned))


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
        left, right = tree.node_count - 2, tree.node_count - 1
        leaf[at] = np.where(X[at, attr] <= np.float32(value), left, right)
    return tree


def test_lockstep_routing_matches_per_row_descent_on_a_large_tree():
    # rows at every threshold, and at both signed zeros, as well as spread rows
    tree = split_tree(1_023)
    # a majority per leaf, so that the answers tell the leaves apart too
    leaves = np.array(tree.leaf_indices())
    tree = reloaded(tree, leaves, class_counts=np.eye(5, dtype=np.int64)[leaves % 5])
    view = tree.view()
    thresholds = view.split_value[view.kind == 1].tolist()
    rng = np.random.default_rng(1)
    X = rng.normal(size=(600, 3)).astype(np.float32)
    X[:300] = rng.choice(np.array(thresholds + [0.0, -0.0], dtype=np.float32), size=(300, 3))
    want = [tree.sort_to_leaf(x) for x in X]
    assert len(set(want)) > 100
    for routed in (tree, deserialize(serialize(tree))):
        assert routed._route(X).tolist() == want
        infer_only = routed.learn(X, np.zeros(len(X), dtype=np.intp), np.zeros(len(X), dtype=bool))
        assert infer_only.tolist() == [tree.infer(x) for x in X]
        assert infer_only.tolist() == [routed.infer(x) for x in X]

    # the routing table follows every split: replay the first splits on a
    # fresh tree and route between them through _route, predict and learn
    # in turn. Each split's children answer 1 and 2, and its parent, whose
    # counts the split zeroes, 0, so a table kept across a split, or a
    # descent that stops a level short of the depth, answers 0. The
    # children's counts go into the live records, since a reload would drop
    # the table whatever _split does
    grown, X = Tree(tree.params), X[:200]
    infer_only = np.zeros(len(X), dtype=bool)
    splits = sorted((view.left[i], i) for i in np.flatnonzero(view.kind))
    for k, (_, i) in enumerate(splits[:90]):
        grown._split(i, int(view.split_attr[i]), float(view.split_value[i]))
        set_leaf(grown, view.left[i], class_counts=[0, 1, 0, 0, 0])
        set_leaf(grown, view.right[i], class_counts=[0, 0, 1, 0, 0])
        if k % 3 == 0:
            assert grown._route(X).tolist() == [grown.sort_to_leaf(x) for x in X]
        elif k % 3 == 1:
            assert grown.predict(X).tolist() == [grown.infer(x) for x in X]
        else:
            got = grown.learn(X, np.zeros(len(X), dtype=np.intp), infer_only)
            assert got.tolist() == [grown.infer(x) for x in X]


def test_predict_matches_per_row_infer_on_a_large_tree():
    tree = split_tree(1_023)
    leaves = np.array(tree.leaf_indices())
    counts = np.zeros((len(leaves), 5), dtype=np.int64)
    counts[np.arange(len(leaves)), (leaves * 7) % 5] = 1 + leaves % 3
    tree = reloaded(tree, leaves, class_counts=counts)
    view = tree.view()
    thresholds = view.split_value[view.kind == 1].tolist()
    rng = np.random.default_rng(2)
    X = rng.normal(size=(600, 3)).astype(np.float32)
    X[:300] = rng.choice(np.array(thresholds + [0.0, -0.0], dtype=np.float32), size=(300, 3))
    want = [tree.infer(x) for x in X]
    assert len(set(want)) == 5
    for routed in (tree, deserialize(serialize(tree))):
        assert routed.predict(X).tolist() == want
        assert routed.predict(X[:1]).tolist() == want[:1]
        assert routed.predict(X[:0]).tolist() == []
    before = serialize(tree)
    X[7, 2] = np.nan
    with pytest.raises(ValueError, match="^sample 7: features must be finite$"):
        tree.predict(X)
    with pytest.raises(ValueError, match="expected rows of 3 features"):
        tree.predict(X[:, :2])
    assert same_bytes(serialize(tree), before)


def test_loaded_tree_keeps_learning_like_the_reference():
    # a loaded tree routes through the records deserialize copied;
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
    assert same_bytes(serialize(tree), reference_snapshot(ref))
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
    assert same_bytes(serialize(tree), before)


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
    assert same_bytes(serialize(tree), before)


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
    assert same_bytes(serialize(tree), before)
