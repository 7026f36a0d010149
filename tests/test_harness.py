"""Tests for bundle processing, prequential evaluation, and memory tables."""

import json
import re

import numpy as np
import pytest
from buffers import same_bytes

from streamtree.datasets import DatasetSpec, generate_clusters
from streamtree.harness import (
    Bundle,
    PrequentialReport,
    mem_report,
    process_bundle,
    run_prequential,
    split_into_bundles,
)
from streamtree.serialize import model_bytes, serialize
from streamtree.tree import Hyperparams, Sample, Tree


def fuzz_stream(rng, n, dims=2, classes=3, train_prob=0.7):
    out = []
    for _ in range(n):
        out.append(
            Sample(
                rng.normal(0, 2, dims).astype(np.float32),
                int(rng.integers(0, classes)),
                bool(rng.random() < train_prob),
            )
        )
    return out


def make_params(**kw):
    base = dict(dims=2, classes=3, n_min=40, max_nodes=31)
    base.update(kw)
    return Hyperparams(**base)


def test_bundle_validation():
    s = Sample(np.zeros(2, dtype=np.float32))
    with pytest.raises(ValueError):
        Bundle([s], capacity=0)
    with pytest.raises(ValueError):
        Bundle([s, s, s], capacity=2)
    with pytest.raises(ValueError, match=r"^sample 1: expected 2 features, as sample 0, got shape \(3,\)$"):
        Bundle([s, Sample(np.zeros(3, dtype=np.float32))], capacity=5)
    with pytest.raises(ValueError, match=r"^sample 0: expected one row of features, got shape \(\)$"):
        Bundle([Sample(1.0)], 1)
    with pytest.raises(ValueError, match=r"^sample 2: expected 2 features, as sample 0, got shape \(1, 2\)$"):
        Bundle([s, s, Sample(np.zeros((1, 2)))], capacity=5)


@pytest.mark.parametrize("capacity", [0, -1])
def test_split_into_bundles_rejects_non_positive_capacity(capacity):
    stream = fuzz_stream(np.random.default_rng(0), 5)
    with pytest.raises(ValueError, match="^capacity must be positive$"):
        split_into_bundles(stream, capacity)


def test_split_into_bundles_preserves_order():
    rng = np.random.default_rng(0)
    stream = fuzz_stream(rng, 25)
    bundles = list(split_into_bundles(stream, 10))
    assert [len(b.samples) for b in bundles] == [10, 10, 5]
    flat = [s for b in bundles for s in b.samples]
    assert all(a is b for a, b in zip(flat, stream))


def test_all_infer_bundle_leaves_tree_untouched():
    tree = Tree(make_params())
    rng = np.random.default_rng(1)
    stream = fuzz_stream(rng, 50, train_prob=0.0)
    before = serialize(tree)
    out = process_bundle(tree, Bundle(stream, 50))
    assert out == [0] * 50
    assert same_bytes(serialize(tree), before)


def test_bundle_equals_single_calls():
    rng = np.random.default_rng(2)
    stream = fuzz_stream(rng, 500)
    bundle_tree = Tree(make_params())
    got = process_bundle(bundle_tree, Bundle(stream, 500))

    # oracle: one call at a time against an identically built tree
    single_tree = Tree(make_params())
    want = []
    for s in stream:
        if s.train:
            want.append(single_tree.train(s))
        else:
            want.append(single_tree.infer(s.features))
    assert got == want
    assert same_bytes(serialize(bundle_tree), serialize(single_tree))


def test_infer_samples_do_not_change_training_outcome():
    rng = np.random.default_rng(3)
    stream = fuzz_stream(rng, 600, train_prob=0.6)

    mixed_tree = Tree(make_params())
    mixed_out = process_bundle(mixed_tree, Bundle(stream, 600))

    train_only = [s for s in stream if s.train]
    replay_tree = Tree(make_params())
    replay_out = process_bundle(replay_tree, Bundle(train_only, 600))

    train_positions = [i for i, s in enumerate(stream) if s.train]
    assert [mixed_out[i] for i in train_positions] == replay_out
    assert same_bytes(serialize(mixed_tree), serialize(replay_tree))


def test_bundle_dimension_mismatch():
    tree = Tree(make_params(dims=4))
    s = Sample(np.zeros(2, dtype=np.float32))
    with pytest.raises(ValueError):
        process_bundle(tree, Bundle([s], 1))


def test_train_flags_are_python_or_numpy_bools():
    rng = np.random.default_rng(5)
    stream = fuzz_stream(rng, 6)
    mixed = [Sample(s.features, s.label, np.bool_(s.train) if i % 2 else s.train)
             for i, s in enumerate(stream)]
    tree, replay = Tree(make_params()), Tree(make_params())
    assert process_bundle(tree, Bundle(mixed, 8)) == process_bundle(replay, Bundle(stream, 8))
    assert same_bytes(serialize(tree), serialize(replay))
    for flag in (1, 0, np.int8(1), 1.0, None, "yes"):
        bad = list(mixed)
        bad[4] = Sample(bad[4].features, bad[4].label, flag)
        with pytest.raises(ValueError, match=r"^sample 4: train flag .* is not a bool$"):
            process_bundle(tree, Bundle(bad, 8))
    assert same_bytes(serialize(tree), serialize(replay))


@pytest.mark.parametrize("label,flag,fault", [
    (2.9, True, "label 2.9 is not a class index below 3"),
    ("1", True, "label '1' is not a class index below 3"),
    (-1, True, "label -1 is not a class index below 3"),
    (3, True, "label 3 is not a class index below 3"),
    (np.int64(3), True, "label 3 is not a class index below 3"),
    (1, 1, "train flag 1 is not a bool"),
    (1, np.int8(1), f"train flag {np.int8(1)!r} is not a bool"),
    (1, 1.0, "train flag 1.0 is not a bool"),
    (1, None, "train flag None is not a bool"),
])
def test_train_rejects_what_a_bundle_rejects(label, flag, fault):
    # a bundle is the same single calls, so both paths refuse the sample
    # with one message, the bundle's naming its index, and change nothing
    tree = Tree(make_params())
    process_bundle(tree, Bundle(fuzz_stream(np.random.default_rng(2), 50), 50))
    before = serialize(tree)
    bad = Sample(np.zeros(2, dtype=np.float32), label, flag)
    with pytest.raises(ValueError, match=f"^{re.escape(fault)}$"):
        tree.train(bad)
    with pytest.raises(ValueError, match=f"^sample 0: {re.escape(fault)}$"):
        process_bundle(tree, Bundle([bad], 1))
    assert same_bytes(serialize(tree), before)


def test_empty_bundle_is_a_no_op():
    tree = Tree(make_params())
    assert process_bundle(tree, Bundle([], 8)) == []


def test_prequential_single_sample():
    for label, expect_correct in [(0, 1), (2, 0)]:
        tree = Tree(make_params())
        rep = run_prequential(tree, [Sample(np.zeros(2, dtype=np.float32), label)])
        assert rep.total == 1
        assert rep.correct == expect_correct


def test_prequential_constant_label_stream():
    tree = Tree(make_params())
    stream = [Sample(np.zeros(2, dtype=np.float32), 1) for _ in range(1000)]
    rep = run_prequential(tree, stream)
    # only the first prediction can miss
    assert rep.correct >= 999
    assert rep.accuracy >= 0.999


def test_prequential_validation():
    tree = Tree(make_params())
    with pytest.raises(ValueError):
        run_prequential(tree, [])
    with pytest.raises(ValueError):
        run_prequential(tree, [Sample(np.zeros(2, dtype=np.float32), 0, train=False)])
    with pytest.raises(ValueError):
        run_prequential(tree, [Sample(np.zeros(2, dtype=np.float32), 0)], window=0)


def test_prequential_windows_and_fields():
    rng = np.random.default_rng(4)
    stream = fuzz_stream(rng, 250, train_prob=1.0)
    tree = Tree(make_params())
    rep = run_prequential(tree, stream, window=100, time_inference=True)
    assert [end for end, _ in rep.windowed_accuracy] == [100, 200, 250]
    assert rep.total == 250
    assert 0.0 <= rep.accuracy <= 1.0
    assert rep.final_node_count == tree.node_count
    assert rep.model_bytes == model_bytes(tree.params)
    assert rep.train_time > 0.0
    assert rep.infer_time > 0.0
    # window accuracies are consistent with the total
    recomputed = (
        rep.windowed_accuracy[0][1] * 100
        + rep.windowed_accuracy[1][1] * 100
        + rep.windowed_accuracy[2][1] * 50
    )
    assert round(recomputed) == rep.correct


def test_prequential_learns_separable_stream():
    stream = generate_clusters(DatasetSpec(3, 2, 6000, 0.05, 2.0, seed=8))
    tree = Tree(Hyperparams(dims=2, classes=3, n_min=100, tau=0.1, max_nodes=63))
    rep = run_prequential(tree, stream, window=1000)
    assert rep.windowed_accuracy[-1][1] >= 0.9
    assert rep.final_node_count > 1


def test_report_json_round_trip():
    rep = PrequentialReport(
        total=10, correct=7, accuracy=0.7, train_time=0.5, infer_time=0.0,
        final_node_count=3, model_bytes=1234,
        windowed_accuracy=[(5, 0.6), (10, 0.8)],
    )
    back = PrequentialReport.from_dict(json.loads(json.dumps(rep.to_dict())))
    assert back == rep


def test_mem_report_shape_and_monotonicity():
    rows = mem_report()
    # 8 capacities per (dims, classes) combination
    assert len(rows) == 8 * 2 * 2
    by_combo = {}
    for nd, d, k, b in rows:
        by_combo.setdefault((d, k), []).append((nd, b))
    for combo, entries in by_combo.items():
        sizes = [b for _, b in entries]
        assert sizes == sorted(sizes) and len(set(sizes)) == len(sizes)
    # monotone in dims and classes at fixed capacity
    lookup = {(nd, d, k): b for nd, d, k, b in rows}
    assert lookup[(8, 100, 5)] > lookup[(8, 3, 5)]
    assert lookup[(8, 3, 10)] > lookup[(8, 3, 5)]


def test_mem_report_single_cell():
    rows = mem_report([7], [3], [5])
    assert len(rows) == 1
    nd, d, k, b = rows[0]
    assert (nd, d, k) == (7, 3, 5)
    assert b == model_bytes(Hyperparams(dims=3, classes=5, max_nodes=7))


def test_mem_report_rejects_empty_grid():
    with pytest.raises(ValueError):
        mem_report([], [3], [5])
