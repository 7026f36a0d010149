"""Round-trip and layout tests for the flat snapshot format."""

import hashlib

import numpy as np
import pytest

from streamtree.datasets import DatasetSpec, generate_clusters
from streamtree.serialize import (
    FORMAT_VERSION,
    _records,
    deserialize,
    model_bytes,
    node_record_bytes,
    serialize,
)
from streamtree.tree import Hyperparams, Sample, Tree


def trained_tree(seed=0, n=4000, max_nodes=63):
    params = Hyperparams(dims=3, classes=5, n_min=100, tau=0.1, max_nodes=max_nodes)
    tree = Tree(params)
    spec = DatasetSpec(5, 3, n, 0.05, 2.0, seed=seed)
    for s in generate_clusters(spec):
        tree.train(s)
    return tree


def test_fresh_tree_round_trip():
    params = Hyperparams(dims=2, classes=3, max_nodes=15)
    tree = Tree(params)
    buf = serialize(tree)
    assert len(buf) == model_bytes(params)
    back = deserialize(buf)
    assert back.node_count == 1
    assert back.params == params or (
        # f32 storage rounds the float fields
        back.params.dims == params.dims and back.params.classes == params.classes
    )
    assert back.arena[0].stats.total == 0
    assert serialize(back) == buf


def test_trained_tree_round_trip_predictions():
    tree = trained_tree()
    assert tree.node_count > 1
    buf = serialize(tree)
    back = deserialize(buf)
    assert back.node_count == tree.node_count
    rng = np.random.default_rng(123)
    probes = rng.uniform(-3, 3, size=(1000, 3)).astype(np.float32)
    for x in probes:
        assert tree.infer(x) == back.infer(x)
    assert serialize(back) == buf


def test_round_trip_preserves_statistics_and_training():
    tree = trained_tree(seed=3, n=1500, max_nodes=31)
    buf = serialize(tree)
    back = deserialize(buf)
    written = _records(buf, tree.params, tree.node_count)
    for idx in tree.leaf_indices():
        a, b = tree.arena[idx].stats, back.arena[idx].stats
        assert a.class_counts.tolist() == b.class_counts.tolist()
        assert a.sketch_estimates.tobytes() == b.sketch_estimates.tobytes()
        assert (written["sketch_counts"][idx] == b.class_counts[:, None]).all()
        assert a.since_last_attempt == b.since_last_attempt
        assert a.frozen == b.frozen
    # the restored tree keeps learning
    back.train(Sample(np.zeros(3, dtype=np.float32), 1))


def test_deserialize_rejects_corruption():
    tree = trained_tree(seed=1, n=500, max_nodes=15)
    buf = bytearray(serialize(tree))

    bad_magic = bytes(b"XXXX") + bytes(buf[4:])
    with pytest.raises(ValueError, match="magic"):
        deserialize(bad_magic)

    bad_version = bytearray(buf)
    bad_version[4] = FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="version"):
        deserialize(bytes(bad_version))

    with pytest.raises(ValueError):
        deserialize(bytes(buf[: len(buf) // 2]))

    with pytest.raises(ValueError):
        deserialize(bytes(buf[:20]))

    # node_count above capacity
    bad_count = bytearray(buf)
    bad_count[30:34] = (10**6).to_bytes(4, "little")
    with pytest.raises(ValueError):
        deserialize(bytes(bad_count))

    # delta outside (0, 1)
    bad_delta = bytearray(buf)
    bad_delta[38:42] = np.float32(2.0).tobytes()
    with pytest.raises(ValueError):
        deserialize(bytes(bad_delta))


def test_deserialize_rejects_broken_topology():
    # a 3-node tree: root internal at slot 0, leaves at 1 and 2
    tree = Tree(Hyperparams(dims=3, classes=5, max_nodes=3))
    tree._split(0, 0, 0.0)
    assert tree.node_count == 3
    buf = serialize(tree)
    header = 50

    cyclic = bytearray(buf)
    cyclic[header + 10 : header + 14] = (0).to_bytes(4, "little")  # left -> root
    with pytest.raises(ValueError, match="twice"):
        deserialize(bytes(cyclic))

    orphaned = bytearray(buf)
    orphaned[header] = 0  # root flipped to a leaf; slots 1, 2 unreachable
    with pytest.raises(ValueError, match="not reachable"):
        deserialize(bytes(orphaned))


def test_model_bytes_affine_in_capacity():
    def params(nd):
        return Hyperparams(dims=4, classes=3, max_nodes=nd)

    record = node_record_bytes(4, 3, 16)
    assert model_bytes(params(2)) - model_bytes(params(1)) == record
    assert model_bytes(params(128)) - model_bytes(params(64)) == 64 * record
    sizes = [model_bytes(params(2**i)) for i in range(8)]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_model_bytes_matches_serialized_length():
    for dims, classes, nd in [(1, 2, 1), (3, 5, 7), (10, 4, 33)]:
        params = Hyperparams(dims=dims, classes=classes, max_nodes=nd)
        assert len(serialize(Tree(params))) == model_bytes(params)


def test_frozen_flag_survives_round_trip():
    params = Hyperparams(dims=2, classes=2, n_min=20, max_nodes=1)
    tree = Tree(params)
    rng = np.random.default_rng(5)
    for i in range(60):
        x = rng.normal(0, 0.1, 2) + (i % 2) * 4.0
        tree.train(Sample(x.astype(np.float32), i % 2))
    assert tree.arena[0].stats.frozen
    back = deserialize(serialize(tree))
    assert back.arena[0].stats.frozen
    assert serialize(back) == serialize(tree)


def test_serialization_deterministic_across_identical_runs():
    assert serialize(trained_tree(seed=7)) == serialize(trained_tree(seed=7))


GOLDEN_ROWS = [
    # leaf 1 (x0 <= 0.5)
    (0.25, 1.0, 0), (-1.5, 0.5, 0), (0.125, -2.0, 1), (0.0, 0.75, 0), (-0.5, -0.5, 2),
    # leaf 3 (x0 > 0.5, x1 <= -0.25)
    (1.0, -1.0, 1), (2.5, -0.5, 1), (0.75, -3.0, 2), (1.75, -0.375, 1),
    # leaf 4 (x0 > 0.5, x1 > -0.25)
    (1.5, 0.0, 2), (3.0, 1.25, 2), (0.875, 2.0, 0), (1.25, 0.5, 2),
]


def hand_built_tree():
    """Five nodes in a seven-slot arena over three classes; leaf 3 is frozen."""
    params = Hyperparams(dims=2, classes=3, n_quantiles=4, n_pt=3, n_min=1000, max_nodes=7)
    tree = Tree(params)
    tree._split(0, 0, 0.5)
    tree._split(2, 1, -0.25)
    for x0, x1, label in GOLDEN_ROWS:
        tree.train(Sample(np.array([x0, x1], dtype=np.float32), label))
    tree.arena[3].stats.frozen = True
    return tree


def editable(buf, tree):
    """A writable copy of a snapshot and a record view over its used slots."""
    out = bytearray(buf)
    return out, _records(out, tree.params, tree.node_count)


def test_snapshot_bytes_are_pinned():
    # the digest was taken from the field-by-field struct writer that
    # preceded the record dtype; stored snapshots depend on it not moving
    digest = hashlib.sha256(serialize(hand_built_tree())).hexdigest()
    assert digest == "5770183ee309e72834f8bab451f88a24b940266cb231e19a34a281bcddfea49d"


def test_deserialize_rejects_split_attr_beyond_dims():
    tree = hand_built_tree()
    buf, rec = editable(serialize(tree), tree)
    rec["split_attr"][0] = 7  # dims is 2
    with pytest.raises(ValueError, match="node 0 splits on attribute 7"):
        deserialize(buf)


def test_deserialize_rejects_non_finite_threshold():
    tree = hand_built_tree()
    buf, rec = editable(serialize(tree), tree)
    rec["split_value"][2] = np.nan
    with pytest.raises(ValueError, match="node 2 has non-finite threshold"):
        deserialize(buf)


def test_deserialize_rejects_sketch_counts_unlike_class_counts():
    tree = hand_built_tree()
    buf, rec = editable(serialize(tree), tree)
    assert rec["class_counts"][4, 1] == 0
    rec["sketch_counts"][4, 1, 0] = 99
    with pytest.raises(ValueError, match="node 4 has sketch counts"):
        deserialize(buf)


def test_since_last_attempt_saturates_on_the_wire():
    tree = hand_built_tree()
    stats = tree.arena[3].stats  # frozen, so it never resets the counter
    stats.since_last_attempt = 2**32 - 1
    tree.train(Sample(np.array([1.0, -1.0], dtype=np.float32), 1))
    assert stats.since_last_attempt == 2**32
    buf = serialize(tree)
    assert _records(buf, tree.params, tree.node_count)["since_last_attempt"][3] == 2**32 - 1
    back = deserialize(buf)
    assert back.arena[3].stats.since_last_attempt == 2**32 - 1
    assert serialize(back) == buf
