"""Round-trip and layout tests for the flat snapshot format."""

import array
import gc
import hashlib
import mmap
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from buffers import same_bytes
from leaves import reloaded, set_leaf

from streamtree.datasets import DatasetSpec, generate_clusters
from streamtree.harness import Bundle, process_bundle
from streamtree.serialize import (
    _HEADER,
    FORMAT_VERSION,
    MAGIC,
    _kept,
    _records,
    deserialize,
    model_bytes,
    node_record_bytes,
    serialize,
)
from streamtree.tree import Hyperparams, LeafStats, Sample, Tree


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
    assert back.view().class_counts.sum() == 0
    assert same_bytes(serialize(back), buf)


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
    assert same_bytes(serialize(back), buf)
    # the used records, then zeros up to the full capacity
    params = tree.params
    record = node_record_bytes(params.dims, params.classes, params.n_quantiles)
    used = model_bytes(params) - (params.max_nodes - tree.node_count) * record
    assert type(buf) is memoryview and buf.readonly
    assert buf.format == "B" and buf.c_contiguous
    assert len(buf) == model_bytes(params)
    assert same_bytes(buf[used:], bytes(len(buf) - used))


def test_snapshot_is_an_independent_readonly_buffer():
    tree = Tree(Hyperparams(dims=3, classes=5, n_min=100, tau=0.1, max_nodes=63))
    stream = generate_clusters(DatasetSpec(5, 3, 4000, 0.05, 2.0, seed=0))
    for s in stream[:60]:
        tree.train(s)
    assert tree.node_count == 1
    probes = np.random.default_rng(9).uniform(-3, 3, size=(300, 3)).astype(np.float32)
    answers = [tree.infer(x) for x in probes]
    buf = serialize(tree)
    copy = bytes(buf)
    with pytest.raises(TypeError):
        buf[0] = 0
    with pytest.raises(TypeError):
        buf[:4] = b"XXXX"
    for s in stream[60:]:
        tree.train(s)
    assert tree.node_count > 1
    # a later snapshot, and the training before it, leave the earlier one as it was
    later = serialize(tree)
    assert later is not serialize(tree)
    assert not np.shares_memory(np.frombuffer(later, np.uint8), np.frombuffer(buf, np.uint8))
    assert later != buf
    assert buf == copy and copy == buf
    assert buf == bytes(buf) and bytes(buf) == buf
    assert hash(buf) == hash(copy)
    assert [deserialize(buf).infer(x) for x in probes] == answers

    # a Covertype-sized arena, of which a few records are used
    params = Hyperparams(dims=54, classes=7, tau=0.2, n_min=100, max_nodes=2047)
    wide = Tree(params)
    rows = generate_clusters(DatasetSpec(7, 54, 3000, 0.5, seed=1))
    X = np.array([s.features for s in rows])
    labels = np.array([s.label for s in rows])
    wide.learn(X, labels, np.ones(len(rows), dtype=bool))
    assert wide.node_count > 1
    buf = serialize(wide)
    assert len(buf) == model_bytes(params)
    back = deserialize(buf)
    assert back.node_count == wide.node_count
    assert back.predict(X).tolist() == wide.predict(X).tolist()
    assert hashlib.sha256(serialize(back)).digest() == hashlib.sha256(buf).digest()


def fresh_pages_serialize(tree) -> bytes:
    """The reference for kept pages: serialize() as it was when every call mapped fresh pages."""
    p, n, pool = tree.params, tree.node_count, tree._pool
    pages = mmap.mmap(-1, model_bytes(p), flags=mmap.MAP_PRIVATE)
    _HEADER.pack_into(
        pages, 0, MAGIC, FORMAT_VERSION, p.max_nodes, p.dims, p.classes, p.n_quantiles,
        p.n_pt, p.n_min, n, tree.root, p.delta, p.lam, p.tau,
    )
    used = pool.array[:n]
    pages[_HEADER.size : _HEADER.size + used.nbytes] = used
    rec = _records(pages, p, n)
    rec["sketch_counts"] = rec["class_counts"][:, :, None]
    rec["since_last_attempt"] = np.minimum(pool.since[:n], 2**32 - 1)
    return bytes(pages)


# how a sync loop holds its snapshot: as the view, a slice of it, an array over it, or not at all
HOLDS = (lambda s: s, lambda s: s[1:-1], lambda s: np.frombuffer(s, np.uint8), None, None)


def test_kept_pages_never_change_a_held_snapshot_and_equal_fresh_pages():
    # the tree grows from 3 to 21 nodes, so later snapshots write records
    # that the pages they reuse never held
    tree = Tree(Hyperparams(dims=3, classes=5, n_min=50, tau=0.5, max_nodes=63))
    stream = generate_clusters(DatasetSpec(5, 3, 6_000, 0.05, 2.0, seed=4))
    held, mappings, reused = [], [], 0
    for k, start in enumerate(range(0, len(stream), 128)):
        process_bundle(tree, Bundle(stream[start : start + 128], 128))
        snapshot = serialize(tree)
        assert bytes(snapshot) == fresh_pages_serialize(tree)
        if any(m() is snapshot.obj for m in mappings):
            reused += 1
        else:
            mappings.append(weakref.ref(snapshot.obj))
        hold = HOLDS[k % len(HOLDS)]
        if hold is not None:
            held.append((hold(snapshot), bytes(hold(snapshot))))
        del snapshot
        for view, copy in held:
            assert bytes(view) == copy
    assert tree.node_count > 15
    # every snapshot dropped before the next call wrote into kept pages, so
    # the mappings are those held and at most the two kept ones
    assert reused >= len(range(0, len(stream), 128)) - len(held) - 2
    assert len(mappings) <= len(held) + 2
    assert len(_kept[tree]) == 2


def test_kept_pages_go_with_their_tree():
    tree = trained_tree(seed=2, n=1500, max_nodes=31)
    held = serialize(tree)
    copy = bytes(held)
    dropped = [weakref.ref(serialize(tree).obj) for _ in range(3)]
    assert dropped[0]() is dropped[1]() is dropped[2]() is not None
    del tree
    gc.collect()
    assert dropped[0]() is None
    # a snapshot still held outlives its tree
    assert bytes(held) == copy
    pages = weakref.ref(held.obj)
    del held
    assert pages() is None


def test_threads_serializing_one_tree_never_share_pages():
    tree = trained_tree(seed=5, n=1500, max_nodes=31)
    want = fresh_pages_serialize(tree)
    held, guard, faults = set(), threading.Lock(), []

    def sync():
        try:
            for _ in range(300):
                snapshot = serialize(tree)
                pages = id(snapshot.obj)
                with guard:
                    if pages in held:
                        faults.append("two threads hold one mapping")
                    held.add(pages)
                if bytes(snapshot) != want:
                    faults.append("a snapshot differs from fresh pages")
                with guard:
                    held.discard(pages)
                del snapshot
        except Exception as exc:  # a thread's failure must reach the test
            faults.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=sync) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert faults == []


def test_round_trip_preserves_statistics_and_training():
    tree = trained_tree(seed=3, n=1500, max_nodes=31)
    buf = serialize(tree)
    back = deserialize(buf)
    written = _records(buf, tree.params, tree.node_count)
    a, b = tree.view(), back.view()
    for idx in tree.leaf_indices():
        assert a.class_counts[idx].tolist() == b.class_counts[idx].tolist()
        assert a.sketch_estimates[idx].tobytes() == b.sketch_estimates[idx].tobytes()
        assert (written["sketch_counts"][idx] == b.class_counts[idx, :, None]).all()
        assert a.since_last_attempt[idx] == b.since_last_attempt[idx]
        assert a.frozen[idx] == b.frozen[idx]
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

    # n_quantiles beyond what the buffer could hold is refused before
    # Hyperparams builds that many quantile targets
    for n_quantiles in (2**31 + 5, 2**32 - 1):
        huge = bytearray(buf)
        huge[18:22] = n_quantiles.to_bytes(4, "little")
        with pytest.raises(ValueError, match="too short for the header's"):
            deserialize(bytes(huge))

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
    assert tree.view().frozen[0]
    back = deserialize(serialize(tree))
    assert back.view().frozen[0]
    assert same_bytes(serialize(back), serialize(tree))


def test_serialization_deterministic_across_identical_runs():
    assert same_bytes(serialize(trained_tree(seed=7)), serialize(trained_tree(seed=7)))


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
    return reloaded(tree, 3, frozen=True)


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


def test_deserialize_rejects_class_count_past_int64():
    # the live counts are int64: a count of 2^63 would load as -2^63 and
    # hand the leaf to the class with one sample
    tree = Tree(Hyperparams(dims=1, classes=2, max_nodes=1))
    tree.train(Sample(np.array([0.5], dtype=np.float32), 1))
    for count, answer in ((2**63 - 1, 0), (2**63, None), (2**64 - 1, None)):
        buf, rec = editable(serialize(tree), tree)
        rec["class_counts"][0, 0] = count
        rec["sketch_counts"][0, 0] = count
        if answer is None:
            with pytest.raises(ValueError, match=r"node 0 has a class count of 2\^63 or more"):
                deserialize(bytes(buf))
        else:
            back = deserialize(bytes(buf))
            assert back.infer([0.5]) == answer
            assert same_bytes(serialize(back), bytes(buf))


def test_since_last_attempt_saturates_on_the_wire():
    x = np.array([1.0, -1.0], dtype=np.float32)
    # leaf 3 is frozen, so it never wraps the counter
    lone, bundled = (reloaded(hand_built_tree(), 3, since_last_attempt=2**32 - 1) for _ in range(2))
    lone.train(Sample(x, 1))
    # three classes at one leaf: the many-cell absorb, not the one-cell one
    bundled.learn(np.tile(x, (3, 1)), np.arange(3), np.ones(3, dtype=bool))
    for tree, since in ((lone, 2**32), (bundled, 2**32 + 2)):
        assert tree.view().since_last_attempt[3] == since
        buf = serialize(tree)
        assert _records(buf, tree.params, tree.node_count)["since_last_attempt"][3] == 2**32 - 1
        back = deserialize(buf)
        assert back.view().since_last_attempt[3] == 2**32 - 1
        assert same_bytes(serialize(back), buf)


@pytest.mark.parametrize("value", [-5, 2**63, 2**64, 2.7, np.float64(3.0), True, np.int64(-1), "3", None],
                         ids=repr)
def test_since_last_attempt_refuses_what_is_not_a_count(value):
    # through a public setter, -5 once went out on the wire as 4,294,967,291,
    # 2.7 was stored as 2 and 2^64 raised OverflowError; the counter now has
    # no public writer: a view refuses the write and is a copy, and a
    # standalone leaf's counter has no setter
    tree = Tree(Hyperparams(dims=2, classes=2))
    before = bytes(serialize(tree))
    view = tree.view()
    with pytest.raises(ValueError, match="^assignment destination is read-only$"):
        view.since_last_attempt[0] = value
    assert view.since_last_attempt[0] == 0 and same_bytes(serialize(tree), before)
    stats = LeafStats(tree.params)
    with pytest.raises(AttributeError):
        stats.since_last_attempt = value
    assert stats.since_last_attempt == 0


@pytest.mark.parametrize("value", [0, 7, 2**32 + 5, 2**63 - 1, np.int32(9), np.uint64(2**63 - 1)])
def test_since_last_attempt_takes_python_and_numpy_counts(value):
    # the live count is int64; only counts below 2^32 fit a snapshot
    tree = Tree(Hyperparams(dims=2, classes=2))
    set_leaf(tree, 0, since_last_attempt=value)
    assert tree.view().since_last_attempt[0] == int(value)
    back = deserialize(serialize(tree))
    assert back.view().since_last_attempt[0] == min(int(value), 2**32 - 1)


WIDE_ITEMS = {
    "memoryview": lambda buf: memoryview(buf).cast("H"),
    "ndarray": lambda buf: np.frombuffer(buf, np.uint16),
    "array": lambda buf: array.array("H", bytes(buf)),
}


@pytest.mark.parametrize("form", [*WIDE_ITEMS, "strided"])
def test_deserialize_counts_bytes_of_wide_item_buffers(form):
    # len() and slices of such buffers count 2-byte items, not bytes
    tree = hand_built_tree()
    buf = serialize(tree)
    if form == "strided":
        with pytest.raises(ValueError, match="buffer is not C-contiguous"):
            deserialize(np.frombuffer(buf, np.uint16)[::2])
        return
    back = deserialize(WIDE_ITEMS[form](buf))
    assert same_bytes(serialize(back), buf)
    x = np.array([1.0, -1.0], dtype=np.float32)
    assert back.sort_to_leaf(x) == tree.sort_to_leaf(x) == 3


@pytest.mark.parametrize("value,knot", [(np.nan, 1), (np.inf, -1), (-np.inf, 0)])
def test_deserialize_rejects_non_finite_knot_of_a_seen_class(value, knot):
    # +inf last and -inf first keep the row sorted, so only the finiteness
    # test can catch them
    tree = hand_built_tree()
    buf, rec = editable(serialize(tree), tree)
    assert rec["class_counts"][1, 0] > 0
    rec["sketch_estimates"][1, 0, 1, knot] = value
    with pytest.raises(ValueError, match="node 1 has non-finite or unsorted sketch knots for class 0"):
        deserialize(buf)


def test_deserialize_rejects_unsorted_knots_of_a_seen_class():
    tree = hand_built_tree()
    buf, rec = editable(serialize(tree), tree)
    row = rec["sketch_estimates"][4, 2, 0]
    j = int(np.argmax(row[1:] > row[:-1]))
    assert row[j] < row[j + 1]
    row[[j, j + 1]] = row[[j + 1, j]]
    with pytest.raises(ValueError, match="node 4 has non-finite or unsorted sketch knots for class 2"):
        deserialize(buf)


def test_deserialize_ignores_knots_of_unseen_classes():
    # an unseen class's row is reseeded by its first sample before any use
    tree = hand_built_tree()
    buf, rec = editable(serialize(tree), tree)
    assert rec["class_counts"][4, 1] == 0
    rec["sketch_estimates"][4, 1, 0] = [np.nan, 3.0, -np.inf, 1.0]
    assert same_bytes(serialize(deserialize(bytes(buf))), buf)


def test_tau_sign_survives_loading_after_the_other_sign():
    # 0.0 and -0.0 compare equal, so a cache keyed on header values would
    # hand the second header the first one's tau
    bufs = [serialize(Tree(Hyperparams(dims=2, classes=3, tau=tau, max_nodes=7))) for tau in (0.0, -0.0)]
    assert bufs[0] != bufs[1]
    for buf in bufs + bufs[::-1]:
        assert same_bytes(serialize(deserialize(buf)), buf)


def test_unused_fields_and_frozen_bytes_load_as_canonical():
    # garbage in every field a record does not use, in the unused slots, and
    # a frozen byte of 7 on a frozen leaf, an active leaf and internal nodes
    tree = hand_built_tree()
    buf, rec = editable(serialize(tree), tree)
    internal = rec["kind"] == 1
    leaf = ~internal
    rec["split_attr"][leaf] = 9
    rec["split_value"][leaf] = np.nan
    rec["left"][leaf] = 77
    rec["right"][leaf] = 1
    rec["frozen"][internal] = 7
    rec["class_counts"][internal] = 2**64 - 1
    rec["sketch_estimates"][internal] = np.nan
    rec["sketch_counts"][internal] = 5
    rec["since_last_attempt"][internal] = 123
    rec["frozen"][[3, 4]] = 7
    buf[-100:] = b"\xff" * 100
    canonical = serialize(reloaded(tree, 4, frozen=True))
    back = deserialize(bytes(buf))
    assert back.view().frozen[back.leaf_indices()].tolist() == [False, True, True]
    assert same_bytes(serialize(back), canonical)
    assert same_bytes(serialize(deserialize(canonical)), canonical)


def test_deserialize_rejects_child_before_parent():
    # records 2 and 4 swapped: a tree a walk from the root accepts, but
    # serialize() always writes a node's children after it, so it does not load
    tree = hand_built_tree()
    buf, rec = editable(serialize(tree), tree)
    rec[[2, 4]] = rec[[4, 2]].copy()
    rec["right"][0] = 4
    rec["left"][4], rec["right"][4] = 3, 2
    with pytest.raises(ValueError, match="^node 4 has a child at or before its own index$"):
        deserialize(bytes(buf))
    buf, rec = editable(serialize(tree), tree)
    rec["left"][2] = 2
    with pytest.raises(ValueError, match="^node 2 is reachable twice"):
        deserialize(bytes(buf))


def test_deserialize_rejects_nonzero_root():
    buf = bytearray(serialize(hand_built_tree()))
    buf[34:38] = (2).to_bytes(4, "little")
    with pytest.raises(ValueError, match="^root index 2 is not 0$"):
        deserialize(bytes(buf))


SOUND = serialize(hand_built_tree())
# header and used records; the rest is padding
SOUND_USED = 50 + 5 * node_record_bytes(2, 3, 4)


def assert_sound(tree):
    """Every probe routes within node_count steps, infer answers, predict agrees, and reloading is stable."""
    view = tree.view()
    values = view.split_value[view.kind == 1].tolist()
    probes = np.array([(a, b) for a in values + [0.0, -0.0, 1.0] for b in values + [-1.0]]
                      + [(x0, x1) for x0, x1, _ in GOLDEN_ROWS], dtype=np.float32)
    for x in probes:
        idx, steps = 0, 0
        while view.kind[idx]:
            go_left = x[view.split_attr[idx]] <= view.split_value[idx]
            idx = view.left[idx] if go_left else view.right[idx]
            steps += 1
            assert steps < tree.node_count
        assert tree.sort_to_leaf(x) == idx
        assert 0 <= tree.infer(x) < tree.params.classes
    assert tree.predict(probes).tolist() == [tree.infer(x) for x in probes]
    again = serialize(tree)
    assert same_bytes(serialize(deserialize(again)), again)


@settings(max_examples=300, deadline=None)
@given(
    cut=st.integers(0, len(SOUND) - 1),
    edits=st.lists(
        st.tuples(st.one_of(st.integers(0, SOUND_USED - 1), st.integers(0, len(SOUND) - 1)),
                  st.integers(0, 255)),
        min_size=1, max_size=8,
    ),
    truncate=st.booleans(),
)
def test_damaged_snapshot_raises_value_error_or_loads_sound(cut, edits, truncate):
    buf = bytearray(SOUND)
    if truncate:
        del buf[cut:]
    else:
        for at, value in edits:
            buf[at] = value
    try:
        tree = deserialize(bytes(buf))
    except ValueError:
        return
    assert not truncate
    assert_sound(tree)
