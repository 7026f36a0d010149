"""Put a tree's leaves into a given state, for tests.

A tree has no public writer of its statistics. A state a snapshot can
hold goes in through one: reloaded() edits the records of serialize()'s
buffer and loads it, so the state passes every check deserialize()
makes. set_leaf() writes the live records instead: for a samples-since-
attempt count the snapshot's u32 cannot hold, where the same tree must
carry on, and where a loaded tree would learn otherwise, since a
snapshot holds lam and delta as f32. Either takes a leaf index or a
list of them, and writes each given field to every one of those leaves.
"""

import numpy as np

from streamtree.serialize import _records, deserialize, serialize

FIELDS = ("class_counts", "sketch_estimates", "since_last_attempt", "frozen")


def _leaves(tree, leaves, fields) -> np.ndarray:
    assert set(fields) <= set(FIELDS), fields
    leaves = np.atleast_1d(leaves)
    kind = tree.view().kind[leaves]
    if kind.any():
        raise ValueError(f"node {leaves[kind.argmax()]} is not a leaf")
    return leaves


def reloaded(tree, leaves, **fields):
    """deserialize() of tree's snapshot with fields, named as in FIELDS, written to leaves.

    The sketch counts follow the class counts, as serialize() writes them.
    """
    leaves = _leaves(tree, leaves, fields)
    buf = bytearray(serialize(tree))
    rec = _records(buf, tree.params, tree.node_count)
    for name, value in fields.items():
        rec[name][leaves] = value
    rec["sketch_counts"] = rec["class_counts"][:, :, None]
    return deserialize(buf)


def set_leaf(tree, leaves, **fields) -> None:
    """Write fields, named as in FIELDS, into tree's live records of leaves; drop their cached answers."""
    leaves = _leaves(tree, leaves, fields)
    pool = tree._pool
    arrays = dict(zip(FIELDS, (pool.counts, pool.sketch, pool.since, pool.frozen)))
    for name, value in fields.items():
        arrays[name][leaves] = value
    for i in leaves.tolist():
        pool.answer[i] = -1
