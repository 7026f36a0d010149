"""Flat binary tree snapshots.

A serialized tree is one contiguous little-endian buffer sized for the full
arena capacity, so a model can be copied into a device buffer once and
updated in place. Layout:

  header (50 bytes):
    magic "HTRE" | u16 version | u32 max_nodes, dims, classes, n_quantiles,
    n_pt, n_min, node_count, root | f32 delta, lambda, tau
  then max_nodes fixed-size node records, packed as _record_dtype lists

Unused arena slots and unused fields (split data on leaves, statistics on
internal nodes) are zero-filled, which makes re-serialization byte-stable
and the total size an exact closed form. A leaf's sketch counts are not
kept live: every sketch of a class row has absorbed exactly that class's
samples, so they are written from the class counts and checked against
them on load.
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from .tree import Hyperparams, LeafStats, Node, Tree, _StatsPool

__all__ = ["serialize", "deserialize", "model_bytes", "node_record_bytes"]

MAGIC = b"HTRE"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sH8I3f")

_KIND_LEAF = 0
_KIND_INTERNAL = 1


@lru_cache(maxsize=16)
def _record_dtype(dims: int, classes: int, n_quantiles: int) -> np.dtype:
    """The node record: packed, little-endian, one field per wire field."""
    return np.dtype([
        ("kind", "u1"),
        ("frozen", "u1"),
        ("split_attr", "<u4"),
        ("split_value", "<f4"),
        ("left", "<u4"),
        ("right", "<u4"),
        ("class_counts", "<u8", (classes,)),
        ("sketch_estimates", "<f4", (classes, dims, n_quantiles)),
        ("sketch_counts", "<u8", (classes, dims)),
        ("since_last_attempt", "<u4"),
    ])


@lru_cache(maxsize=16)
def _params(header: bytes) -> Hyperparams:
    """The hyperparameters of a header, validated once per distinct header.

    A device sync reloads snapshots of one model again and again; building
    and checking a Hyperparams costs more than this lookup. The key is the
    header's bytes, not its values, which would let a tau of -0.0 come
    back as a cached 0.0. Invalid values raise every time, since
    lru_cache keeps no exceptions.
    """
    (
        _, _, max_nodes, dims, classes, n_quantiles,
        n_pt, n_min, _, _, delta, lam, tau,
    ) = _HEADER.unpack(header)
    return Hyperparams(
        dims=dims,
        classes=classes,
        delta=float(delta),
        lam=float(lam),
        tau=float(tau),
        n_min=n_min,
        n_pt=n_pt,
        n_quantiles=n_quantiles,
        max_nodes=max_nodes,
    )


def node_record_bytes(dims: int, classes: int, n_quantiles: int) -> int:
    """Exact size of one arena slot on the wire."""
    return _record_dtype(dims, classes, n_quantiles).itemsize


def model_bytes(params: Hyperparams) -> int:
    """Exact serialized size of a tree with the given parameters.

    Affine in max_nodes: header plus max_nodes identical node records.
    """
    return _HEADER.size + params.max_nodes * node_record_bytes(
        params.dims, params.classes, params.n_quantiles
    )


def _records(buffer, params: Hyperparams, count: int) -> np.ndarray:
    """Record view over the first count arena slots of a snapshot buffer."""
    dtype = _record_dtype(params.dims, params.classes, params.n_quantiles)
    return np.frombuffer(buffer, dtype, count, _HEADER.size)


def serialize(tree: Tree) -> bytes:
    """Snapshot the whole arena, including empty capacity, into one buffer."""
    p = tree.params
    buf = np.zeros(model_bytes(p), dtype=np.uint8)
    _HEADER.pack_into(
        buf,
        0,
        MAGIC,
        FORMAT_VERSION,
        p.max_nodes,
        p.dims,
        p.classes,
        p.n_quantiles,
        p.n_pt,
        p.n_min,
        tree.node_count,
        tree.root,
        p.delta,
        p.lam,
        p.tau,
    )
    rec = _records(buf, p, tree.node_count)
    arena = tree.arena
    internal = [i for i, node in enumerate(arena) if node.stats is None]
    leaves = [i for i, node in enumerate(arena) if node.stats is not None]
    rec["kind"][internal] = _KIND_INTERNAL
    for field in ("split_attr", "split_value", "left", "right"):
        rec[field][internal] = [getattr(arena[i], field) for i in internal]
    # split fields on leaves and statistics on internal nodes stay zero
    pool = tree._pool
    class_counts = pool.counts[leaves]
    rec["frozen"][leaves] = pool.frozen[leaves]
    rec["class_counts"][leaves] = class_counts
    rec["sketch_estimates"][leaves] = pool.sketch[leaves]
    # every absorbed sample updates all dims sketches of its label's row
    rec["sketch_counts"][leaves] = class_counts[:, :, None]
    # only a frozen leaf counts this far, and it never attempts a split again
    rec["since_last_attempt"][leaves] = np.minimum(pool.since[leaves], 2**32 - 1)
    return buf.tobytes()


def deserialize(buffer: bytes) -> Tree:
    """Rebuild a tree from a serialize() buffer.

    Rejects bad magic, unknown versions, truncated or oversized buffers,
    headers whose fields violate the hyperparameter invariants, and node
    records that name a missing child or attribute, hold a non-finite
    threshold, carry sketch counts that differ from their class counts, or
    hold a non-finite or unsorted knot in the sketch row of a class their
    leaf has seen.
    """
    if len(buffer) < _HEADER.size:
        raise ValueError("buffer too short for header")
    header = bytes(buffer[: _HEADER.size])
    magic, version, *_, node_count, root, _, _, _ = _HEADER.unpack(header)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    params = _params(header)
    max_nodes, dims = params.max_nodes, params.dims
    expected = model_bytes(params)
    if len(buffer) != expected:
        raise ValueError(f"buffer is {len(buffer)} bytes, expected {expected}")
    if not 1 <= node_count <= max_nodes:
        raise ValueError(f"node_count {node_count} outside [1, {max_nodes}]")
    if root >= node_count:
        raise ValueError(f"root index {root} out of range")

    rec = _records(buffer, params, node_count)
    topology = ["kind", "split_attr", "split_value", "left", "right"]
    class_counts, estimates = rec["class_counts"], rec["sketch_estimates"]
    counts_differ = (rec["sketch_counts"] != class_counts[:, :, None]).any(axis=(1, 2)).tolist()
    tree = Tree.__new__(Tree)
    tree.params = params
    tree.root = root
    tree._routes = None
    pool = tree._pool = _StatsPool(
        params,
        class_counts.astype(np.int64),
        estimates.astype(np.float32),
        rec["since_last_attempt"].astype(np.int64),
        rec["frozen"] != 0,
    )
    bad_class = _bad_knot_classes(pool.sketch, pool.counts)
    arena: list[Node] = []
    for i, (kind, attr, value, left, right) in enumerate(rec[topology].tolist()):
        if kind == _KIND_INTERNAL:
            if left >= node_count or right >= node_count:
                raise ValueError(f"node {i} has child index out of range")
            if attr >= dims:
                raise ValueError(f"node {i} splits on attribute {attr}, beyond dims {dims}")
            if not math.isfinite(value):
                raise ValueError(f"node {i} has non-finite threshold {value}")
            node = Node()
            node.split_attr = attr
            node.split_value = value
            node.left = left
            node.right = right
        elif kind == _KIND_LEAF:
            if counts_differ[i]:
                raise ValueError(f"node {i} has sketch counts that differ from its class counts")
            if bad_class[i] >= 0:
                raise ValueError(
                    f"node {i} has non-finite or unsorted sketch knots for class {bad_class[i]}"
                )
            node = Node(LeafStats(params, pool, i))
        else:
            raise ValueError(f"node {i} has unknown kind {kind}")
        arena.append(node)
    _check_structure(arena, root)
    tree.arena = arena
    return tree


def _bad_knot_classes(knots: np.ndarray, counts: np.ndarray) -> list[int]:
    """Per record, the first seen class whose knots are not finite and sorted, or -1.

    knots is (records, classes, dims, n_quantiles) and C-contiguous. Rows
    of unseen classes are reseeded before any use, so they may hold
    anything; the common case, a grid with no bad row at all, is settled
    on the whole grid at once: every row sorted and the sum of all knots
    finite. A snapshot is usually loaded with cold caches, where each
    numpy call costs several microseconds, so the test makes few of them.
    """
    q = knots.shape[-1]
    flat = knots.reshape(-1)
    rising = flat[1:] >= flat[:-1]
    # the last knot of each row is compared with the next row's first
    rising[q - 1 :: q] = True
    # a sum of finite knots is finite unless it overflows, and then the
    # exact test below runs
    if np.logical_and.reduce(rising) and math.isfinite(np.add.reduce(flat)):
        return [-1] * len(knots)
    good = np.isfinite(knots) & np.append(rising, True).reshape(knots.shape)
    bad = ~good.all(axis=(2, 3)) & (counts > 0)
    return np.where(bad.any(axis=1), bad.argmax(axis=1), -1).tolist()


def _check_structure(arena: list[Node], root: int) -> None:
    # every slot reachable exactly once from the root, so descent terminates
    seen = [False] * len(arena)
    stack = [root]
    while stack:
        idx = stack.pop()
        if seen[idx]:
            raise ValueError(f"node {idx} is reachable twice (cycle or shared child)")
        seen[idx] = True
        node = arena[idx]
        if node.stats is None:
            stack.extend((node.left, node.right))
    if not all(seen):
        raise ValueError(f"node {seen.index(False)} is not reachable from the root")
