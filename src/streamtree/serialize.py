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

from .tree import Hyperparams, LeafStats, Node, Tree

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
    stats = [arena[i].stats for i in leaves]
    class_counts = np.array([s.class_counts for s in stats])
    rec["frozen"][leaves] = [s.frozen for s in stats]
    rec["class_counts"][leaves] = class_counts
    rec["sketch_estimates"][leaves] = [s.sketch_estimates for s in stats]
    # every absorbed sample updates all dims sketches of its label's row
    rec["sketch_counts"][leaves] = class_counts[:, :, None]
    # only a frozen leaf counts this far, and it never attempts a split again
    rec["since_last_attempt"][leaves] = [min(s.since_last_attempt, 2**32 - 1) for s in stats]
    return buf.tobytes()


def deserialize(buffer: bytes) -> Tree:
    """Rebuild a tree from a serialize() buffer.

    Rejects bad magic, unknown versions, truncated or oversized buffers,
    headers whose fields violate the hyperparameter invariants, and node
    records that name a missing child or attribute, hold a non-finite
    threshold, or carry sketch counts that differ from their class counts.
    """
    if len(buffer) < _HEADER.size:
        raise ValueError("buffer too short for header")
    (
        magic, version, max_nodes, dims, classes, n_quantiles,
        n_pt, n_min, node_count, root, delta, lam, tau,
    ) = _HEADER.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    params = Hyperparams(
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
    expected = model_bytes(params)
    if len(buffer) != expected:
        raise ValueError(f"buffer is {len(buffer)} bytes, expected {expected}")
    if not 1 <= node_count <= max_nodes:
        raise ValueError(f"node_count {node_count} outside [1, {max_nodes}]")
    if root >= node_count:
        raise ValueError(f"root index {root} out of range")

    rec = _records(buffer, params, node_count)
    scalars = ["kind", "frozen", "split_attr", "split_value", "left", "right", "since_last_attempt"]
    class_counts, estimates = rec["class_counts"], rec["sketch_estimates"]
    counts_differ = (rec["sketch_counts"] != class_counts[:, :, None]).any(axis=(1, 2))
    tree = Tree.__new__(Tree)
    tree.params = params
    tree.root = root
    arena: list[Node] = []
    for i, (kind, frozen, attr, value, left, right, since) in enumerate(rec[scalars].tolist()):
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
            stats = LeafStats(params)
            stats.class_counts[:] = class_counts[i]
            stats.sketch_estimates[:] = estimates[i]
            stats.frozen = bool(frozen)
            stats.since_last_attempt = since
            node = Node(stats)
        else:
            raise ValueError(f"node {i} has unknown kind {kind}")
        arena.append(node)
    _check_structure(arena, root)
    tree.arena = arena
    return tree


def _check_structure(arena: list[Node], root: int) -> None:
    # every slot reachable exactly once from the root, so descent terminates
    seen = np.zeros(len(arena), dtype=bool)
    stack = [root]
    while stack:
        idx = stack.pop()
        if seen[idx]:
            raise ValueError(f"node {idx} is reachable twice (cycle or shared child)")
        seen[idx] = True
        node = arena[idx]
        if node.stats is None:
            stack.extend((node.left, node.right))
    if not seen.all():
        orphan = int(np.flatnonzero(~seen)[0])
        raise ValueError(f"node {orphan} is not reachable from the root")
