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
and the total size an exact closed form. The live tree keeps its nodes in
records of this layout: serialize() copies the used records and fills in
the sketch counts, which equal the class counts (every sketch of a class
row has absorbed that class's samples), and the samples since the last
split attempt, saturated at 2^32 - 1; deserialize() checks the records
and keeps one canonical copy of them as the live records.

serialize() returns a read-only memoryview over private anonymous pages
(mmap with MAP_PRIVATE, so POSIX only). The kernel zero-fills a page on its
first touch, and reading an untouched page maps the shared zero page, so
the empty capacity costs neither time nor memory: a snapshot costs what its
header and used records do. The view compares, hashes, slices and writes
like bytes; bytes(serialize(tree)) makes a bytes copy. deserialize() takes
any C-contiguous bytes-like buffer, of any item size.

This module keeps the mappings of each live tree's last two snapshots, and
serialize() writes into one of them once no view of it is alive: a device
sync that drops the snapshot before last then touches pages already
faulted in, as a device buffer updated in place would. A snapshot that is
still held never changes, and the kept mappings go with the tree. So a
live tree holds at most two snapshots' used pages beyond those its caller
still holds.
"""

from __future__ import annotations

import math
import mmap
import struct
import sys
import threading
import weakref
from functools import lru_cache
from itertools import chain
from operator import gt

import numpy as np

from .tree import _KIND_INTERNAL, _KIND_LEAF, Hyperparams, Tree, _record_dtype, _Records

__all__ = ["serialize", "deserialize", "model_bytes", "node_record_bytes"]

MAGIC = b"HTRE"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sH8I3f")

# the record fields an internal node uses; a leaf uses all the others
_SPLIT_FIELDS = ("split_attr", "split_value", "left", "right")


@lru_cache(maxsize=16)
def _load_plan(header: bytes) -> tuple:
    """A header's Hyperparams and record layout, built and checked once per distinct header.

    A device sync reloads one model again and again. The key is the
    header's bytes, not its values, which would let a tau of -0.0 come back
    as a cached 0.0; invalid values raise every time. Besides the params and
    the live dtype: keep, a byte row per kind, 255 on the bytes the kind
    uses, 0 on the others and 1 on a leaf's frozen byte; and views of a
    record as bytes, as its kind and split fields, and as its u64 counts.
    """
    _, _, max_nodes, dims, classes, n_quantiles, n_pt, n_min, _, _, delta, lam, tau = (
        _HEADER.unpack(header))
    params = Hyperparams(
        dims=dims, classes=classes, delta=float(delta), lam=float(lam), tau=float(tau),
        n_min=n_min, n_pt=n_pt, n_quantiles=n_quantiles, max_nodes=max_nodes,
    )
    wire = _record_dtype(dims, classes, n_quantiles)
    keep = np.zeros((2, wire.itemsize), dtype=np.uint8)
    for name, (field, offset) in wire.fields.items():
        span = slice(offset, offset + field.itemsize)
        keep[_KIND_LEAF, span] = 0 if name in _SPLIT_FIELDS else 1 if name == "frozen" else 255
        keep[_KIND_INTERNAL, span] = 255 if name == "kind" or name in _SPLIT_FIELDS else 0

    def view(names, formats):
        return np.dtype({"names": names, "formats": formats, "itemsize": wire.itemsize,
                         "offsets": [wire.fields[f][1] for f in names]})

    topology = ["kind", *_SPLIT_FIELDS]
    return (params, _record_dtype(dims, classes, n_quantiles, live=True), keep,
            np.dtype((np.uint8, (wire.itemsize,))), view(topology, [wire[f] for f in topology]),
            # class counts shaped to broadcast against their sketch counts
            view(["class_counts", "sketch_counts"], [("<u8", (classes, 1)), ("<u8", (classes, dims))]))


def node_record_bytes(dims: int, classes: int, n_quantiles: int) -> int:
    """Exact size of one arena slot on the wire."""
    return _record_dtype(dims, classes, n_quantiles).itemsize


def model_bytes(params: Hyperparams) -> int:
    """Exact serialized size: header plus max_nodes identical node records."""
    return _HEADER.size + params.max_nodes * node_record_bytes(
        params.dims, params.classes, params.n_quantiles)


def _records(buffer, params: Hyperparams, count: int) -> np.ndarray:
    """Record view over the first count arena slots of a snapshot buffer."""
    dtype = _record_dtype(params.dims, params.classes, params.n_quantiles)
    return np.frombuffer(buffer, dtype, count, _HEADER.size)


def _refs(slots: list, i: int) -> int:
    """sys.getrefcount of slots[i]; _FREE is this call's count on a mapping no one else holds."""
    return sys.getrefcount(slots[i])


def _free_refs() -> int | None:
    """The count _refs gives for a mapping that only its slot holds, or None where it cannot tell.

    This is the probe for a snapshot that is still held: every buffer
    exported from a mapping, and so every memoryview, slice of one and
    np.frombuffer array over one, holds a reference to the mapping. It does
    not raise and makes no system call. The count is measured here, not
    assumed, because interpreters differ in the references a call holds.
    Without sys.getrefcount (PyPy), or where a view does not raise the
    count, it is None, and every snapshot maps fresh pages.
    """
    if not hasattr(sys, "getrefcount"):
        return None
    slots = [mmap.mmap(-1, 1)]
    free = _refs(slots, 0)
    with memoryview(slots[0]):
        viewed = _refs(slots, 0)
    return free if viewed == free + 1 else None


_FREE = _free_refs()
# the mappings of each live tree's last two snapshots, the newest last
_kept: weakref.WeakKeyDictionary[Tree, list[mmap.mmap]] = weakref.WeakKeyDictionary()
_kept_lock = threading.Lock()


def _pages(tree: Tree, size: int) -> mmap.mmap:
    """A private mapping of size bytes for tree's next snapshot.

    One of the tree's kept mappings that nothing else holds, if there is
    one, else fresh pages, which replace the older kept mapping. The
    caller's reference to the pages marks them as held from the moment the
    lock is released, so another thread's probe passes them over.
    """
    if _FREE is None:
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    with _kept_lock:
        slots = _kept.get(tree)
        if slots is None:
            slots = _kept[tree] = []
        for i in range(len(slots)):
            if _refs(slots, i) == _FREE:
                slots.append(slots.pop(i))
                return slots[-1]
        slots.append(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE))
        del slots[:-2]
        return slots[-1]


def serialize(tree: Tree) -> memoryview:
    """Snapshot the whole arena, including empty capacity, into one read-only buffer.

    The buffer is model_bytes private pages: those of one of the tree's
    last two snapshots that no view holds any more, else fresh ones, which
    the kernel fills with zeros when they are first touched. The header is
    packed into them and the used records copied in once, then their two
    derived fields are filled in; the pages of empty capacity are never
    touched, so the cost follows node_count, not max_nodes. The buffer
    never changes while a view of it is alive, and its bytes are those of
    a fresh mapping: a tree's node_count never falls, so the header and
    records 0..node_count-1 cover every byte an earlier snapshot of the
    tree wrote, and the records past them are still zero."""
    p, n, pool = tree.params, tree.node_count, tree._pool
    pages = _pages(tree, model_bytes(p))
    _HEADER.pack_into(
        pages, 0, MAGIC, FORMAT_VERSION, p.max_nodes, p.dims, p.classes, p.n_quantiles,
        p.n_pt, p.n_min, n, tree.root, p.delta, p.lam, p.tau,
    )
    used = pool.array[:n]
    pages[_HEADER.size : _HEADER.size + used.nbytes] = used
    rec = _records(pages, p, n)
    # every absorbed sample updates all dims sketches of its label's row
    rec["sketch_counts"] = rec["class_counts"][:, :, None]
    # only a frozen leaf counts this far, and it never attempts a split again
    rec["since_last_attempt"] = np.minimum(pool.since[:n], 2**32 - 1)
    return memoryview(pages).toreadonly()


def deserialize(buffer: bytes | bytearray | memoryview) -> Tree:
    """Rebuild a tree from a serialize() buffer, or raise a ValueError naming the fault.

    README.md ("Snapshot format") lists the checks. The tree keeps one copy
    of the records, made canonical: see _load_plan's keep. The buffer is
    read as bytes whatever its item size, so lengths and offsets count
    bytes; it must be C-contiguous."""
    view = memoryview(buffer)
    if not view.c_contiguous:
        raise ValueError("buffer is not C-contiguous")
    buffer = view.cast("B")
    if len(buffer) < _HEADER.size:
        raise ValueError("buffer too short for header")
    header = bytes(buffer[: _HEADER.size])
    magic, version, max_nodes, dims, classes, n_quantiles, *_, node_count, root, _, _, _ = (
        _HEADER.unpack(header))
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version}")
    # Hyperparams allocates n_quantiles targets, so a damaged header must not
    # reach it unless the buffer could hold its records' 4-byte knots
    knots = max_nodes * classes * dims * n_quantiles
    if 4 * knots > len(buffer):
        raise ValueError(f"buffer is {len(buffer)} bytes, too short for the header's {knots} knots")
    params, dtype, keep, row, topology, counts = _load_plan(header)
    expected = _HEADER.size + max_nodes * dtype.itemsize
    if len(buffer) != expected:
        raise ValueError(f"buffer is {len(buffer)} bytes, expected {expected}")
    if not 1 <= node_count <= max_nodes:
        raise ValueError(f"node_count {node_count} outside [1, {max_nodes}]")
    if root != 0:
        raise ValueError(f"root index {root} is not 0")

    raw = np.frombuffer(buffer, row, node_count, _HEADER.size)
    kind = raw[:, 0]
    # one pass copies the records and makes them canonical
    try:
        canonical = keep.take(kind, 0)
    except IndexError:
        i = int((kind > _KIND_INTERNAL).argmax())
        raise ValueError(f"node {i} has unknown kind {kind[i]}") from None
    np.minimum(raw, canonical, out=canonical)
    live = np.frombuffer(canonical, dtype)

    # frombuffer skips the field checks ndarray.view makes
    nodes = np.frombuffer(canonical, topology).tolist()
    _check_topology(nodes, dims)
    _check_counts(np.frombuffer(canonical, counts))
    _check_knots(live)
    tree = Tree.__new__(Tree)
    tree.params = params
    tree._pool = _Records(params, live, live["since_last_attempt"].astype(np.int64))
    tree._nodes = nodes
    return tree


def _check_topology(nodes: list[tuple], dims: int) -> None:
    """Check canonical records' (kind, split_attr, split_value, left, right) tuples.

    serialize() writes children after their parent, so every child index
    must be above its parent's and every node but the root, node 0, must
    have exactly one parent; then following parents strictly lowers the
    index down to the root, and no descent loops. The common case takes a
    few whole-list builtins, cheaper on a cold cache than numpy calls.
    """
    n = len(nodes)
    kinds, attrs, values, lefts, rights = zip(*nodes)
    if max(attrs) >= dims:
        i = next(i for i, a in enumerate(attrs) if a >= dims)
        raise ValueError(f"node {i} splits on attribute {attrs[i]}, beyond dims {dims}")
    # an f64 sum of f32 values is finite exactly when every value is
    if not math.isfinite(sum(values)):
        i = next(i for i, v in enumerate(values) if not math.isfinite(v))
        raise ValueError(f"node {i} has non-finite threshold {values[i]}")
    internal = kinds.count(_KIND_INTERNAL)
    children = lefts + rights
    # n - 1 internal children cover 1..n-1 once each, and lie above their parent
    if (2 * internal != n - 1 or len(set(children)) != n or max(children) >= n
            or sum(map(gt, children, chain(range(n), range(n)))) != 2 * internal):
        idx, children = np.arange(n), np.array((lefts, rights)).T
        bad = children.max(axis=1) >= n
        if bad.any():
            raise ValueError(f"node {int(bad.argmax())} has child index out of range")
        internal = np.array(kinds, dtype=bool)
        # parents per node, less the one every node but the root needs
        excess = np.bincount(children[internal].ravel(), minlength=n) - (idx > 0)
        if excess.any():
            i = int(np.flatnonzero(excess)[0])
            if excess[i] > 0:
                raise ValueError(f"node {i} is reachable twice (cycle or shared child)")
            raise ValueError(f"node {i} is not reachable from the root")
        i = int(((children.min(axis=1) > idx) != internal).argmax())
        raise ValueError(f"node {i} has a child at or before its own index")


def _check_counts(rec: np.ndarray) -> None:
    """Reject the first record whose counts are wrong; rec views them as u64.

    Every sketch of a class row has absorbed that class's samples, so its
    count must equal the class count, and a count of 2^63 or more would
    wrap in the live int64 counts. The common case takes two ufunc
    reductions over the whole arrays: loads meet cold caches, where each
    numpy call costs several microseconds.
    """
    counts = rec["class_counts"]
    differ = rec["sketch_counts"] != counts
    if not np.logical_or.reduce(differ, axis=None) and np.maximum.reduce(counts, axis=None) < 2**63:
        return
    wrapped = (counts >= 2**63).any(axis=(1, 2))
    i = int(np.argmax(wrapped | differ.any(axis=(1, 2))))
    if wrapped[i]:
        raise ValueError(f"node {i} has a class count of 2^63 or more")
    raise ValueError(f"node {i} has sketch counts that differ from its class counts")


def _check_knots(live: np.ndarray) -> None:
    """Reject the first seen class whose knots are not finite and sorted.

    Rows of unseen classes are reseeded before any use, so they may hold
    anything. The common case is settled on an aligned copy of the whole
    grid, faster than the records' unaligned floats: every row sorted and
    the sum of all knots finite.
    """
    knots = live["sketch_estimates"]
    q = knots.shape[-1]
    flat = knots.flatten()
    rising = flat[1:] >= flat[:-1]
    # the last knot of each row is compared with the next row's first
    rising[q - 1 :: q] = True
    # a sum of finite knots is finite unless it overflows, and then the
    # exact test below runs
    if np.logical_and.reduce(rising) and math.isfinite(np.add.reduce(flat)):
        return
    good = np.isfinite(knots).all(axis=-1) & (knots[..., 1:] >= knots[..., :-1]).all(axis=-1)
    bad = ~good.all(axis=-1) & (live["class_counts"] > 0)
    if bad.any():
        i = int(bad.any(axis=1).argmax())
        raise ValueError(f"node {i} has non-finite or unsorted sketch knots for class {bad[i].argmax()}")
