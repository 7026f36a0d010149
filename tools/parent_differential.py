"""Parent differential: this checkout's answers and snapshots against another commit's.

    python tools/parent_differential.py REF

Extracts the files of commit REF (for example HEAD~1) with `git archive`
into a temporary directory, then trains the same 149 trees with the
streamtree package under src/ of this checkout and with REF's, one
process per side, and compares them:

- acceptance seeds 0-19 (D=3 K=5, 40,000 rows each);
- the 100 fuzzed mixed-flag streams of criterion 3;
- criterion 8's drifting stream at max_nodes 1, 3, 7 and 100;
- a Covertype-shaped D=54 K=7 stream at max_nodes 2047 and 15;
- a D=54 K=7 stream of tight clusters (spread 0.04) at max_nodes 2047
  and 15, on whose wide waves most knot rows cross at a step, so that
  signum_update re-sorts many rows on either side of its row-count rule;
- frozen-leaf trees at max_nodes 3 and 7;
- train masks of share 0.1 and 0.9 at max_nodes 2047 and 7;
- acceptance seeds 0 and 1 at n_min 1 and 7, where segments are short;
- a stream of four classes in four regions, whose leaves hold one class,
  at max_nodes 3 and 7, so that most attempts cannot act and the arena
  fills in the middle of a chunk;
- a D=4 K=3 stream of integer-grid features, whose zeros carry either
  sign, and a column of +-0.0 alone, at max_nodes 2047 and 7: its
  observations tie with sketch knots, which generated Gaussian streams
  never do;
- resumed trees: acceptance seed 2 (12,000 rows) at n_min 7 and 50,
  whose first 2,000 rows go in as single train() calls, after which
  every non-frozen leaf's samples-since-attempt counter is set to
  n_min - 1, n_min or 3 n_min + 1 in the tree's snapshot. Only a
  snapshot can hold a counter at or past n_min on a leaf that may still
  split, and a tree trained from empty never does;
- a served tree, the serve-bundles benchmark's traffic: acceptance seed
  3 trained on its first 40,000 rows, then 8,192 more rows of its
  population in a seeded order, a share of 0.1 of them train-flagged.
  Most of its bundles change no leaf's answer, so they take the early
  exit of Tree._answers. It is also run as a device sync loop: a
  serialize() after every 128-row bundle, with every other snapshot
  held, as the view, a slice of it or an array over it, and hashed only
  after the loop. serialize() writes into the pages of a tree's earlier
  snapshots once nothing holds them, so a snapshot changed behind its
  holder shows as a digest that differs from the other side's.

It also hashes nine generator streams on each side, on which no tree is
trained: the populations of the three benchmark workloads (D=3 K=5 at
160,000 and 168,000 rows, D=54 K=7 at 20,000 rows), and streams of
B - 1, B and B + 1 rows at D=3 and at D=54, where B is the rows in one
generator block. So a change to the generator alone is checked against
REF's output too.

Every other tree starts empty; a resumed tree's every feeding starts
from a deserialize() of its start snapshot. Each side first hashes every
corpus stream (feature bytes, labels and train flags) and every start
snapshot. A stream that differs means the generators or the start trees
differ: the script names those corpora and compares answers only on the
others, so a changed generator does not read as a wall of answer
mismatches. Each stream is fed through process_bundle in chunks of 1,
37, 128, 1,000 and 5,000 rows, the served tree's in bundles of 1, 8, 32
and 128 rows, and as single train()/infer() calls; every feeding must
give the other side's answers and serialize() sha256. 128 rows is the
serve-bundles benchmark's bundle size, at which about half of the
corpus's kernel calls take the split-attempt check's early exit (see
Tree._attempt_rows). In
the 1,000-row feeding, per-row infer() also answers each chunk's rows on
the tree the earlier chunks left, before the chunk goes in, so an answer
that a later chunk should have changed shows as a mismatch. On every final tree, and
on its deserialize(serialize()) copy, per-row infer() and sort_to_leaf()
and the batched predict() must agree on probe rows: the stream's rows,
random rows, and rows made of the thresholds and of +-0.0. A side without
Tree.predict answers those with per-row infer(). The script prints the
tree, node and frozen-leaf counts and every mismatch, and exits 1 on any.
The thresholds, the frozen leaves and the resumed trees' counters are
read and set in snapshot records, which every side since the record
layout shares.
Of the 158 streams it compares, 149 feed trees and nine are the
generator streams above; 12 of its 1,936 digests are the served tree's.
The corpora are those of tests/test_learn.py and tests/test_acceptance.py,
but for the resumed trees, the tied stream, the tight D=54 stream and
the served tree.
It takes some minutes per side.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHUNKS = (1, 37, 128, 1_000, 5_000)
# the served tree's bundle sizes, the rows it serves and its sync loop's bundle size
SERVED_CHUNKS = (1, 8, 32, 128)
SERVED_ROWS = 8_192
SYNC_BUNDLE = 128
# the feeding whose chunks per-row infer() answers before they go in
BETWEEN_CHUNK = 1_000
# the rows a resumed tree is trained on before its counters are set
RESUME_AT = 2_000
# generate_clusters draws max(1, GENERATOR_BLOCK_VALUES // dims) rows per block
GENERATOR_BLOCK_VALUES = 2**17


def corpus(st, np):
    """(name, params, stream, origin) of the 149 trees.

    origin is None for a tree that starts empty, else the snapshot bytes
    of the tree that every feeding of the stream starts from.
    """
    H, S, D = st.Hyperparams, st.Sample, st.DatasetSpec
    for seed in range(20):
        spec = D(clusters=5, dims=3, samples=40_000, cluster_spread=0.04, center_box=2.0, seed=seed)
        yield f"acceptance-{seed}", H(dims=3, classes=5, tau=0.1), st.generate_clusters(spec), None

    rng = np.random.default_rng(300)
    for i in range(100):
        n = int(rng.integers(1, 2001))
        dims = int(rng.integers(1, 5))
        classes = int(rng.integers(2, 6))
        params = H(
            dims=dims, classes=classes,
            n_min=int(rng.integers(20, 200)),
            tau=float(rng.uniform(0.02, 0.2)),
            max_nodes=int(rng.choice([1, 3, 15, 63])),
        )
        share = float(rng.uniform(0.3, 1.0))
        stream = [
            S(rng.normal(0, 2, dims).astype(np.float32),
              int(rng.integers(0, classes)),
              bool(rng.random() < share))
            for _ in range(n)
        ]
        yield f"criterion3-{i}", params, stream, None

    rng = np.random.default_rng(800)
    drifting = []
    centers = rng.uniform(-4, 4, (3, 3))
    for i in range(100_000):
        if i % 10_000 == 0 and i:
            centers = rng.uniform(-4, 4, (3, 3))
        label = int(rng.integers(0, 3))
        x = centers[label] + rng.normal(0, 0.3, 3)
        if rng.random() < 0.1:
            label = int(rng.integers(0, 3))
        drifting.append(S(x.astype(np.float32), label))
    for nodes in (1, 3, 7, 100):
        yield f"criterion8-{nodes}", H(dims=3, classes=3, n_min=50, tau=0.1, max_nodes=nodes), drifting, None

    wide = st.generate_clusters(D(clusters=7, dims=54, samples=6_000, cluster_spread=0.5, seed=1))
    for nodes in (2047, 15):
        yield f"d54k7-{nodes}", H(dims=54, classes=7, tau=0.2, n_min=100, max_nodes=nodes), wide, None
    # clusters about as wide as the sketch step, so most knot rows cross at a step
    tight = st.generate_clusters(D(clusters=7, dims=54, samples=6_000, cluster_spread=0.04, seed=2))
    for nodes in (2047, 15):
        params = H(dims=54, classes=7, tau=0.2, n_min=100, max_nodes=nodes)
        yield f"d54k7-tight-{nodes}", params, tight, None

    clusters = st.generate_clusters(D(clusters=5, dims=3, samples=8_000, cluster_spread=0.3, seed=7))
    for nodes in (3, 7):
        yield f"frozen-{nodes}", H(dims=3, classes=5, tau=0.1, n_min=100, max_nodes=nodes), clusters, None
    for share in (0.1, 0.9):
        rng = np.random.default_rng(7)
        masked = [S(s.features, s.label, bool(rng.random() < share)) for s in clusters]
        for nodes in (2047, 7):
            params = H(dims=3, classes=5, tau=0.1, n_min=50, max_nodes=nodes)
            yield f"masked-{share}-{nodes}", params, masked, None

    for seed in (0, 1):
        spec = D(clusters=5, dims=3, samples=40_000, cluster_spread=0.04, center_box=2.0, seed=seed)
        stream = st.generate_clusters(spec)
        for n_min in (1, 7):
            yield f"acceptance-{seed}-n_min-{n_min}", H(dims=3, classes=5, tau=0.1, n_min=n_min), stream, None

    rng = np.random.default_rng(11)
    labels = rng.integers(0, 4, 3_000)
    X = (labels[:, None] + rng.uniform(-0.25, 0.25, (3_000, 2))).astype(np.float32)
    regions = [S(x, int(y)) for x, y in zip(X, labels)]
    for nodes in (3, 7):
        params = H(dims=2, classes=4, n_min=20, tau=1.0, max_nodes=nodes)
        yield f"one-class-leaves-{nodes}", params, regions, None

    rng = np.random.default_rng(900)
    labels = rng.integers(0, 3, 5_000)
    X = (labels[:, None] + rng.integers(-2, 3, (5_000, 4))).astype(np.float32)
    X[:, 3] = 0.0
    zeros = X == 0.0
    X[zeros] = rng.choice(np.float32([0.0, -0.0]), size=int(zeros.sum()))
    tied = [S(x, int(y)) for x, y in zip(X, labels)]
    for nodes in (2047, 7):
        params = H(dims=4, classes=3, n_min=50, tau=0.1, max_nodes=nodes)
        yield f"ties-and-signed-zeros-{nodes}", params, tied, None

    spec = D(clusters=5, dims=3, samples=12_000, cluster_spread=0.04, center_box=2.0, seed=2)
    stream = st.generate_clusters(spec)
    for n_min in (7, 50):
        params = H(dims=3, classes=5, tau=0.1, n_min=n_min)
        for count in (n_min - 1, n_min, 3 * n_min + 1):
            origin = resumed(st, params, stream[:RESUME_AT], count)
            yield f"resumed-{n_min}-{count}", params, stream[RESUME_AT:], origin

    yield served(st, np)


def served(st, np):
    """The serve-bundles benchmark's traffic: (name, params, stream, origin) of one served tree.

    Acceptance seed 3's population, one generator stream, trained on its
    first 40,000 rows; the rows after them, in a seeded order, with a
    share of 0.1 train-flagged, are the stream.
    """
    spec = st.DatasetSpec(clusters=5, dims=3, samples=40_000 + SERVED_ROWS,
                          cluster_spread=0.04, center_box=2.0, seed=3)
    pool = st.generate_clusters(spec)
    params = st.Hyperparams(dims=3, classes=5, tau=0.1)
    tree = st.Tree(params)
    st.run_prequential(tree, pool[:40_000])
    rng = np.random.default_rng(3)
    rest = [pool[i] for i in 40_000 + rng.permutation(SERVED_ROWS)]
    flags = rng.random(SERVED_ROWS) < 0.1
    stream = [st.Sample(s.features, s.label, bool(f)) for s, f in zip(rest, flags)]
    return "served-3", params, stream, bytes(st.serialize(tree))


def stream_only(st):
    """(name, stream) of the generator streams that no tree is trained on.

    The populations of the three benchmark workloads, and streams one row
    short of, at and one row past a generator block at D=3 and at D=54.
    """
    D = st.DatasetSpec
    yield "stream-synth-d3k5", st.generate_clusters(D(5, 3, 160_000, 0.04))
    yield "stream-covtype-d54k7", st.generate_clusters(D(7, 54, 20_000, 0.5))
    yield "stream-serve-bundles", st.generate_clusters(D(5, 3, 168_000, 0.04))
    for dims in (3, 54):
        rows = max(1, GENERATOR_BLOCK_VALUES // dims)
        for samples in (rows - 1, rows, rows + 1):
            yield f"stream-d{dims}-{samples}", st.generate_clusters(D(7, dims, samples, 0.5, seed=dims))


def records(st, tree):
    """A writable copy of tree's snapshot and a record view of its used slots.

    Both sides' snapshots share one layout, so what is read or set here
    means the same on either.
    """
    from streamtree.serialize import _records

    buf = bytearray(st.serialize(tree))
    return buf, _records(buf, tree.params, tree.node_count)


def resumed(st, params, warmup, count) -> bytes:
    """Snapshot of a tree fed warmup as single train() calls.

    In it, each non-frozen leaf's samples-since-attempt counter is set to count.
    """
    tree = st.Tree(params)
    for s in warmup:
        tree.train(s)
    buf, rec = records(st, tree)
    rec["since_last_attempt"][(rec["kind"] == 0) & (rec["frozen"] == 0)] = count
    return bytes(buf)


def sync_loop(st, np, tree, stream) -> str:
    """Digest of the snapshots after every SYNC_BUNDLE-row bundle, every other one held to the end.

    A held snapshot is kept as the view, a slice of it or an array over
    it, and hashed after the loop; the others are hashed and dropped at
    once, so later snapshots may write into their pages.
    """
    holds = (lambda s: s, lambda s: s[1:], lambda s: np.frombuffer(s, np.uint8))
    digests, held = [], []
    for k, start in enumerate(range(0, len(stream), SYNC_BUNDLE)):
        st.process_bundle(tree, st.Bundle(stream[start : start + SYNC_BUNDLE], SYNC_BUNDLE))
        snapshot = st.serialize(tree)
        if k % 2:
            digests.append(sha(snapshot))
        else:
            digests.append(None)
            held.append((k, holds[k // 2 % len(holds)](snapshot)))
        del snapshot
    for k, view in held:
        digests[k] = sha(memoryview(view))
    return sha(digests)


def sha(data) -> str:
    """sha256 of a bytes-like buffer's bytes, or of anything else as JSON."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        data = json.dumps(data).encode()
    return hashlib.sha256(data).hexdigest()


def stream_digest(stream, np) -> str:
    """sha256 of a stream's f32 feature rows, int64 labels and bool train flags."""
    features = np.array([s.features for s in stream], dtype=np.float32)
    labels = np.array([s.label for s in stream], dtype=np.int64)
    flags = np.array([s.train for s in stream], dtype=bool)
    return sha(repr(features.shape).encode() + features.tobytes() + labels.tobytes() + flags.tobytes())


def probe_rows(st, tree, stream, np):
    """The stream's rows, random rows, and rows of every threshold and +-0.0."""
    dims = tree.params.dims
    rng = np.random.default_rng(dims)
    _, rec = records(st, tree)
    values = np.concatenate([rec["split_value"][rec["kind"] == 1], np.float32([0.0, -0.0])])
    return np.concatenate([
        np.array([s.features for s in stream], dtype=np.float32).reshape(-1, dims),
        rng.normal(0, 3, (500, dims)).astype(np.float32),
        rng.choice(values, size=(500, dims)),
    ])


def worker(src: str) -> None:
    """Print one JSON object of digests for the package under src."""
    sys.path.insert(0, src)
    import numpy as np
    import streamtree as st

    streams, out, nodes, frozen = {}, {}, 0, 0
    for name, params, stream, origin in corpus(st, np):
        streams[name] = stream_digest(stream, np)
        if origin is not None:
            streams[name] = sha((streams[name] + sha(origin)).encode())

        def fresh():
            return st.Tree(params) if origin is None else st.deserialize(origin)

        for chunk in SERVED_CHUNKS if name.startswith("served") else CHUNKS:
            tree = fresh()
            answers, between = [], []
            for start in range(0, len(stream), chunk):
                part = stream[start : start + chunk]
                if chunk == BETWEEN_CHUNK:
                    between += [tree.infer(s.features) for s in part]
                answers += st.process_bundle(tree, st.Bundle(part, chunk))
            out[f"{name}/chunk-{chunk}"] = [sha(answers), sha(st.serialize(tree))]
            if chunk == BETWEEN_CHUNK:
                out[f"{name}/chunk-{chunk}/infer-between"] = sha(between)
        if name.startswith("served"):
            out[f"{name}/sync-loop"] = sync_loop(st, np, fresh(), stream)
        tree = fresh()
        answers = [tree.train(s) if s.train else tree.infer(s.features) for s in stream]
        out[f"{name}/single"] = [sha(answers), sha(st.serialize(tree))]

        X = probe_rows(st, tree, stream, np)
        for side, t in (("live", tree), ("loaded", st.deserialize(st.serialize(tree)))):
            infer = [t.infer(x) for x in X]
            batched = t.predict(X).tolist() if hasattr(t, "predict") else infer
            out[f"{name}/{side}/infer"] = sha(infer)
            out[f"{name}/{side}/sort_to_leaf"] = sha([t.sort_to_leaf(x) for x in X])
            out[f"{name}/{side}/predict"] = sha(batched)
        nodes += tree.node_count
        frozen += int(np.count_nonzero(records(st, tree)[1]["frozen"]))
        print(f"{src}: {name}", file=sys.stderr, flush=True)
    for name, stream in stream_only(st):
        streams[name] = stream_digest(stream, np)
    summary = {"nodes": nodes, "frozen_leaves": frozen}
    print(json.dumps({"streams": streams, "digests": out, "summary": summary}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("ref", help="commit to compare against, such as HEAD~1")
    parser.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        worker(args.worker)
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.ref, "src"], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"this checkout": str(ROOT / "src"), args.ref: str(Path(tmp) / "src")}
        procs = {
            label: subprocess.Popen([sys.executable, __file__, args.ref, "--worker", src],
                                    stdout=subprocess.PIPE, text=True)
            for label, src in sides.items()
        }
        results = {}
        for label, proc in procs.items():
            stdout, _ = proc.communicate()
            if proc.returncode:
                print(f"{label}: worker failed with status {proc.returncode}")
                return 1
            results[label] = json.loads(stdout)

    mine, theirs = results.values()
    changed = {name for name, digest in theirs["streams"].items()
               if mine["streams"].get(name) != digest}
    for name in sorted(changed):
        print(f"STREAM MISMATCH {name}: the generators or start trees differ, "
              "its answers are not compared")
    compared = [key for key in theirs["digests"] if key.split("/")[0] not in changed]
    mismatches = [key for key in compared if mine["digests"].get(key) != theirs["digests"][key]]
    trees = len({key.split("/")[0] for key in theirs["digests"]})
    print(f"{trees} trees, {mine['summary']['nodes']} nodes, "
          f"{mine['summary']['frozen_leaves']} frozen leaves "
          f"({args.ref}: {theirs['summary']['nodes']} nodes, "
          f"{theirs['summary']['frozen_leaves']} frozen leaves)")
    for key in mismatches:
        print(f"MISMATCH {key}")
    print(f"{len(theirs['streams']) - len(changed)} of {len(theirs['streams'])} streams agree; "
          f"{len(compared) - len(mismatches)} of {len(compared)} compared digests agree")
    return 1 if changed or mismatches or mine["summary"] != theirs["summary"] else 0


if __name__ == "__main__":
    sys.exit(main())
