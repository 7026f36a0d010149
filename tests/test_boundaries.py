"""One table of the input boundaries of every public entry point.

Each cell feeds one class of input to one entry point and expects one of
two outcomes:

- a ValueError whose message names where the fault is (the sample, the
  argument or the field), with the tree's serialize() bytes unchanged;
- a documented acceptance (Accepts): the call gives what a twin call with
  plain input gives on a twin tree, and leaves the same tree behind.

Lone calls (train, infer, sort_to_leaf, Sample) take one row, so their
messages name the fault alone; calls of many rows name the sample.
"""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from buffers import same_bytes

from streamtree import (
    Bundle,
    CsvSchema,
    DatasetSpec,
    Hyperparams,
    Sample,
    Tree,
    deserialize,
    load_csv,
    process_bundle,
    run_prequential,
    serialize,
    split_into_bundles,
    write_samples_csv,
)

PARAMS = Hyperparams(dims=2, classes=3, n_min=5, max_nodes=15)
X = np.array([0.1, 0.2], dtype=np.float32)
ROWS = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6]], dtype=np.float32)
TRAIN = np.ones(3, dtype=bool)
# the header's tau, the last of its three f32 fields
TAU_OFFSET = 46


class Accepts:
    """A documented acceptance: the call answers as twin does on a twin tree."""

    def __init__(self, twin) -> None:
        self.twin = twin


def raw(features, label=1, train=True) -> Sample:
    """A sample whose features are kept as given, uncast, as a caller may set them."""
    s = Sample(X, label, train)
    s.features = features
    return s


def rows_with(value, row=1):
    out = ROWS.astype(np.float64)
    out[row, 0] = value
    return out


def bundle(odd: Sample) -> Bundle:
    """A bundle whose sample 2 is odd, put in after construction, which checks only lengths."""
    b = Bundle([Sample(ROWS[0], 0), Sample(ROWS[1], 1, False), Sample(ROWS[2], 2)], 4)
    b.samples[2] = odd
    return b


def stream(odd: Sample) -> list[Sample]:
    return [Sample(ROWS[0], 0), Sample(ROWS[1], 1), odd]


def prequential(tree, samples, window=2):
    report = run_prequential(tree, samples, window=window)
    return report.correct, report.windowed_accuracy


def write(samples) -> str:
    """write_samples_csv into a fresh directory; its last line, or its refusal, with no file left."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.csv"
        try:
            write_samples_csv(samples, path)
        except ValueError:
            assert not path.exists()
            raise
        return path.read_text().splitlines()[-1]


def load(text: str, delimiter: str = ",") -> list:
    """load_csv of text, as columns a and b and a label of at most two classes: (features, label) per sample."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.csv"
        path.write_text(text)
        schema = CsvSchema(features=["a", "b"], label="label", classes=2, delimiter=delimiter)
        return [(s.features.tolist(), s.label) for s in load_csv(path, schema)]


def with_tau(snapshot: bytes, tau: float) -> bytes:
    buf = bytearray(snapshot)
    struct.pack_into("<f", buf, TAU_OFFSET, tau)
    return bytes(buf)


def grown(params: Hyperparams) -> bytes:
    """The snapshot of a fresh tree after one chunk longer than a learn() block."""
    tree = Tree(params)
    rows = np.random.default_rng(1).normal(size=(9000, 2)).astype(np.float32)
    tree.learn(rows, (rows[:, 0] > 0) + (rows[:, 1] > 0), np.ones(len(rows), dtype=bool))
    return bytes(serialize(tree))


def params(**fields) -> Hyperparams:
    return Hyperparams(**{"dims": 2, "classes": 3, **fields})


def spec(**fields) -> DatasetSpec:
    return DatasetSpec(**{"clusters": 2, "dims": 2, "samples": 5, **fields})


NAN, INF = math.nan, math.inf
FINITE = "features must be finite"

CELLS = [
    # Tree.train: one row, its flag and its label
    ("train", "wrong shape", lambda t: t.train(Sample([0.1, 0.2, 0.3], 1)), r"^expected 2 features, got shape \(3,\)$"),
    ("train", "empty", lambda t: t.train(Sample([], 1)), r"^expected 2 features, got shape \(0,\)$"),
    ("train", "not numbers", lambda t: t.train(raw(["a", "b"])), "^features are not numbers$"),
    ("train", "ragged", lambda t: t.train(raw([[0, 0], [1, 2, 3]])), "^features are not numbers$"),
    ("train", "nan", lambda t: t.train(Sample([NAN, 0.2], 1)), f"^{FINITE}$"),
    ("train", "inf", lambda t: t.train(Sample([0.1, INF], 1)), f"^{FINITE}$"),
    ("train", "-inf", lambda t: t.train(Sample([-INF, 0.2], 1)), f"^{FINITE}$"),
    ("train", "past f32", lambda t: t.train(Sample([3e39, 0.2], 1)), f"^{FINITE}$"),
    ("train", "label 2.9", lambda t: t.train(Sample(X, 2.9)), r"^label 2\.9 is not a class index below 3$"),
    ("train", "label '1'", lambda t: t.train(Sample(X, "1")), "^label '1' is not a class index below 3$"),
    ("train", "label -1", lambda t: t.train(Sample(X, -1)), "^label -1 is not a class index below 3$"),
    ("train", "label classes", lambda t: t.train(Sample(X, 3)), "^label 3 is not a class index below 3$"),
    ("train", "flag 1", lambda t: t.train(Sample(X, 1, 1)), "^train flag 1 is not a bool$"),
    ("train", "flag False", lambda t: t.train(Sample(X, 1, False)), "^sample is not flagged for training$"),
    ("train", "flag np.True_", lambda t: t.train(Sample(X, 1, np.True_)), Accepts(lambda t: t.train(Sample(X, 1)))),
    ("train", "label True", lambda t: t.train(Sample(X, True)), Accepts(lambda t: t.train(Sample(X, 1)))),
    ("train", "numpy label", lambda t: t.train(Sample(X, np.uint8(2))), Accepts(lambda t: t.train(Sample(X, 2)))),
    ("train", "numpy features", lambda t: t.train(raw(np.float64(X))), Accepts(lambda t: t.train(Sample(X, 1)))),
    # Tree.infer and Tree.sort_to_leaf: one row
    ("infer", "wrong shape", lambda t: t.infer([0.1, 0.2, 0.3]), r"^expected 2 features, got shape \(3,\)$"),
    ("infer", "two-dimensional", lambda t: t.infer([X]), r"^expected 2 features, got shape \(1, 2\)$"),
    ("infer", "empty", lambda t: t.infer([]), r"^expected 2 features, got shape \(0,\)$"),
    ("infer", "not numbers", lambda t: t.infer(["a", "b"]), "^features are not numbers$"),
    ("infer", "ragged", lambda t: t.infer([[0, 0], [1, 2, 3]]), "^features are not numbers$"),
    ("infer", "nan", lambda t: t.infer([0.1, NAN]), f"^{FINITE}$"),
    ("infer", "inf", lambda t: t.infer([INF, 0.2]), f"^{FINITE}$"),
    ("infer", "-inf", lambda t: t.infer([0.1, -INF]), f"^{FINITE}$"),
    ("infer", "past f32", lambda t: t.infer([0.1, -3e39]), f"^{FINITE}$"),
    ("infer", "numpy features", lambda t: t.infer(np.float64(X)), Accepts(lambda t: t.infer(X))),
    ("infer", "list", lambda t: t.infer([0.1, 0.2]), Accepts(lambda t: t.infer(X))),
    ("sort_to_leaf", "wrong shape", lambda t: t.sort_to_leaf([0.1]), r"^expected 2 features, got shape \(1,\)$"),
    ("sort_to_leaf", "not numbers", lambda t: t.sort_to_leaf(["a", "b"]), "^features are not numbers$"),
    ("sort_to_leaf", "nan", lambda t: t.sort_to_leaf([NAN, NAN]), f"^{FINITE}$"),
    ("sort_to_leaf", "past f32", lambda t: t.sort_to_leaf([4e38, 0.2]), f"^{FINITE}$"),
    ("sort_to_leaf", "numpy features", lambda t: t.sort_to_leaf(np.float16(X)),
     Accepts(lambda t: t.sort_to_leaf(np.float16(X).astype(np.float32)))),
    # Tree.predict: rows
    ("predict", "wrong shape", lambda t: t.predict(np.zeros((3, 3))), r"^expected rows of 2 features, got shape \(3, 3\)$"),
    ("predict", "one row", lambda t: t.predict(X), r"^expected rows of 2 features, got shape \(2,\)$"),
    ("predict", "ragged", lambda t: t.predict([[0, 0], [1, 2, 3]]), r"^sample 1: expected 2 features, got shape \(3,\)$"),
    ("predict", "ragged scalar", lambda t: t.predict([X, 0.5]), r"^sample 1: expected 2 features, got shape \(\)$"),
    ("predict", "not numbers", lambda t: t.predict([X, ["a", "b"]]), "^sample 1: features are not numbers$"),
    ("predict", "nan", lambda t: t.predict(rows_with(NAN, 2)), f"^sample 2: {FINITE}$"),
    ("predict", "inf", lambda t: t.predict(rows_with(INF)), f"^sample 1: {FINITE}$"),
    ("predict", "-inf", lambda t: t.predict(rows_with(-INF)), f"^sample 1: {FINITE}$"),
    ("predict", "past f32", lambda t: t.predict(rows_with(3e39)), f"^sample 1: {FINITE}$"),
    ("predict", "empty", lambda t: t.predict(np.zeros((0, 2))), Accepts(lambda t: [])),
    ("predict", "numpy features", lambda t: t.predict(ROWS.astype(np.float64)), Accepts(lambda t: t.predict(ROWS))),
    # Tree.learn: rows, labels and train mask
    ("learn", "wrong shape", lambda t: t.learn(np.zeros((3, 3)), [0, 1, 2], TRAIN),
     r"^expected rows of 2 features, got shape \(3, 3\)$"),
    ("learn", "ragged", lambda t: t.learn([X, [1, 2, 3], X], [0, 1, 2], TRAIN),
     r"^sample 1: expected 2 features, got shape \(3,\)$"),
    ("learn", "not numbers", lambda t: t.learn([X, X, ["a", "b"]], [0, 1, 2], TRAIN),
     "^sample 2: features are not numbers$"),
    ("learn", "nan", lambda t: t.learn(rows_with(NAN), [0, 1, 2], TRAIN), f"^sample 1: {FINITE}$"),
    ("learn", "inf", lambda t: t.learn(rows_with(INF, 0), [0, 1, 2], TRAIN), f"^sample 0: {FINITE}$"),
    ("learn", "past f32", lambda t: t.learn(rows_with(-1e39), [0, 1, 2], TRAIN), f"^sample 1: {FINITE}$"),
    ("learn", "label 2.9", lambda t: t.learn(ROWS, [0, 1, 2.9], TRAIN), r"^labels must be 3 integers, got float64 \(3,\)$"),
    ("learn", "label '1'", lambda t: t.learn(ROWS, ["0", "1", "2"], TRAIN), r"^labels must be 3 integers, got <U1 \(3,\)$"),
    ("learn", "label -1", lambda t: t.learn(ROWS, [0, -1, 2], TRAIN), "^sample 1: label -1 is not a class index below 3$"),
    ("learn", "label classes", lambda t: t.learn(ROWS, [0, 1, 3], TRAIN), "^sample 2: label 3 is not a class index below 3$"),
    ("learn", "flag 1", lambda t: t.learn(ROWS, [0, 1, 2], [1, 1, 1]), r"^train_mask must be 3 bools, got int64 \(3,\)$"),
    ("learn", "short mask", lambda t: t.learn(ROWS, [0, 1, 2], TRAIN[:2]), r"^train_mask must be 3 bools, got bool \(2,\)$"),
    ("learn", "untrained label", lambda t: t.learn(ROWS, [0, -1, 7], [True, False, False]),
     Accepts(lambda t: t.learn(ROWS, [0, 0, 0], [True, False, False]))),
    ("learn", "label True", lambda t: t.learn(ROWS, [True, False, True], TRAIN), Accepts(lambda t: t.learn(ROWS, [1, 0, 1], TRAIN))),
    ("learn", "numpy labels", lambda t: t.learn(ROWS, np.array([0, 1, 2], np.uint8), TRAIN),
     Accepts(lambda t: t.learn(ROWS, [0, 1, 2], TRAIN))),
    ("learn", "empty", lambda t: t.learn(np.zeros((0, 2)), np.zeros(0, np.int64), TRAIN[:0]), Accepts(lambda t: [])),
    ("learn", "empty lists", lambda t: t.learn(np.zeros((0, 2)), [], []), Accepts(lambda t: [])),
    ("learn", "empty float mask", lambda t: t.learn(np.zeros((0, 2)), [], np.zeros(0)), Accepts(lambda t: [])),
    ("learn", "float mask", lambda t: t.learn(ROWS, [0, 1, 2], np.ones(3)), r"^train_mask must be 3 bools, got float64 \(3,\)$"),
    ("learn", "short empty list", lambda t: t.learn(np.zeros((1, 2)), [], []), r"^train_mask must be 1 bools, got float64 \(0,\)$"),
    # process_bundle: samples, the odd one put in after construction
    ("process_bundle", "wrong shape", lambda t: process_bundle(t, bundle(Sample([0.1, 0.2, 0.3], 2))),
     r"^sample 2: expected 2 features, got shape \(3,\)$"),
    ("process_bundle", "not numbers", lambda t: process_bundle(t, bundle(raw(["a", "b"]))),
     "^sample 2: features are not numbers$"),
    ("process_bundle", "nan", lambda t: process_bundle(t, bundle(Sample([NAN, 0.2], 2))), f"^sample 2: {FINITE}$"),
    ("process_bundle", "inf", lambda t: process_bundle(t, bundle(Sample([0.1, INF], 2))), f"^sample 2: {FINITE}$"),
    ("process_bundle", "past f32", lambda t: process_bundle(t, bundle(Sample([-3e39, 0.2], 2))), f"^sample 2: {FINITE}$"),
    ("process_bundle", "label 2.9", lambda t: process_bundle(t, bundle(Sample(X, 2.9))),
     r"^sample 2: label 2\.9 is not a class index below 3$"),
    ("process_bundle", "label '1'", lambda t: process_bundle(t, bundle(Sample(X, "1"))),
     "^sample 2: label '1' is not a class index below 3$"),
    ("process_bundle", "label -1", lambda t: process_bundle(t, bundle(Sample(X, -1))),
     "^sample 2: label -1 is not a class index below 3$"),
    ("process_bundle", "label classes", lambda t: process_bundle(t, bundle(Sample(X, 3))),
     "^sample 2: label 3 is not a class index below 3$"),
    ("process_bundle", "flag 1", lambda t: process_bundle(t, bundle(Sample(X, 2, 1))), "^sample 2: train flag 1 is not a bool$"),
    ("process_bundle", "flag np.True_", lambda t: process_bundle(t, bundle(Sample(X, 2, np.True_))),
     Accepts(lambda t: process_bundle(t, bundle(Sample(X, 2))))),
    ("process_bundle", "label True", lambda t: process_bundle(t, bundle(Sample(X, True))),
     Accepts(lambda t: process_bundle(t, bundle(Sample(X, 1))))),
    ("process_bundle", "untrained label", lambda t: process_bundle(t, bundle(Sample(X, None, False))),
     Accepts(lambda t: process_bundle(t, bundle(Sample(X, 0, False))))),
    ("process_bundle", "numpy label", lambda t: process_bundle(t, bundle(Sample(X, np.int64(2)))),
     Accepts(lambda t: process_bundle(t, bundle(Sample(X, 2))))),
    ("process_bundle", "empty", lambda t: process_bundle(t, Bundle([], 4)), Accepts(lambda t: [])),
    # run_prequential: a train-flagged stream and its window
    ("run_prequential", "wrong shape", lambda t: prequential(t, stream(Sample([0.1], 2))),
     r"^sample 2: expected 2 features, got shape \(1,\)$"),
    ("run_prequential", "not numbers", lambda t: prequential(t, stream(raw(["a", "b"]))), "^sample 2: features are not numbers$"),
    ("run_prequential", "nan", lambda t: prequential(t, stream(Sample([0.1, NAN], 2))), f"^sample 2: {FINITE}$"),
    ("run_prequential", "-inf", lambda t: prequential(t, stream(Sample([-INF, 0.2], 2))), f"^sample 2: {FINITE}$"),
    ("run_prequential", "label 2.9", lambda t: prequential(t, stream(Sample(X, 2.9))),
     r"^sample 2: label 2\.9 is not a class index below 3$"),
    ("run_prequential", "label classes", lambda t: prequential(t, stream(Sample(X, 3))),
     "^sample 2: label 3 is not a class index below 3$"),
    ("run_prequential", "flag 1", lambda t: prequential(t, stream(Sample(X, 2, 1))), "^sample 2: train flag 1 is not a bool$"),
    ("run_prequential", "flag False", lambda t: prequential(t, stream(Sample(X, 2, False))),
     "^sample 2: prequential streams must be fully train-flagged$"),
    ("run_prequential", "flag np.True_", lambda t: prequential(t, stream(Sample(X, 2, np.True_))),
     Accepts(lambda t: prequential(t, stream(Sample(X, 2))))),
    ("run_prequential", "empty", lambda t: prequential(t, []), "^stream is empty$"),
    ("run_prequential", "window 0", lambda t: prequential(t, stream(Sample(X, 2)), 0), "^window must be positive$"),
    ("run_prequential", "window 2.5", lambda t: prequential(t, stream(Sample(X, 2)), 2.5),
     r"^window must be an integer, got 2\.5$"),
    ("run_prequential", "window True", lambda t: prequential(t, stream(Sample(X, 2)), True), "^window must be an integer, got True$"),
    ("run_prequential", "numpy window", lambda t: prequential(t, stream(Sample(X, 2)), np.int64(2)),
     Accepts(lambda t: prequential(t, stream(Sample(X, 2)), 2))),
    # Bundle and split_into_bundles: lengths and capacity
    ("Bundle", "wrong shape", lambda t: Bundle([Sample(X), Sample([1, 2, 3])], 4),
     r"^sample 1: expected 2 features, as sample 0, got shape \(3,\)$"),
    ("Bundle", "scalar", lambda t: Bundle([Sample(1.0)], 4), r"^sample 0: expected one row of features, got shape \(\)$"),
    ("Bundle", "capacity 0", lambda t: Bundle([], 0), "^capacity must be positive$"),
    ("Bundle", "capacity 2.5", lambda t: Bundle([Sample(X)], 2.5), r"^capacity must be an integer, got 2\.5$"),
    ("Bundle", "numpy capacity", lambda t: len(Bundle([Sample(X)], np.int64(1)).samples), Accepts(lambda t: 1)),
    ("Bundle", "empty", lambda t: len(Bundle([], 1).samples), Accepts(lambda t: 0)),
    ("split_into_bundles", "capacity 2.5", lambda t: split_into_bundles(stream(Sample(X, 2)), 2.5),
     r"^capacity must be an integer, got 2\.5$"),
    ("split_into_bundles", "numpy capacity", lambda t: [len(b.samples) for b in split_into_bundles(stream(Sample(X)), np.int8(2))],
     Accepts(lambda t: [2, 1])),
    # Sample: any numbers are kept, as f32; the tree checks them
    ("Sample", "not numbers", lambda t: Sample(["a", "b"]), "^features are not numbers$"),
    ("Sample", "ragged", lambda t: Sample([[0, 0], [1, 2, 3]]), "^features are not numbers$"),
    ("Sample", "nan", lambda t: Sample([NAN, 0.2]).features.tobytes(),
     Accepts(lambda t: np.array([NAN, 0.2], np.float32).tobytes())),
    ("Sample", "past f32", lambda t: Sample([3e39, 0.2]).features.tobytes(),
     Accepts(lambda t: np.array([INF, 0.2], np.float32).tobytes())),
    ("Sample", "numpy features", lambda t: Sample(np.float64(X)).features.tobytes(), Accepts(lambda t: X.tobytes())),
    ("Sample", "empty", lambda t: Sample([]).features.shape, Accepts(lambda t: (0,))),
    # write_samples_csv: rows as long as sample 0's and integer labels, refused before the file opens
    ("write_samples_csv", "wrong shape", lambda t: write([Sample(X), Sample([1, 2, 3])]),
     r"^sample 1: expected 2 features, as sample 0, got shape \(3,\)$"),
    ("write_samples_csv", "not numbers", lambda t: write([Sample(X), raw(["a", "b"])]), "^sample 1: features are not numbers$"),
    ("write_samples_csv", "label 2.9", lambda t: write([Sample(X), Sample(X, 2.9)]), r"^sample 1: label 2\.9 is not an integer$"),
    ("write_samples_csv", "label '1'", lambda t: write([Sample(X), Sample(X, "1")]), "^sample 1: label '1' is not an integer$"),
    ("write_samples_csv", "label -1", lambda t: write([Sample(X), Sample(X, -1)]), Accepts(lambda t: "0.1,0.2,-1")),
    ("write_samples_csv", "numpy label", lambda t: write([Sample(X), Sample(X, np.int64(7))]), Accepts(lambda t: "0.1,0.2,7")),
    ("write_samples_csv", "nan", lambda t: write([Sample(X), Sample([NAN, 0.2])]), f"^sample 1: {FINITE}$"),
    ("write_samples_csv", "past f32", lambda t: write([Sample(X), raw([0.1, 3e39])]), f"^sample 1: {FINITE}$"),
    ("write_samples_csv", "empty", lambda t: write([]), "^nothing to write$"),
    # load_csv: every refused row names its line
    ("load_csv", "short row", lambda t: load("a,b,label\n1,2,x\n3,4\n"), "^line 3: row has 2 fields, need 3$"),
    ("load_csv", "not numbers", lambda t: load("a,b,label\n1,x,y\n"), "^line 2: non-numeric value 'x' in column 'b'$"),
    ("load_csv", "nan", lambda t: load("a,b,label\nnan,2,x\n"), "^line 2: non-finite value 'nan' in column 'a'$"),
    ("load_csv", "past f32", lambda t: load("a,b,label\n1,1e39,x\n"), "^line 2: non-finite value '1e39' in column 'b'$"),
    ("load_csv", "too many labels", lambda t: load("a,b,label\n1,2,x\n1,2,y\n1,2,z\n"),
     "^line 4: label 'z' raises cardinality above 2$"),
    ("load_csv", "empty file", lambda t: load(""), "^file is empty, expected a header row$"),
    ("load_csv", "empty label", lambda t: load("a,b,label\n1,2,\n"), "^line 2: empty label '' in column 'label'$"),
    ("load_csv", "blank label", lambda t: load("a,b,label\n1,2,x\n1,2, \n"), "^line 3: empty label ' ' in column 'label'$"),
    ("load_csv", "labels in order", lambda t: load("a,b,label\n1,2,y\n\n3,4,x\n"),
     Accepts(lambda t: [([1.0, 2.0], 0), ([3.0, 4.0], 1)])),
    ("load_csv", "delimiter ''", lambda t: load("a,b,label\n1,2,x\n", ""), "^delimiter must be one character, got ''$"),
    ("load_csv", "delimiter ';;'", lambda t: load("a;;b;;label\n1;;2;;x\n", ";;"),
     "^delimiter must be one character, got ';;'$"),
    ("load_csv", "delimiter ';'", lambda t: load("a;b;label\n1;2;x\n", ";"), Accepts(lambda t: [([1.0, 2.0], 0)])),
    # deserialize: a buffer is read as bytes, whatever its item size
    ("deserialize", "wide items", lambda t: bytes(serialize(deserialize(memoryview(serialize(t)).cast("H")))),
     Accepts(lambda t: bytes(serialize(t)))),
    ("deserialize", "not contiguous", lambda t: deserialize(np.frombuffer(serialize(t), np.uint8)[::2]),
     "^buffer is not C-contiguous$"),
    ("deserialize", "wrong length", lambda t: deserialize(bytes(serialize(t))[:-1]), r"^buffer is \d+ bytes, expected \d+$"),
    ("deserialize", "empty", lambda t: deserialize(b""), "^buffer too short for header$"),
    ("deserialize", "tau nan", lambda t: deserialize(with_tau(bytes(serialize(t)), NAN)), "^tau must be non-negative$"),
    ("deserialize", "tau -0.0", lambda t: math.copysign(1.0, deserialize(with_tau(bytes(serialize(t)), -0.0)).params.tau),
     Accepts(lambda t: -1.0)),
    # Hyperparams: integer fields take integers, and every field names itself
    ("Hyperparams", "n_min 2.5", lambda t: params(n_min=2.5), r"^n_min must be an integer, got 2\.5$"),
    ("Hyperparams", "n_min True", lambda t: params(n_min=True), "^n_min must be an integer, got True$"),
    ("Hyperparams", "dims 3.0", lambda t: params(dims=3.0), r"^dims must be an integer, got 3\.0$"),
    ("Hyperparams", "classes 5.5", lambda t: params(classes=5.5), r"^classes must be an integer, got 5\.5$"),
    ("Hyperparams", "max_nodes 7.5", lambda t: params(max_nodes=7.5), r"^max_nodes must be an integer, got 7\.5$"),
    ("Hyperparams", "n_pt 2.5", lambda t: params(n_pt=2.5), r"^n_pt must be an integer, got 2\.5$"),
    ("Hyperparams", "n_quantiles 16.0", lambda t: params(n_quantiles=16.0), r"^n_quantiles must be an integer, got 16\.0$"),
    ("Hyperparams", "tau nan", lambda t: params(tau=NAN), "^tau must be non-negative$"),
    ("Hyperparams", "delta nan", lambda t: params(delta=NAN), r"^delta must lie in \(0, 1\)$"),
    ("Hyperparams", "lam nan", lambda t: params(lam=NAN), "^lam must be positive$"),
    ("Hyperparams", "lam 1e-50", lambda t: params(lam=1e-50), "^sketch step 1e-50 gives f32 increments of 0 or inf$"),
    ("Hyperparams", "tau 'x'", lambda t: params(tau="x"), "^tau must be a real number, got 'x'$"),
    ("Hyperparams", "delta None", lambda t: params(delta=None), "^delta must be a real number, got None$"),
    ("Hyperparams", "lam '0.01'", lambda t: params(lam="0.01"), "^lam must be a real number, got '0.01'$"),
    ("Hyperparams", "tau True", lambda t: params(tau=True), "^tau must be a real number, got True$"),
    ("Hyperparams", "numpy floats", lambda t: params(delta=np.float64(0.001), lam=np.float64(0.01), tau=np.float32(0.5)),
     Accepts(lambda t: params(tau=0.5))),
    ("Hyperparams", "numpy integers", lambda t: params(dims=np.int64(2), n_min=np.uint16(5), max_nodes=np.int32(15)),
     Accepts(lambda t: PARAMS)),
    ("Hyperparams", "narrow numpy integers", lambda t: grown(params(n_min=np.uint8(200), max_nodes=np.int16(255))),
     Accepts(lambda t: grown(params(n_min=200, max_nodes=255)))),
    ("Hyperparams", "tau -0.0", lambda t: math.copysign(1.0, params(tau=-0.0).tau), Accepts(lambda t: -1.0)),
    # DatasetSpec
    ("DatasetSpec", "center_box nan", lambda t: spec(center_box=NAN), "^center_box must be finite$"),
    ("DatasetSpec", "center_box inf", lambda t: spec(center_box=INF), "^center_box must be finite$"),
    ("DatasetSpec", "cluster_spread inf", lambda t: spec(cluster_spread=INF), "^cluster_spread must be finite$"),
    ("DatasetSpec", "cluster_spread nan", lambda t: spec(cluster_spread=NAN), "^cluster_spread must be positive$"),
    ("DatasetSpec", "cluster_spread 'x'", lambda t: spec(cluster_spread="x"), "^cluster_spread must be a real number, got 'x'$"),
    ("DatasetSpec", "center_box None", lambda t: spec(center_box=None), "^center_box must be a real number, got None$"),
    ("DatasetSpec", "numpy floats", lambda t: spec(cluster_spread=np.float32(0.5), center_box=np.float64(3.0)),
     Accepts(lambda t: spec(cluster_spread=0.5, center_box=3.0))),
    ("DatasetSpec", "samples 2.5", lambda t: spec(samples=2.5), r"^samples must be an integer, got 2\.5$"),
    ("DatasetSpec", "clusters 2.0", lambda t: spec(clusters=2.0), r"^clusters must be an integer, got 2\.0$"),
    ("DatasetSpec", "seed -1", lambda t: spec(seed=-1), "^seed must be at least 0$"),
    ("DatasetSpec", "numpy integers", lambda t: spec(samples=np.int64(5), seed=np.uint8(0)), Accepts(lambda t: spec())),
]


@pytest.fixture(scope="module")
def snapshot() -> bytes:
    """A small trained tree with splits, so that rows route past the root."""
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(200, 2)).astype(np.float32)
    tree = Tree(PARAMS)
    tree.learn(rows, (rows[:, 0] > 0) + (rows[:, 1] > 0), np.ones(200, dtype=bool))
    assert tree.node_count > 1
    return bytes(serialize(tree))


def plain(value):
    return value.tolist() if isinstance(value, np.ndarray) else value


@pytest.mark.parametrize("call,outcome", [pytest.param(call, outcome, id=f"{entry}-{column}")
                                          for entry, column, call, outcome in CELLS])
def test_boundary(snapshot, call, outcome):
    tree = deserialize(snapshot)
    if isinstance(outcome, Accepts):
        twin = deserialize(snapshot)
        assert plain(call(tree)) == plain(outcome.twin(twin))
        assert same_bytes(serialize(tree), serialize(twin))
    else:
        with pytest.raises(ValueError, match=outcome):
            call(tree)
        assert same_bytes(serialize(tree), snapshot)
