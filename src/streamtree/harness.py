"""Evaluation harness: bundle processing, prequential runs, memory tables.

Bundles model the device calling convention: an ordered batch of flagged
samples handed to one kernel invocation. A bundle, like a prequential
stream, is checked whole and then handed to Tree._learn, the kernel
behind Tree.learn, which routes, answers and absorbs every sample
between two split attempts at once. Its answers and the tree it leaves
are exactly those of the same sequence of single train() and infer()
calls.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .serialize import model_bytes
from .tree import Hyperparams, Sample, Tree, _as_f32, _name_odd_row, _sample_fault

__all__ = [
    "Bundle",
    "PrequentialReport",
    "process_bundle",
    "split_into_bundles",
    "run_prequential",
    "mem_report",
]

DEFAULT_NODE_SWEEP = tuple(2**i for i in range(8))


@dataclass
class Bundle:
    """An ordered batch of samples processed by one kernel call."""

    samples: list[Sample]
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if len(self.samples) > self.capacity:
            raise ValueError(
                f"{len(self.samples)} samples exceed capacity {self.capacity}"
            )
        try:
            counts = {len(s.features) for s in self.samples}
        except TypeError:  # a scalar has no len()
            counts = None
        if counts is None or len(counts) > 1:
            _name_odd_row(self.samples)


def split_into_bundles(samples: Sequence[Sample], capacity: int) -> Iterator[Bundle]:
    """Chop a stream into maximal bundles, preserving order.

    A capacity below 1 raises a ValueError at the call, before any slicing.
    """
    if capacity < 1:
        raise ValueError("capacity must be positive")
    return (Bundle(list(samples[start : start + capacity]), capacity)
            for start in range(0, len(samples), capacity))


def _rows(tree: Tree, samples: Sequence[Sample]):
    """The samples as learn() rows: features, labels and train flags.

    Checks every sample first and raises a ValueError that names the first
    bad one: features that are not dims numbers, a train flag that is not
    a bool, or a train label that is not an integer class index. The rows
    go to Tree._learn, which is learn() without the shape and dtype checks
    made here, and which checks that the features are finite and the
    labels class indices. Labels of samples not flagged for training are 0.
    """
    dims, classes = tree.params.dims, tree.params.classes
    flags = [s.train for s in samples]
    try:
        X = _as_f32(np.array([s.features for s in samples]))
        labels = np.array([s.label if f else 0 for s, f in zip(samples, flags)])
        ok = X.shape == (len(samples), dims) and labels.dtype.kind in "iub"
    except (TypeError, ValueError):
        ok = False
    # per flag type, not per flag: numpy 2 allows subclasses of np.bool_
    if ok and all(issubclass(t, (bool, np.bool_)) for t in set(map(type, flags))):
        return X, labels, np.array(flags, dtype=bool)

    X = np.empty((len(samples), dims), dtype=np.float32)
    labels = np.zeros(len(samples), dtype=np.int64)
    for i, s in enumerate(samples):
        try:
            x = _as_f32(s.features)
        except (TypeError, ValueError):
            raise ValueError(f"sample {i}: features are not numbers") from None
        if x.shape != (dims,):
            raise ValueError(f"sample {i}: expected {dims} features, got shape {x.shape}")
        X[i] = x
        fault = _sample_fault(s, classes)
        if fault:
            raise ValueError(f"sample {i}: {fault}")
        if s.train:
            labels[i] = s.label
    return X, labels, np.array(flags, dtype=bool)


def process_bundle(tree: Tree, bundle: Bundle) -> list[int]:
    """Run one infer-then-train pass over a bundle.

    Output i is the model's answer for sample i: the pre-update prediction
    for train-flagged samples, a pure inference otherwise. The model seen by
    sample i reflects exactly the train-flagged samples before it. Every
    sample is checked before the tree changes, so a bad one raises a
    ValueError naming its index and leaves the tree as it was.
    """
    if not bundle.samples:
        return []
    return tree._learn(*_rows(tree, bundle.samples)).tolist()


@dataclass
class PrequentialReport:
    """Outcome of one prequential run."""

    total: int
    correct: int
    accuracy: float
    train_time: float
    infer_time: float
    final_node_count: int
    model_bytes: int
    windowed_accuracy: list[tuple[int, float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**asdict(self), "windowed_accuracy": [[end, acc] for end, acc in self.windowed_accuracy]}

    @classmethod
    def from_dict(cls, data: dict) -> "PrequentialReport":
        values = {f.name: data[f.name] for f in fields(cls)}
        values["windowed_accuracy"] = [(int(e), float(a)) for e, a in data["windowed_accuracy"]]
        return cls(**values)


def run_prequential(
    tree: Tree,
    stream: Sequence[Sample],
    window: int = 1000,
    time_inference: bool = False,
) -> PrequentialReport:
    """Feed a training stream through the tree, scoring each prediction first.

    Every sample must carry the train flag. Accuracy is interleaved
    test-then-train: the pre-update prediction is scored against the true
    label. windowed_accuracy holds one (end index, accuracy) entry per
    trailing window of the given size, the last window possibly partial.
    Every sample is checked before the tree changes, so a bad one raises a
    ValueError naming its index and leaves the tree as it was. Wall-clock
    timing covers checking and training; when time_inference is set, a
    second read-only pass, one predict() of the whole stream, measures
    inference time.
    """
    if not stream:
        raise ValueError("stream is empty")
    if window < 1:
        raise ValueError("window must be positive")

    start = time.perf_counter()
    X, labels, train = _rows(tree, stream)
    if not train.all():
        i = int(np.argmin(train))
        raise ValueError(f"sample {i}: prequential streams must be fully train-flagged")
    hits = tree._learn(X, labels, train) == labels
    train_time = time.perf_counter() - start
    total = len(stream)
    starts = range(0, total, window)
    windows: list[tuple[int, float]] = []
    for begin, h in zip(starts, np.add.reduceat(hits, starts, dtype=np.int64).tolist()):
        end = min(begin + window, total)
        windows.append((end, h / (end - begin)))
    correct = int(hits.sum())

    infer_time = 0.0
    if time_inference:
        start = time.perf_counter()
        tree.predict(X)
        infer_time = time.perf_counter() - start

    return PrequentialReport(
        total=total,
        correct=correct,
        accuracy=correct / total,
        train_time=train_time,
        infer_time=infer_time,
        final_node_count=tree.node_count,
        model_bytes=model_bytes(tree.params),
        windowed_accuracy=windows,
    )


def mem_report(
    max_nodes_values: Sequence[int] = DEFAULT_NODE_SWEEP,
    dims_values: Sequence[int] = (3, 100),
    classes_values: Sequence[int] = (5, 10),
    n_quantiles: int = 16,
) -> list[tuple[int, int, int, int]]:
    """Serialized model size over a parameter grid.

    Rows are (max_nodes, dims, classes, bytes), swept with max_nodes
    innermost; the default capacity sweep is the powers of two 1..128.
    """
    if not (max_nodes_values and dims_values and classes_values):
        raise ValueError("grid must be non-empty")
    rows = []
    for dims in dims_values:
        for classes in classes_values:
            for max_nodes in max_nodes_values:
                params = Hyperparams(
                    dims=dims,
                    classes=classes,
                    n_quantiles=n_quantiles,
                    n_pt=min(10, n_quantiles),
                    max_nodes=max_nodes,
                )
                rows.append((max_nodes, dims, classes, model_bytes(params)))
    return rows
