"""Evaluation harness: bundle processing, prequential runs, memory tables.

Bundles model the device calling convention: an ordered batch of flagged
samples handed to one kernel invocation. A bundle, like a prequential
stream, is checked whole, once, by Tree._sample_rows, and the rows go to
Tree._learn, the kernel behind Tree.learn, which checks nothing and
routes, answers and absorbs every sample between two split attempts at
once. Its answers and the tree it leaves are exactly those of the same
sequence of single train() and infer() calls. The check rules live in
tree.py, those of this module's own arguments included.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator, Sequence

import numpy as np

from .serialize import model_bytes
from .tree import Hyperparams, Sample, Tree, _check_integer, _name_odd_row

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
        _check_integer("capacity", self.capacity, 1)
        if len(self.samples) > self.capacity:
            raise ValueError(
                f"{len(self.samples)} samples exceed capacity {self.capacity}"
            )
        try:
            counts = {len(s.features) for s in self.samples}
        except TypeError:  # a scalar has no len()
            counts = None
        if counts is None or len(counts) > 1:
            _name_odd_row(s.features for s in self.samples)


def split_into_bundles(samples: Sequence[Sample], capacity: int) -> Iterator[Bundle]:
    """Chop a stream into maximal bundles, preserving order.

    A capacity that is not an integer of at least 1 raises a ValueError at
    the call, before any slicing.
    """
    _check_integer("capacity", capacity, 1)
    return (Bundle(list(samples[start : start + capacity]), capacity)
            for start in range(0, len(samples), capacity))


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
    return tree._learn(*tree._sample_rows(bundle.samples)).tolist()


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
    _check_integer("window", window, 1)

    start = time.perf_counter()
    X, labels, train = tree._sample_rows(stream)
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
