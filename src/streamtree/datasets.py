"""Stream sources: synthetic Gaussian clusters and CSV files.

The synthetic generator draws cluster centers uniformly inside a box and
emits labeled points round-robin over the clusters, which keeps class
counts balanced to within one sample. Separability is controlled by the
single spread knob. It draws the stream in blocks of rows, so writing one
to CSV holds a block at a time, whatever its length. The CSV loader is
total: every row either becomes a sample or raises an error that names
its line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, starmap
from typing import Iterable, Iterator, Sequence

import numpy as np

from .tree import Sample, _as_f32, _check_integer, _check_real, _name_odd_row

__all__ = [
    "DatasetSpec",
    "generate_clusters",
    "CsvSchema",
    "load_csv",
    "write_samples_csv",
    "write_clusters_csv",
    "BANK_SCHEMA",
    "COVERTYPE_SCHEMA",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for a synthetic clustered stream.

    clusters, dims, samples and seed take Python or numpy integers, and
    cluster_spread and center_box real numbers; a field that is not one,
    or is out of range, a spread or box that is not finite among them,
    raises a ValueError that names it.
    """

    clusters: int
    dims: int
    samples: int
    cluster_spread: float = 0.1
    center_box: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("clusters", self.clusters, 2)
        _check_integer("dims", self.dims, 1)
        _check_integer("samples", self.samples, 1)
        for name in ("cluster_spread", "center_box"):
            _check_real(name, getattr(self, name))
        if not self.cluster_spread > 0.0:
            raise ValueError("cluster_spread must be positive")
        for name in ("cluster_spread", "center_box"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        _check_integer("seed", self.seed, 0)

# rows per generated block: about 1 MB of f64 noise, whatever the width
_BLOCK_VALUES = 1 << 17


def _block_rows(dims: int) -> int:
    return max(1, _BLOCK_VALUES // dims)


def _cluster_blocks(spec: DatasetSpec) -> Iterator[tuple[np.ndarray, list[int]]]:
    """spec's stream as (f32 features, labels) blocks of _block_rows(dims) rows.

    One generator draws the centers, then each block's noise in turn.
    Generator.normal draws the same values in blocks as in one call, so
    the stream does not depend on the block size. Nothing of a block stays
    referenced here while the next one is drawn.
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(-spec.center_box, spec.center_box, (spec.clusters, spec.dims))
    step = _block_rows(spec.dims)
    for start in range(0, spec.samples, step):
        labels = np.arange(start, min(start + step, spec.samples)) % spec.clusters
        yield _noisy_centers(rng, centers, labels, spec.cluster_spread), labels.tolist()


def _noisy_centers(rng: np.random.Generator, centers: np.ndarray, labels: np.ndarray,
                   spread: float) -> np.ndarray:
    """f32(centers[labels] + noise), with the (rows, dims) noise drawn from rng."""
    noise = rng.normal(0.0, spread, (len(labels), centers.shape[1]))
    noise += centers[labels]
    return noise.astype(np.float32)


def generate_clusters(spec: DatasetSpec) -> list[Sample]:
    """Deterministic labeled stream of isotropic Gaussian clusters.

    Centers are drawn uniformly in [-center_box, center_box]^dims from the
    seed; sample i belongs to cluster i mod clusters. All samples carry the
    train flag. The rows are drawn block by block into one f32 matrix, so
    no (samples, dims) array is ever f64.
    """
    features = np.empty((spec.samples, spec.dims), dtype=np.float32)
    labels: list[int] = []
    for block, block_labels in _cluster_blocks(spec):
        features[len(labels) : len(labels) + len(block)] = block
        labels += block_labels
    # one row view and one small int per sample, with the flag left at True
    return list(map(Sample, features, labels))


@dataclass
class CsvSchema:
    """Names the label column and the feature columns of a CSV file.

    Columns are header names when header is true, else zero-based indices.
    Columns listed in categorical (and the label column always) are mapped
    to ordinal codes in order of first appearance; all other feature columns
    must parse as numbers. classes, when set, caps label cardinality.
    delimiter is the one character that separates fields.
    """

    features: Sequence[str | int]
    label: str | int
    categorical: Sequence[str | int] = ()
    header: bool = True
    classes: int | None = None
    delimiter: str = ","

    def __post_init__(self) -> None:
        if not self.features:
            raise ValueError("schema needs at least one feature column")
        if not isinstance(self.delimiter, str) or len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
        unknown = set(self.categorical) - set(self.features)
        if unknown:
            raise ValueError(f"categorical columns not among features: {unknown}")


def _resolve_columns(schema: CsvSchema, header_row: list[str] | None) -> tuple[list[int], int, set[int]]:
    def resolve(col: str | int) -> int:
        if isinstance(col, int):
            return col
        if header_row is None:
            raise ValueError(f"column {col!r} needs a header row to resolve")
        try:
            return header_row.index(col)
        except ValueError:
            raise ValueError(f"column {col!r} not found in header") from None

    feature_idx = [resolve(c) for c in schema.features]
    label_idx = resolve(schema.label)
    categorical_idx = {resolve(c) for c in schema.categorical}
    return feature_idx, label_idx, categorical_idx


def load_csv(path, schema: CsvSchema) -> list[Sample]:
    """Parse a CSV file into samples, in file order, all train-flagged.

    Raises ValueError naming the offending line for short rows, non-numeric
    or non-finite values in numeric columns (cells beyond the f32 range
    included), an empty or blank label cell, and label cardinality above
    schema.classes.
    """
    samples: list[Sample] = []
    label_codes: dict[str, int] = {}
    cat_codes: dict[int, dict[str, int]] = {}
    dims = len(schema.features)
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        header_row = next(reader, None) if schema.header else None
        if schema.header and header_row is None:
            raise ValueError("file is empty, expected a header row")
        feature_idx, label_idx, categorical_idx = _resolve_columns(schema, header_row)
        needed = max(max(feature_idx), label_idx) + 1
        for cat in categorical_idx:
            cat_codes[cat] = {}
        # a cell past the f32 range casts to inf, reported below as non-finite
        with np.errstate(over="ignore"):
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                if len(row) < needed:
                    raise ValueError(
                        f"line {line}: row has {len(row)} fields, need {needed}"
                    )
                features = np.empty(dims, dtype=np.float32)
                for j, col in enumerate(feature_idx):
                    cell = row[col]
                    if col in categorical_idx:
                        codes = cat_codes[col]
                        features[j] = codes.setdefault(cell, len(codes))
                    else:
                        try:
                            features[j] = float(cell)
                        except ValueError:
                            raise ValueError(
                                f"line {line}: non-numeric value {cell!r} "
                                f"in column {schema.features[j]!r}"
                            ) from None
                if not np.isfinite(features).all():
                    j = int(np.flatnonzero(~np.isfinite(features))[0])
                    raise ValueError(
                        f"line {line}: non-finite value {row[feature_idx[j]]!r} "
                        f"in column {schema.features[j]!r}"
                    )
                cell = row[label_idx]
                if not cell.strip():
                    raise ValueError(f"line {line}: empty label {cell!r} in column {schema.label!r}")
                label = label_codes.setdefault(cell, len(label_codes))
                if schema.classes is not None and label >= schema.classes:
                    raise ValueError(
                        f"line {line}: label {cell!r} raises cardinality "
                        f"above {schema.classes}"
                    )
                samples.append(Sample(features, label, True))
    return samples


def write_samples_csv(samples: Sequence[Sample], path, header: bool = True) -> None:
    """Write samples as CSV, feature columns first, label last.

    Feature values are written with shortest f32 round-trip precision so a
    reload reproduces the stream bit for bit. A sample whose features are
    not one row as long as sample 0's or not finite as f32, which load_csv
    would refuse, or whose label is not a Python or numpy integer, raises
    a ValueError that names it, before the file is opened; no label is
    cast.
    """
    if not samples:
        raise ValueError("nothing to write")
    _name_odd_row(s.features for s in samples)
    for i, s in enumerate(samples):
        if not isinstance(s.label, (int, np.integer)):
            raise ValueError(f"sample {i}: label {s.label!r} is not an integer")
        if not np.isfinite(_as_f32(s.features)).all():
            raise ValueError(f"sample {i}: features must be finite")
    _write_rows(path, len(samples[0].features), ((s.features, s.label) for s in samples), header)


def write_clusters_csv(spec: DatasetSpec, path) -> None:
    """Write spec's stream as write_samples_csv(generate_clusters(spec)) would.

    The rows are drawn and written one block at a time, so memory does not
    grow with spec.samples.
    """
    # chain lets go of each block's rows before it asks for the next block
    _write_rows(path, spec.dims, chain.from_iterable(starmap(zip, _cluster_blocks(spec))), header=True)


def _write_rows(path, dims: int, rows: Iterable[tuple[np.ndarray, int]], header: bool) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow([f"f{i}" for i in range(dims)] + ["label"])
        writer.writerows(starmap(_csv_row, rows))


def _csv_row(features: np.ndarray, label: int) -> list:
    return [str(np.float32(v)) for v in features] + [int(label)]


# Ready-made schemas for the two UCI benchmark files, as distributed:
# bank-full.csv (semicolon-separated, header) and covtype.data (54 numeric
# columns, cartographic label 1..7 in the last column, no header).
BANK_SCHEMA = CsvSchema(
    features=[
        "age", "job", "marital", "education", "default", "balance",
        "housing", "loan", "contact", "day", "month", "duration",
        "campaign", "pdays", "previous", "poutcome",
    ],
    label="y",
    categorical=[
        "job", "marital", "education", "default", "housing", "loan",
        "contact", "month", "poutcome",
    ],
    header=True,
    classes=2,
    delimiter=";",
)

COVERTYPE_SCHEMA = CsvSchema(
    features=list(range(54)),
    label=54,
    header=False,
    classes=7,
    delimiter=",",
)
