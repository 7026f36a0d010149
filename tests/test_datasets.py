"""Tests for the synthetic generator and CSV ingestion."""

import re
import tracemalloc

import numpy as np
import pytest

from streamtree.datasets import (
    CsvSchema,
    DatasetSpec,
    _block_rows,
    generate_clusters,
    load_csv,
    write_samples_csv,
)
from streamtree.tree import Sample


def test_round_robin_labels():
    spec = DatasetSpec(clusters=2, dims=1, samples=4, seed=5)
    samples = generate_clusters(spec)
    assert [s.label for s in samples] == [0, 1, 0, 1]


def test_generator_deterministic():
    spec = DatasetSpec(clusters=3, dims=2, samples=50, seed=42)
    a = generate_clusters(spec)
    b = generate_clusters(spec)
    assert all(x.features.tobytes() == y.features.tobytes() for x, y in zip(a, b))
    assert [x.label for x in a] == [y.label for y in b]


def test_label_balance_within_one():
    spec = DatasetSpec(clusters=5, dims=2, samples=1003, seed=0)
    counts = np.bincount([s.label for s in generate_clusters(spec)], minlength=5)
    assert counts.max() - counts.min() <= 1


def test_small_spread_is_nearest_center_separable():
    spec = DatasetSpec(clusters=5, dims=3, samples=5000,
                       cluster_spread=0.02, center_box=2.0, seed=9)
    samples = generate_clusters(spec)
    X = np.stack([s.features for s in samples])
    y = np.array([s.label for s in samples])
    means = np.stack([X[y == k].mean(axis=0) for k in range(5)])
    dist = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    assert (dist.argmin(axis=1) == y).mean() >= 0.99


@pytest.mark.parametrize("clusters,dims,spread,seed", [(5, 3, 0.04, 11), (7, 54, 0.5, 1)])
def test_generator_equals_per_row_reference(clusters, dims, spread, seed):
    # 1, B - 1, B, B + 1 and 2B + 3 rows, for the generator's blocks of B rows
    block = _block_rows(dims)
    for count in (1, block - 1, block, block + 1, 2 * block + 3):
        # the stream as generate_clusters once built it, one indexed Sample per row
        spec = DatasetSpec(clusters=clusters, dims=dims, samples=count, cluster_spread=spread, seed=seed)
        rng = np.random.default_rng(seed)
        centers = rng.uniform(-spec.center_box, spec.center_box, (clusters, dims))
        noise = rng.normal(0.0, spread, (spec.samples, dims))
        labels = np.arange(spec.samples) % clusters
        features = (centers[labels] + noise).astype(np.float32)
        reference = [Sample(features[i], int(labels[i]), True) for i in range(spec.samples)]

        samples = generate_clusters(spec)
        assert len(samples) == len(reference)
        for got, want in zip(samples, reference):
            assert got.features.dtype == np.float32 and got.features.shape == (dims,)
            assert got.features.tobytes() == want.features.tobytes()
            assert type(got.label) is int and got.label == want.label
            assert got.train is True


def test_generator_peaks_one_block_above_what_it_keeps():
    # the (samples, dims) f64 noise, gather and sum once peaked 13.3 MiB above the stream
    tracemalloc.start()
    try:
        samples = generate_clusters(DatasetSpec(7, 54, 20_000, 0.5))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(samples) == 20_000
    assert peak - kept <= 2 * 2**20


def test_all_samples_train_flagged():
    samples = generate_clusters(DatasetSpec(2, 2, 10, seed=1))
    assert all(s.train for s in samples)


def test_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(clusters=1, dims=1, samples=1)
    with pytest.raises(ValueError):
        DatasetSpec(clusters=2, dims=0, samples=1)
    with pytest.raises(ValueError):
        DatasetSpec(clusters=2, dims=1, samples=1, cluster_spread=0.0)


def test_csv_write_load_round_trip(tmp_path):
    samples = generate_clusters(DatasetSpec(3, 4, 200, seed=11))
    path = tmp_path / "stream.csv"
    write_samples_csv(samples, path)
    schema = CsvSchema(features=[f"f{i}" for i in range(4)], label="label")
    back = load_csv(path, schema)
    assert len(back) == 200
    for a, b in zip(samples, back):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.label == b.label


@pytest.mark.parametrize("odd,message", [
    ([1.0, 2.0, 3.0], r"sample 1: expected 2 features, as sample 0, got shape \(3,\)"),
    ([[1.0, 2.0]], r"sample 1: expected 2 features, as sample 0, got shape \(1, 2\)"),
    (1.0, r"sample 1: expected 2 features, as sample 0, got shape \(\)"),
], ids=["longer", "two-dimensional", "scalar"])
def test_csv_write_names_odd_row_before_opening(tmp_path, odd, message):
    # a longer row once went out under the 2-column header and reloaded its third value as the label
    path = tmp_path / "stream.csv"
    samples = [Sample([1.0, 2.0], 0), Sample(odd, 1), Sample([5.0, 6.0], 0)]
    with pytest.raises(ValueError, match=message):
        write_samples_csv(samples, path)
    assert not path.exists()


@pytest.mark.parametrize("label", [2.7, "x", None, np.float64(1.0)], ids=repr)
def test_csv_write_refuses_a_label_that_is_not_an_integer_before_opening(tmp_path, label):
    # 2.7 once went out as 2, and "x" failed after part of the file was written
    path = tmp_path / "stream.csv"
    samples = [Sample([1.0, 2.0], 0), Sample([3.0, 4.0], label)]
    with pytest.raises(ValueError, match=re.escape(f"sample 1: label {label!r} is not an integer")):
        write_samples_csv(samples, path)
    assert not path.exists()


def test_csv_write_takes_python_and_numpy_integer_labels(tmp_path):
    path = tmp_path / "stream.csv"
    samples = [Sample([1.0, 2.0], 0), Sample([3.0, 4.0], np.int64(1)), Sample([5.0, 6.0], np.int64(0))]
    write_samples_csv(samples, path)
    assert path.read_text().splitlines()[1:] == ["1.0,2.0,0", "3.0,4.0,1", "5.0,6.0,0"]
    back = load_csv(path, CsvSchema(features=["f0", "f1"], label="label"))
    assert [s.label for s in back] == [0, 1, 0]


def test_csv_basic_numeric(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y\n1.5,2,0\n3,4.25,1\n5,6,0\n")
    samples = load_csv(path, CsvSchema(features=["a", "b"], label="y"))
    assert len(samples) == 3
    assert samples[0].features.tolist() == [1.5, 2.0]
    assert [s.label for s in samples] == [0, 1, 0]


def test_csv_categorical_first_appearance_codes(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("c,y\nb,x\na,y\nb,x\n")
    samples = load_csv(
        path, CsvSchema(features=["c"], label="y", categorical=["c"])
    )
    assert [int(s.features[0]) for s in samples] == [0, 1, 0]
    assert [s.label for s in samples] == [0, 1, 0]


def test_csv_short_row_names_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y\n1,2,0\n1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_csv(path, CsvSchema(features=["a", "b"], label="y"))


def test_csv_non_numeric_names_line_and_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1,0\nblue,1\n")
    with pytest.raises(ValueError, match="line 3.*'blue'.*'a'"):
        load_csv(path, CsvSchema(features=["a"], label="y"))


def test_csv_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1,0\n")
    with pytest.raises(ValueError, match="'nope'"):
        load_csv(path, CsvSchema(features=["nope"], label="y"))


def test_csv_label_cardinality_cap(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1,x\n2,y\n3,z\n")
    with pytest.raises(ValueError, match="line 4"):
        load_csv(path, CsvSchema(features=["a"], label="y", classes=2))


def test_csv_headerless_indices_and_delimiter(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1;2;0\n3;4;1\n")
    samples = load_csv(
        path,
        CsvSchema(features=[0, 1], label=2, header=False, delimiter=";"),
    )
    assert len(samples) == 2
    assert samples[1].features.tolist() == [3.0, 4.0]


def test_csv_missing_file():
    with pytest.raises(OSError):
        load_csv("/nonexistent/nope.csv", CsvSchema(features=[0], label=1, header=False))


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1,0\n\n2,1\n")
    samples = load_csv(path, CsvSchema(features=["a"], label="y"))
    assert len(samples) == 2


# 1e39 parses as a finite float but overflows the f32 feature vector
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e39"])
def test_csv_non_finite_names_line_and_column(tmp_path, cell):
    path = tmp_path / "t.csv"
    path.write_text(f"a,b,y\n1,2,0\n3,{cell},1\n")
    with pytest.raises(ValueError, match=f"line 3.*non-finite.*'{cell}'.*'b'"):
        load_csv(path, CsvSchema(features=["a", "b"], label="y"))
