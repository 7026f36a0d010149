"""End-to-end tests of the command-line interface."""

import hashlib
import json
import tracemalloc

import pytest
from buffers import same_bytes

from streamtree.cli import main
from streamtree.datasets import CsvSchema, _block_rows, load_csv
from streamtree.harness import PrequentialReport
from streamtree.serialize import deserialize, model_bytes, serialize


def run_cli(*argv):
    return main(list(argv))


def test_gen_writes_expected_csv(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli("gen", "--clusters", "2", "--dims", "2", "--samples", "10",
                   "--seed", "3", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "f0,f1,label"
    assert len(lines) == 11
    assert all(len(l.split(",")) == 3 for l in lines)


def test_gen_deterministic_per_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        run_cli("gen", "--clusters", "3", "--dims", "2", "--samples", "50",
                "--seed", "9", "--out", str(path))
    assert a.read_text() == b.read_text()


def test_gen_output_reloads_identically(tmp_path):
    out = tmp_path / "d.csv"
    run_cli("gen", "--clusters", "5", "--dims", "3", "--samples", "40000",
            "--seed", "1", "--out", str(out))
    schema = CsvSchema(features=["f0", "f1", "f2"], label="label")
    samples = load_csv(out, schema)
    assert len(samples) == 40000
    # second write from the reloaded stream is byte-identical
    from streamtree.datasets import write_samples_csv

    again = tmp_path / "d2.csv"
    write_samples_csv(samples, again)
    assert again.read_text() == out.read_text()


# streams of three generator blocks each; the digests are of the whole-stream generator's output
@pytest.mark.parametrize("clusters,dims,samples,spread,seed,digest", [
    (5, 3, 100_000, 0.04, 3, "51e206266d86e098ee6e48684f0b182565b50637b092cd9e9ed7aea1fa9ca74b"),
    (7, 54, 6_000, 0.5, 1, "57b31746f61067016ea6d447061dc955f24d1262418d8227707377e1705fe20f"),
])
def test_gen_bytes_do_not_depend_on_blocks(tmp_path, clusters, dims, samples, spread, seed, digest):
    assert samples > 2 * _block_rows(dims)
    out = tmp_path / "d.csv"
    assert run_cli("gen", "--clusters", str(clusters), "--dims", str(dims), "--samples", str(samples),
                   "--spread", str(spread), "--seed", str(seed), "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_gen_memory_does_not_grow_with_samples(tmp_path):
    # whole-stream generation peaked at 11.8 MiB for 50k rows and 44.4 MiB for 200k
    rows = _block_rows(3)
    peaks = []
    tracemalloc.start()
    try:
        for samples in (rows, 4 * rows):
            tracemalloc.reset_peak()
            run_cli("gen", "--samples", str(samples), "--out", str(tmp_path / "d.csv"))
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2**20


def test_run_synthetic_single_sample(tmp_path, capsys):
    report_path = tmp_path / "r.json"
    code = run_cli("run", "--synthetic", "--clusters", "2", "--dims", "2",
                   "--samples", "1", "--report", str(report_path))
    assert code == 0
    data = json.loads(report_path.read_text())
    assert data["total"] == 1
    rep = PrequentialReport.from_dict(data)
    assert rep.total == 1
    out = capsys.readouterr().out
    assert "accuracy" in out


def test_run_report_json_round_trips(tmp_path):
    report_path = tmp_path / "r.json"
    run_cli("run", "--synthetic", "--samples", "3000", "--seed", "2",
            "--window", "500", "--report", str(report_path))
    data = json.loads(report_path.read_text())
    rep = PrequentialReport.from_dict(data)
    assert rep.to_dict() == data
    assert rep.total == 3000
    assert len(rep.windowed_accuracy) == 6


def test_run_snapshot_persistence(tmp_path):
    snap = tmp_path / "tree.bin"
    report1 = tmp_path / "r1.json"
    run_cli("run", "--synthetic", "--samples", "4000", "--seed", "4",
            "--max-nodes", "63", "--snapshot-out", str(snap),
            "--report", str(report1))
    nodes_after_first = json.loads(report1.read_text())["final_node_count"]
    with open(snap, "rb") as fh:
        saved = fh.read()
    tree = deserialize(saved)
    assert tree.node_count == nodes_after_first
    # the file holds the whole snapshot buffer, empty capacity included
    assert len(saved) == model_bytes(tree.params)
    assert same_bytes(saved, serialize(tree))

    # resume: one further sample cannot trigger a split (n_min=200)
    report2 = tmp_path / "r2.json"
    run_cli("run", "--synthetic", "--samples", "1", "--seed", "4",
            "--snapshot-in", str(snap), "--report", str(report2))
    assert json.loads(report2.read_text())["final_node_count"] == nodes_after_first


def test_run_csv_source(tmp_path):
    out = tmp_path / "d.csv"
    run_cli("gen", "--clusters", "3", "--dims", "2", "--samples", "1500",
            "--seed", "6", "--out", str(out))
    report_path = tmp_path / "r.json"
    code = run_cli("run", "--csv", str(out), "--feature-cols", "f0,f1",
                   "--label-col", "label", "--report", str(report_path))
    assert code == 0
    assert json.loads(report_path.read_text())["total"] == 1500


def test_run_missing_csv_is_data_error(tmp_path):
    code = run_cli("run", "--csv", str(tmp_path / "nope.csv"),
                   "--feature-cols", "a", "--label-col", "y")
    assert code == 2


def test_run_snapshot_dims_mismatch_is_data_error(tmp_path):
    snap = tmp_path / "tree.bin"
    run_cli("run", "--synthetic", "--dims", "2", "--samples", "300",
            "--snapshot-out", str(snap))
    code = run_cli("run", "--synthetic", "--dims", "3", "--samples", "300",
                   "--snapshot-in", str(snap))
    assert code == 2


def test_run_time_inference_reports_infer_time(tmp_path):
    report_path = tmp_path / "r.json"
    run_cli("run", "--synthetic", "--samples", "2000", "--time-inference",
            "--report", str(report_path))
    assert json.loads(report_path.read_text())["infer_time"] > 0.0


def test_run_csv_without_schema_is_usage_error(tmp_path, capsys):
    out = tmp_path / "d.csv"
    out.write_text("a,y\n1,0\n")
    code = run_cli("run", "--csv", str(out))
    assert code == 1


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as exc:
        run_cli("run")  # no source selected
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("bogus")
    assert exc.value.code == 1


@pytest.mark.parametrize("argv,message", [
    (["run", "--synthetic", "--n-min", "0"], "argument --n-min: must be positive"),
    (["run", "--synthetic", "--window", "0"], "argument --window: must be positive"),
    (["run", "--synthetic", "--samples", "0"], "argument --samples: must be positive"),
    (["run", "--synthetic", "--clusters", "1"], "argument --clusters: must be at least 2"),
    (["run", "--synthetic", "--max-nodes", "-3"], "argument --max-nodes: must be positive"),
    (["run", "--synthetic", "--delta", "1"], "argument --delta: must lie in (0, 1)"),
    (["run", "--synthetic", "--tau", "-0.5"], "argument --tau: must be non-negative"),
    (["run", "--synthetic", "--spread", "0"], "argument --spread: must be positive"),
    (["gen", "--dims", "0", "--out", "never.csv"], "argument --dims: must be positive"),
    (["mem", "--max-nodes", "0"], "argument --max-nodes: must be positive"),
    (["mem", "--classes", "5,1"], "argument --classes: must be at least 2"),
    (["mem", "--dims", ","], "argument --dims: must list at least one value"),
    (["gen", "--center-box", "nan", "--out", "never.csv"], "argument --center-box: must be finite"),
    (["run", "--synthetic", "--spread", "inf"], "argument --spread: must be finite"),
    (["run", "--synthetic", "--lambda", "inf"], "argument --lambda: must be finite"),
    (["run", "--synthetic", "--seed", "-1"], "argument --seed: must be non-negative"),
    (["run", "--csv", "never.csv", "--feature-cols", "a,b", "--label-col", "label", "--delimiter", ""],
     "argument --delimiter: must be one character"),
    (["run", "--csv", "never.csv", "--feature-cols", "a,b", "--label-col", "label", "--delimiter", ";;"],
     "argument --delimiter: must be one character"),
    (["run", "--csv", "never.csv", "--no-header", "--feature-cols", "a,b", "--label-col", "2"],
     "argument --feature-cols: must name columns by index with --no-header, got 'a'"),
    (["run", "--csv", "never.csv", "--no-header", "--feature-cols", "0,1", "--label-col", "label"],
     "argument --label-col: must name columns by index with --no-header, got 'label'"),
    (["run", "--csv", "never.csv", "--no-header", "--feature-cols", "0,1", "--label-col", "2",
      "--categorical-cols", "1,c"], "argument --categorical-cols: must name columns by index with --no-header, got 'c'"),
])
def test_out_of_range_flags_are_usage_errors_naming_the_flag(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.strip().endswith(f"error: {message}")


def test_n_pt_above_n_quantiles_is_a_usage_error(capsys):
    assert run_cli("run", "--synthetic", "--samples", "10", "--n-quantiles", "8", "--n-pt", "9") == 1
    assert capsys.readouterr().err.strip().endswith("error: argument --n-pt: must not exceed --n-quantiles")


def test_lambda_without_f32_steps_is_a_usage_error(capsys):
    # the library refuses it too, but only --n-quantiles and --lambda together tell
    assert run_cli("run", "--synthetic", "--samples", "10", "--lambda", "1e-50") == 1
    assert capsys.readouterr().err.strip().endswith(
        "error: argument --lambda: sketch step 1e-50 gives f32 increments of 0 or inf")


def test_mem_default_grid(capsys):
    assert run_cli("mem") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 8 * 2 * 2  # header + 8 capacities per combo


def test_mem_json_and_csv(tmp_path, capsys):
    assert run_cli("mem", "--max-nodes", "1,2,4", "--dims", "3",
                   "--classes", "5", "--format", "json") == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["max_nodes"] for r in rows] == [1, 2, 4]
    sizes = [r["bytes"] for r in rows]
    assert sizes == sorted(sizes) and len(set(sizes)) == 3

    out = tmp_path / "m.csv"
    assert run_cli("mem", "--max-nodes", "1,2", "--dims", "3", "--classes", "5",
                   "--format", "csv", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "max_nodes,dims,classes,bytes"
    assert len(lines) == 3
