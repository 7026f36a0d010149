"""Command-line front end.

Three subcommands: gen writes a synthetic clustered stream to CSV, run
trains and evaluates a tree prequentially (from a synthetic spec or a CSV
file, optionally resuming from and saving to binary snapshots), and mem
tabulates serialized model sizes over a parameter grid.

Exit codes: 0 success, 1 usage error, 2 data error. A flag value outside
the range the library accepts is a usage error that names the flag.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .datasets import CsvSchema, DatasetSpec, generate_clusters, load_csv, write_clusters_csv
from .harness import DEFAULT_NODE_SWEEP, PrequentialReport, mem_report, run_prequential
from .serialize import deserialize, serialize
from .sketch import _signum_steps
from .tree import Hyperparams, Tree

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _checked(cast, test, rule: str):
    """An argparse type: the text cast, refused with rule unless test holds for it."""

    def parse(text: str):
        value = cast(text)
        if not test(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_POSITIVE = _checked(int, lambda v: v >= 1, "must be positive")
_TWO_OR_MORE = _checked(int, lambda v: v >= 2, "must be at least 2")
_FINITE = _checked(float, math.isfinite, "must be finite")
_POSITIVE_FLOAT = _checked(_FINITE, lambda v: v > 0.0, "must be positive")


def _int_list(item):
    """An argparse type: a non-empty comma-separated list, each value parsed by item."""

    def parse(text: str) -> list[int]:
        values = [item(t) for t in text.split(",") if t]
        if not values:
            raise argparse.ArgumentTypeError("must list at least one value")
        return values

    parse.__name__ = "int list"
    return parse


def _str_list(text: str) -> list[str]:
    return [t for t in text.split(",") if t]


def _add_hyperparam_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("tree parameters")
    group.add_argument("--delta", type=_checked(float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
                       default=0.001, help="split confidence (default 0.001)")
    group.add_argument("--lambda", dest="lam", type=_POSITIVE_FLOAT, default=0.01, help="sketch step (default 0.01)")
    group.add_argument("--tau", type=_checked(float, lambda v: v >= 0.0, "must be non-negative"),
                       default=0.05, help="tie-break threshold (default 0.05)")
    group.add_argument("--n-min", type=_POSITIVE, default=200, help="samples between split attempts (default 200)")
    group.add_argument("--n-pt", type=_POSITIVE, default=10, help="candidate thresholds per attribute (default 10)")
    group.add_argument("--n-quantiles", type=_POSITIVE, default=16, help="quantile estimates per sketch (default 16)")
    group.add_argument("--max-nodes", type=_POSITIVE, default=2047, help="node arena capacity (default 2047)")


def _add_synthetic_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("synthetic stream")
    group.add_argument("--clusters", type=_TWO_OR_MORE, default=5, help="number of clusters/classes (default 5)")
    group.add_argument("--dims", type=_POSITIVE, default=3, help="feature count (default 3)")
    group.add_argument("--samples", type=_POSITIVE, default=40000, help="stream length (default 40000)")
    group.add_argument("--spread", type=_POSITIVE_FLOAT, default=0.1, help="cluster noise scale (default 0.1)")
    group.add_argument("--center-box", type=_FINITE, default=2.0, help="half-width of the center box (default 2.0)")
    group.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "must be non-negative"), default=0,
                       help="generator seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="streamtree", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic clustered stream to CSV")
    _add_synthetic_flags(gen)
    gen.add_argument("--out", required=True, help="output CSV path")

    run = sub.add_parser("run", help="train and evaluate a tree prequentially")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--synthetic", action="store_true", help="use the synthetic generator")
    source.add_argument("--csv", metavar="PATH", help="read the stream from a CSV file")
    _add_synthetic_flags(run)
    csv_group = run.add_argument_group("csv schema")
    csv_group.add_argument("--label-col", help="label column (name, or index with --no-header)")
    csv_group.add_argument("--feature-cols", type=_str_list, help="comma-separated feature columns")
    csv_group.add_argument("--categorical-cols", type=_str_list, default=[], help="feature columns to ordinal-encode")
    csv_group.add_argument("--no-header", action="store_true", help="file has no header row; columns are indices")
    csv_group.add_argument("--delimiter", type=_checked(str, lambda v: len(v) == 1, "must be one character"),
                           default=",", help="field delimiter (default ',')")
    csv_group.add_argument("--classes", type=_POSITIVE, help="label count (default: observed cardinality)")
    _add_hyperparam_flags(run)
    run.add_argument("--window", type=_POSITIVE, default=1000, help="windowed accuracy size (default 1000)")
    run.add_argument("--report", help="write the report as JSON to this path")
    run.add_argument("--snapshot-in", help="resume from this tree snapshot")
    run.add_argument("--snapshot-out", help="save the trained tree snapshot here")
    run.add_argument("--time-inference", action="store_true", help="time a read-only inference pass too")

    mem = sub.add_parser("mem", help="tabulate serialized model sizes")
    mem.add_argument("--max-nodes", type=_int_list(_POSITIVE), default=list(DEFAULT_NODE_SWEEP),
                     help="comma-separated capacities (default 1,2,4,...,128)")
    mem.add_argument("--dims", type=_int_list(_POSITIVE), default=[3, 100], help="comma-separated feature counts")
    mem.add_argument("--classes", type=_int_list(_TWO_OR_MORE), default=[5, 10], help="comma-separated class counts")
    mem.add_argument("--n-quantiles", type=_POSITIVE, default=16)
    mem.add_argument("--format", choices=("table", "csv", "json"), default="table")
    mem.add_argument("--out", help="write output here instead of stdout")
    return parser


class SystemExit2(Exception):
    """Usage problem detected after argparse (still exit code 1)."""


def _index_columns(parser: argparse.ArgumentParser, args) -> None:
    """With --no-header, turn the column flags into indices; one that is not an integer is a usage error."""

    def index(flag: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            parser.error(f"argument {flag}: must name columns by index with --no-header, got {text!r}")

    args.feature_cols = [index("--feature-cols", c) for c in args.feature_cols or []]
    if args.label_col is not None:
        args.label_col = index("--label-col", args.label_col)
    args.categorical_cols = [index("--categorical-cols", c) for c in args.categorical_cols]


def _cmd_gen(args) -> int:
    spec = DatasetSpec(args.clusters, args.dims, args.samples,
                       args.spread, args.center_box, args.seed)
    write_clusters_csv(spec, args.out)
    print(f"wrote {args.samples} samples ({args.dims} features, "
          f"{args.clusters} classes) to {args.out}")
    return 0


def _load_run_stream(args):
    if args.csv is None:
        spec = DatasetSpec(args.clusters, args.dims, args.samples,
                           args.spread, args.center_box, args.seed)
        return generate_clusters(spec), spec.dims, spec.clusters
    if not args.feature_cols or args.label_col is None:
        raise SystemExit2("--csv requires --feature-cols and --label-col")
    schema = CsvSchema(
        features=args.feature_cols,
        label=args.label_col,
        categorical=args.categorical_cols,
        header=not args.no_header,
        classes=args.classes,
        delimiter=args.delimiter,
    )
    samples = load_csv(args.csv, schema)
    if not samples:
        raise ValueError(f"{args.csv} holds no samples")
    classes = args.classes or max(s.label for s in samples) + 1
    return samples, len(samples[0].features), max(classes, 2)


def _print_report(report: PrequentialReport) -> None:
    print(f"samples          {report.total}")
    print(f"correct          {report.correct}")
    print(f"accuracy         {report.accuracy:.4f}")
    print(f"train time       {report.train_time * 1000:.1f} ms")
    if report.infer_time:
        print(f"infer time       {report.infer_time * 1000:.1f} ms")
    print(f"final nodes      {report.final_node_count}")
    print(f"model bytes      {report.model_bytes}")
    tail = report.windowed_accuracy[-5:]
    if len(report.windowed_accuracy) > 1:
        curve = "  ".join(f"{end}:{acc:.3f}" for end, acc in tail)
        print(f"last windows     {curve}")


def _cmd_run(args) -> int:
    stream, dims, classes = _load_run_stream(args)
    if args.snapshot_in:
        with open(args.snapshot_in, "rb") as fh:
            tree = deserialize(fh.read())
        if tree.params.dims != dims:
            raise ValueError(
                f"snapshot expects {tree.params.dims} features, stream has {dims}"
            )
    else:
        if args.n_pt > args.n_quantiles:
            raise SystemExit2("argument --n-pt: must not exceed --n-quantiles")
        try:
            _signum_steps(args.n_quantiles, args.lam)
        except ValueError as exc:
            raise SystemExit2(f"argument --lambda: {exc}") from None
        params = Hyperparams(
            dims=dims, classes=classes, delta=args.delta, lam=args.lam,
            tau=args.tau, n_min=args.n_min, n_pt=args.n_pt,
            n_quantiles=args.n_quantiles, max_nodes=args.max_nodes,
        )
        tree = Tree(params)
    report = run_prequential(tree, stream, window=args.window,
                             time_inference=args.time_inference)
    _print_report(report)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.report}")
    if args.snapshot_out:
        with open(args.snapshot_out, "wb") as fh:
            fh.write(serialize(tree))
        print(f"snapshot written to {args.snapshot_out}")
    return 0


def _cmd_mem(args) -> int:
    rows = mem_report(args.max_nodes, args.dims, args.classes, args.n_quantiles)
    if args.format == "json":
        text = json.dumps(
            [{"max_nodes": nd, "dims": d, "classes": k, "bytes": b}
             for nd, d, k, b in rows],
            indent=2,
        ) + "\n"
    elif args.format == "csv":
        text = "max_nodes,dims,classes,bytes\n" + "".join(
            f"{nd},{d},{k},{b}\n" for nd, d, k, b in rows
        )
    else:
        text = f"{'max_nodes':>9} {'dims':>5} {'classes':>7} {'bytes':>12}\n" + "".join(
            f"{nd:>9} {d:>5} {k:>7} {b:>12}\n" for nd, d, k, b in rows
        )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.no_header:
        _index_columns(parser, args)
    handlers = {"gen": _cmd_gen, "run": _cmd_run, "mem": _cmd_mem}
    try:
        return handlers[args.command](args)
    except SystemExit2 as exc:
        print(f"streamtree: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, ValueError) as exc:
        print(f"streamtree: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
