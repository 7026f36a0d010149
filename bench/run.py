"""streamtree benchmark driver.

    python3 bench/run.py --workload synth-d3k5 --seed 0 --seconds 30 --trace 0

Runs one workload in this process against the package under src/ of the
checkout this file sits in, checks its outputs, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced for
--seconds. With --trace 1 the run does a fixed amount of work once untraced
and once traced, and reports the per-layer figures of the traced run plus
the tracing slowdown. The first line is an environment stamp, the second
the host's slowdown and the metrics the workload is not read for (or,
traced, the layer shares of train time). See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-up runs at least this often and until it has taken this much CPU time
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "infer_samples_per_s": "samples/s",
    "serve_samples_per_s": "samples/s",
    "bundle_p50_ms": "ms",
    "bundle_p99_ms": "ms",
    "snapshot_save_ms": "ms",
    "snapshot_load_ms": "ms",
    "peak_rss_mb": "MB",
    "prequential_accuracy": "fraction",
    "success_rate": "fraction",
}


def load_package():
    """Import streamtree from this checkout's src/, never from elsewhere."""
    if not (SRC / "streamtree" / "__init__.py").is_file():
        sys.exit(f"bench: no streamtree package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import streamtree

    if Path(streamtree.__file__).resolve().parent != SRC / "streamtree":
        sys.exit(f"bench: imported streamtree from {streamtree.__file__}, not {SRC}")
    return numpy


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def files_sha256(paths) -> str:
    """Short hash of the files' paths and contents, to tell which code produced a result."""
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(numpy, args) -> dict:
    bench = Path(__file__).resolve().parent
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": files_sha256(SRC.rglob("*.py")),
        "bench_sha256": files_sha256([*bench.glob("*.py"), ROOT / "BENCHMARK.json"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def patch_layers(tracer, memory_bound_load: bool) -> None:
    """Wrap the public names each layer's callers resolve at call time."""
    from workloads import D, H, S, T

    tracer.patch(T.Tree, "train", "tree.train")
    tracer.patch(T.Tree, "infer", "tree.infer")
    tracer.patch(T.Tree, "attempt_split", "tree.attempt_split", count_result="splits")
    tracer.patch(T.LeafStats, "absorb", "tree.absorb")
    tracer.patch(T, "split_candidates", "tree.split_candidates")
    tracer.patch(T, "split_gain", "tree.split_gain")
    tracer.patch(T, "signum_update", "sketch.signum_update")
    tracer.patch(T, "cdf_lookup", "sketch.cdf_lookup")
    tracer.patch(S, "serialize", "serialize.serialize", memory=True)
    tracer.patch(S, "deserialize", "serialize.deserialize", memory=memory_bound_load)
    tracer.patch(H, "process_bundle", "harness.process_bundle")
    tracer.patch(H, "run_prequential", "harness.run_prequential")
    tracer.patch(D, "generate_clusters", "datasets.generate_clusters")


def settle() -> None:
    """Take the benchmark's own inputs out of the collector's sight.

    The inputs are some 300k Sample objects held by the benchmark, not by
    the program; left in the young generations, every full collection
    during a pass would walk them and add pauses that belong to neither.
    """
    gc.collect()
    gc.freeze()


def run_untraced(workload, ctx, seed: int, seconds: float) -> dict:
    from workloads import measure, train_reference

    rec = ctx.rec
    inputs = None
    repeats, spent = 0, 0.0
    while repeats < SETUP_REPEATS or spent < SETUP_MIN_S * workload.scale:
        inputs = None  # free the previous inputs before building the next
        gc.collect()
        ctx.calibrate()
        start = ctx.busy_s
        inputs = workload.setup(ctx, seed)  # calibrates between its phases
        ctx.calibrate()
        took = ctx.busy_s - start
        rec.add("setup_s", took)
        repeats, spent = repeats + 1, spent + took
    train_reference(inputs)
    settle()

    measure(ctx, workload, inputs, time.perf_counter() + seconds)

    return {
        "setup_s": rec.median("setup_s"),
        "train_samples_per_s": rec.median("train_samples_per_s"),
        "infer_samples_per_s": rec.median("infer_samples_per_s"),
        "serve_samples_per_s": rec.median("serve_samples_per_s"),
        "bundle_p50_ms": rec.median("bundle_ms"),
        "bundle_p99_ms": rec.tail("bundle_ms"),
        "snapshot_save_ms": rec.median("snapshot_save_ms"),
        "snapshot_load_ms": rec.median("snapshot_load_ms"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "prequential_accuracy": ctx.accuracy,
        "success_rate": 1.0 - rec.failed / max(1, rec.attempted),
    }


def run_traced(workload, ctx, seed: int) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import D, S, measure, train_reference

    tracemalloc.start()
    D.generate_clusters(workload.spec())
    gen_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    tracer = Tracer()
    ctx.tracer = tracer
    ctx.calibrate()
    patch_layers(tracer, workload.memory_bound_load)
    try:
        inputs = workload.setup(ctx, seed)
    finally:
        tracer.restore()
        ctx.tracer = None
    train_reference(inputs)
    settle()

    # the same fixed work twice, every task completing one pass, each timed
    # in CPU time at the reference speed like the end-to-end figures
    _, plain_s = measure(ctx, workload, inputs, None)
    accuracy = ctx.accuracy

    ctx.checks = False
    ctx.tracer = tracer
    patch_layers(tracer, workload.memory_bound_load)
    try:
        tree, traced_s = measure(ctx, workload, inputs, None)
    finally:
        tracer.restore()
        ctx.tracer = None

    s = tracer.summary()
    train_ns = s.total_ns("tree.train")
    attempts = s.calls("tree.attempt_split")

    def share(ns: float) -> float:
        return ns / train_ns if train_ns else 0.0

    metrics = {
        "sketch.signum_update.calls": (s.calls("sketch.signum_update"), "count"),
        "sketch.signum_update.us": (s.mean_ns("sketch.signum_update") / 1e3, "us"),
        "sketch.cdf_lookup.calls": (s.calls("sketch.cdf_lookup"), "count"),
        "sketch.cdf_lookup.us": (s.mean_ns("sketch.cdf_lookup") / 1e3, "us"),
        "tree.attempt_split.calls": (attempts, "count"),
        "tree.attempt_split.ms": (s.mean_ns("tree.attempt_split") / 1e6, "ms"),
        "tree.attempt_split.share": (share(s.total_ns("tree.attempt_split")), "fraction"),
        "tree.attempt_split.split_ratio": (
            tracer.results["splits"] / attempts if attempts else 0.0,
            "fraction",
        ),
        "tree.split_candidates.calls": (s.calls("tree.split_candidates"), "count"),
        "tree.split_candidates.us": (s.mean_ns("tree.split_candidates") / 1e3, "us"),
        "tree.split_gain.calls": (s.calls("tree.split_gain"), "count"),
        "tree.split_gain.us": (s.mean_ns("tree.split_gain") / 1e3, "us"),
        "tree.absorb.us": (s.mean_ns("tree.absorb") / 1e3, "us"),
        "tree.absorb.share": (share(s.total_ns("tree.absorb")), "fraction"),
        "tree.train.self_us": (s.mean_self_ns("tree.train") / 1e3, "us"),
        "tree.train.self_share": (share(s.self_ns("tree.train")), "fraction"),
        "tree.infer.us": (s.mean_ns("tree.infer") / 1e3, "us"),
        "tree.node_count": (tree.node_count, "count"),
        "serialize.serialize.ms": (s.mean_ns("serialize.serialize") / 1e6, "ms"),
        "serialize.deserialize.ms": (s.mean_ns("serialize.deserialize") / 1e6, "ms"),
        "serialize.model_bytes": (len(S.serialize(tree)), "bytes"),
        "harness.process_bundle.self_ms": (
            s.mean_self_ns("harness.process_bundle") / 1e6,
            "ms",
        ),
        "harness.run_prequential.self_s": (s.self_ns("harness.run_prequential") / 1e9, "s"),
        "datasets.generate_clusters.s": (
            s.mean_ns("datasets.generate_clusters", setup=True) / 1e9,
            "s",
        ),
        "datasets.generate_clusters.peak_mb": (gen_peak_mb, "MB"),
        "trace.slowdown": (traced_s / plain_s, "ratio"),
        "trace.spans": (tracer.span_count(), "count"),
    }
    shares = {
        "attempt_split": metrics["tree.attempt_split.share"][0],
        "absorb": metrics["tree.absorb.share"][0],
        "train_self": metrics["tree.train.self_share"][0],
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "prequential_accuracy": accuracy,
    }
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply stream lengths, bundle counts and chunks (the smoke test uses 0.02)",
    )
    parser.add_argument(
        "--tamper", action="store_true",
        help="flip one byte of the checked snapshot, to show the check counts it",
    )
    args = parser.parse_args(argv)
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must lie in (0, 1]")

    numpy = load_package()
    from workloads import WORKLOADS, Context, Recorder

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.scale)
    ctx = Context(Recorder(), tamper=args.tamper, memory_bound_load=workload.memory_bound_load)

    print(json.dumps({"env": environment(numpy, args)}))
    rec = ctx.rec
    try:
        if args.trace:
            values, shares = run_traced(workload, ctx, args.seed)
            print(json.dumps({"layer_shares_of_train_time": shares}))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        else:
            values = run_untraced(workload, ctx, args.seed, args.seconds)
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            # how much slower than the reference speed the host ran, as
            # measured by the two reference loops
            print(json.dumps({
                "host_slowdown": {
                    name: {
                        "p10": float(numpy.percentile(rec.samples[name], 10)),
                        "median": statistics.median(rec.samples[name]),
                        "p90": float(numpy.percentile(rec.samples[name], 90)),
                    }
                    for name in ("slowdown", "memory_slowdown")
                },
                "not_applicable": list(workload.not_applicable),
            }))
    except Exception:
        # an operation raised: count it, report it and print no figures
        traceback.print_exc()
        rec.attempted += 1
        rec.failed += 1
        metrics = {}

    correct = rec.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
