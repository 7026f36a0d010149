"""The three benchmark workloads and the output checks they run.

Every workload is a closed loop: one process, one writer, and each train,
infer or process_bundle call starts after the previous one returns.

A run sets the workload up (stream generation, bundle building, and for
serve-bundles the pretraining), then measures. A workload is a set of
tasks, each an endless generator that does one unit of work (a chunk of
rows, a block of bundles, one snapshot save and load) per step. The
primary task (training, or serving on serve-bundles) first completes one
pass on its own, which yields the model the other tasks use. Then all tasks
take turns one unit each until the time is up, so every metric samples the
whole run rather than one stretch of it. The host's speed is measured
between every two units by two reference loops (see reference_loop and
memory_loop), and the CPU time of each call in a unit is scaled by the
geometric mean of the measurements on either side of it, taken with the
loop its work resembles. Every pass of a task does the same work,
so accuracy and the output checks are fixed by the seed, while more passes
only add timing samples.

The layers are reached through their modules (S.serialize, H.process_bundle,
...), never through names bound at import, so the traced run can swap in
wrappers without touching src/.
"""

from __future__ import annotations

import importlib
import mmap
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

# the package re-exports a function named serialize, so plain "import ... as"
# would bind that function instead of the module
D = importlib.import_module("streamtree.datasets")
H = importlib.import_module("streamtree.harness")
S = importlib.import_module("streamtree.serialize")
T = importlib.import_module("streamtree.tree")

# Operations are timed in CPU time of this process. The program runs on one
# thread, so on an idle machine this equals wall time; on a shared machine
# it leaves out the time the process waits for a core, which is set by other
# tenants: such waits put bundles of 128 samples at up to 32 ms of wall time
# where 5 ms of CPU time was spent.
cpu_clock = time.process_time

# CPU time of reference_loop() and memory_loop() at the speed every timing
# is scaled to: what they take on a vCPU of the 2-core Xeon host the
# benchmark was built on, in the host's fast state
REFERENCE_S = 0.002
MEMORY_REFERENCE_S = 0.0045


def reference_loop() -> float:
    """CPU seconds of a fixed loop shaped like the program's per-sample path.

    Interpreted calls mixed with small numpy operations, the work whose speed
    a shared host changes most. Nothing of the program runs here, so a change
    to the program cannot move this figure. It scales every call except
    those memory_loop() scales.
    """
    a = np.zeros(16, dtype=np.float32)
    start = cpu_clock()
    acc = 0
    for i in range(1000):
        acc += int(np.argmax(a)) + i % 7
        a.sort()
    return cpu_clock() - start


def memory_loop() -> float:
    """CPU seconds to map 4 MiB of fresh pages and copy into them, as serialize does.

    Work that mostly moves memory slows down far less than reference_loop()
    when the host is slow, so that loop would over-correct it. Over 150 s of
    a host switching between its slow and fast states, the 5-second medians
    of serialize's CPU time followed this loop's by a slope of 0.8 in log
    scale, and those of reference_loop() by 0.4; divided by this loop they
    varied by 0.03 to 0.04 (standard deviation of the log), against 0.11
    raw and 0.16 divided by reference_loop(). It scales serialize, and
    deserialize where that is memory-bound (Workload.memory_bound_load).

    The pages are mapped directly, not allocated through malloc: whether
    malloc maps fresh pages for a 4 MiB block depends on the larger blocks
    the process freed before, which would make the loop run 5x faster in
    some processes than in others.
    """
    start = cpu_clock()
    with mmap.mmap(-1, len(_MEMORY_SOURCE)) as pages:
        pages.write(_MEMORY_SOURCE)
    return cpu_clock() - start


_MEMORY_SOURCE = bytes(range(256)) * (4 << 12)


BUNDLE_CAPACITY = 128
TRAIN_SHARE = 0.1  # share of served samples flagged for training
SERVE_BLOCKS = 10  # a serving pass is timed in this many blocks of bundles
REPLAY_BUNDLES = 20  # bundles replayed with single calls to check bundle semantics
# the first syncs after a load touch fresh pages; a server pays that once,
# so they count towards serve throughput but not towards bundle latency
WARMUP_BUNDLES = 2


class Recorder:
    """Timing samples plus the attempted/failed operation tally of one run.

    A unit's timings wait in `pending` until the host's speed after the unit
    is known; commit() then turns them into samples.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.pending: list[tuple[str, float, float, int | None, float]] = []
        self.attempted = 0
        self.failed = 0

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def commit(self, slowdown: float, memory_slowdown: float) -> None:
        for name, interp_s, memory_s, count, unit in self.pending:
            seconds = interp_s / slowdown + memory_s / memory_slowdown
            self.add(name, count / seconds if count else seconds * unit)
        self.pending.clear()

    def ops(self, count: int) -> None:
        self.attempted += count

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {message}", file=sys.stderr)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def tail(self, name: str, q: float = 99.0, beyond: int = 10) -> float:
        """Percentile q, or the highest percentile with `beyond` samples above it if lower.

        With fewer than 1,000 samples a p99 is in effect the maximum, so it is
        capped at the percentile that still leaves ten samples beyond it.
        """
        values = self.samples[name]
        q = min(q, max(0.0, 100.0 * (1.0 - beyond / len(values))))
        return float(np.percentile(values, q))


@dataclass
class Context:
    """What the tasks share: recorder, tracer, flags and the scored accuracy."""

    rec: Recorder
    tracer: object = None
    checks: bool = True  # run the output checks at the end of each task's first pass
    tamper: bool = False  # flip one byte of the checked snapshot
    hits: int | None = None  # prequential hits of the first scored pass
    accuracy: float | None = None
    memory_bound_load: bool = False  # scale deserialize by memory_loop()
    slowdown: float = 1.0  # reference_loop() time at the last calibrate(), over REFERENCE_S
    memory_slowdown: float = 1.0  # the same for memory_loop()
    busy_s: float = 0.0  # CPU time between calibrations so far, at the reference speed
    _mark: float | None = None  # CPU clock at the end of the last calibrate()

    def calibrate(self) -> None:
        """Measure the host's speed now and settle the unit that ran since the last call.

        The unit's pending timings, and its share of busy_s, are scaled by
        the geometric mean of the slowdowns measured before and after it.
        """
        if self._mark is None:
            reference_loop()  # the first calls in a process run cold
            memory_loop()
        end = cpu_clock()
        slowdown = reference_loop() / REFERENCE_S
        memory_slowdown = memory_loop() / MEMORY_REFERENCE_S
        self.rec.add("slowdown", slowdown)
        self.rec.add("memory_slowdown", memory_slowdown)
        if self._mark is not None:
            mean = (self.slowdown * slowdown) ** 0.5
            self.busy_s += (end - self._mark) / mean
            self.rec.commit(mean, (self.memory_slowdown * memory_slowdown) ** 0.5)
        self.slowdown, self.memory_slowdown = slowdown, memory_slowdown
        if self.tracer is not None:
            self.tracer.slowdown, self.tracer.memory_slowdown = slowdown, memory_slowdown
        self._mark = cpu_clock()

    def time(self, name: str, interp_s: float = 0.0, memory_s: float = 0.0, *,
             load_s: float = 0.0, count: int | None = None, unit: float = 1.0) -> None:
        """Record a timing of the current unit.

        interp_s is CPU time of calls scaled by reference_loop(), memory_s
        that of serialize calls and load_s that of deserialize calls. The
        sample is count per second with a count, and otherwise the time in
        seconds times unit.
        """
        if self.memory_bound_load:
            memory_s += load_s
        else:
            interp_s += load_s
        self.rec.pending.append((name, interp_s, memory_s, count, unit))

    def phase(self, name: str):
        return self.tracer.phase_of(name) if self.tracer else nullcontext()

    def score(self, hits: int, total: int) -> None:
        """Keep the first pass's accuracy; every later pass must repeat it exactly."""
        if self.hits is None:
            self.hits, self.accuracy = hits, hits / total
        else:
            self.rec.check(hits == self.hits, "a repeated pass scored differently")


@dataclass
class Inputs:
    params: T.Hyperparams
    stream: list  # train-flagged prequential stream (serve-bundles: the pretraining rows)
    rows: list  # feature vectors for the read-only infer pass
    bundles: list  # capacity-128 bundles, about 10% of samples train-flagged
    bundle_labels: list = field(default_factory=list)
    snapshot: bytes | None = None  # serve-bundles: the pretrained model
    reference: list = field(default_factory=list)  # rows train_reference() trains on
    # the model the snapshot task saves and loads (and synth-d3k5's serve task
    # serves), the same for every seed; see train_reference
    reference_model: object = None


def make_bundles(stream, count: int, rng) -> tuple[list, list]:
    served = stream[: count * BUNDLE_CAPACITY]
    flags = rng.random(len(served)) < TRAIN_SHARE
    samples = [T.Sample(s.features, s.label, bool(f)) for s, f in zip(served, flags)]
    bundles = list(H.split_into_bundles(samples, BUNDLE_CAPACITY))
    return bundles, [s.label for s in served]


# ------------------------------------------------------------------- tasks
# Each task yields None after a unit of work and a non-None value after the
# last unit of a pass.


def train_task(ctx: Context, params, stream, chunk: int, scored: bool = True):
    """Prequential infer-then-train passes over the stream, a fresh tree each.

    A pass calls run_prequential once per chunk, back to back on one tree,
    so its hit count equals that of one run over the whole stream; each
    chunk gives a throughput sample. Yields the trained tree after a pass.
    """
    while True:
        tree = T.Tree(params)
        hits = 0
        for start in range(0, len(stream), chunk):
            with ctx.phase("train"):
                hits += train_chunk(ctx, tree, stream[start : start + chunk])
            if start + chunk < len(stream):
                yield None
        if scored:
            ctx.score(hits, len(stream))
        yield tree


def train_chunk(ctx: Context, tree, part) -> int:
    t = cpu_clock()
    report = H.run_prequential(tree, part, window=len(part))
    ctx.time("train_samples_per_s", cpu_clock() - t, count=len(part))
    ctx.rec.ops(len(part))
    return report.correct


def infer_task(ctx: Context, tree, rows, chunk: int):
    """Read-only infer passes over the rows; the first one is checked against a restored copy."""
    checked = not ctx.checks
    while True:
        preds: list[int] = []
        for start in range(0, len(rows), chunk):
            part = rows[start : start + chunk]
            with ctx.phase("infer"):
                t = cpu_clock()
                out = [tree.infer(x) for x in part]
                ctx.time("infer_samples_per_s", cpu_clock() - t, count=len(part))
            ctx.rec.ops(len(part))
            preds.extend(out)
            if start + chunk < len(rows):
                yield None
        if not checked:
            check_snapshot(ctx, tree, rows, preds)
            checked = True
        yield True


def serve_task(ctx: Context, snapshot: bytes, bundles, labels=None):
    """Device calling convention: load once, then process_bundle plus a sync per bundle.

    A pass restores the snapshot and serves every bundle, in SERVE_BLOCKS
    blocks that each give a throughput sample. Yields the served tree after
    a pass. With labels, the answers are scored as prequential accuracy.
    """
    checked = not ctx.checks
    block = max(1, len(bundles) // SERVE_BLOCKS)
    warmup = min(WARMUP_BUNDLES, len(bundles) - 1)
    prefix = min(REPLAY_BUNDLES, len(bundles))
    while True:
        outputs = []
        tree = None
        for start in range(0, len(bundles), block):
            with ctx.phase("serve"):
                work_s = sync_s = load_s = 0.0
                if tree is None:
                    t = cpu_clock()
                    tree = S.deserialize(snapshot)
                    load_s = cpu_clock() - t
                    ctx.rec.ops(1)
                served = 0
                for i in range(start, min(start + block, len(bundles))):
                    t = cpu_clock()
                    out = H.process_bundle(tree, bundles[i])
                    mid = cpu_clock()
                    sync = S.serialize(tree)
                    end = cpu_clock()
                    if i >= warmup:
                        ctx.time("bundle_ms", mid - t, end - mid, unit=1e3)
                    work_s += mid - t
                    sync_s += end - mid
                    outputs.append(out)
                    served += len(out)
                    if i + 1 == prefix and not checked:
                        prefix_sync = sync
                ctx.time("serve_samples_per_s", work_s, sync_s, load_s=load_s, count=served)
            ctx.rec.ops(2 * (i + 1 - start))
            del sync
            if i + 1 < len(bundles):
                yield None
        if labels is not None:
            answers = [a for out in outputs for a in out]
            ctx.score(sum(a == y for a, y in zip(answers, labels)), len(answers))
        if not checked:
            check_replay(ctx, snapshot, bundles[:prefix], outputs[:prefix], prefix_sync)
            del prefix_sync
            checked = True
        yield tree


def snapshot_task(ctx: Context, tree, repeats: int):
    """Save and load the model repeats times per step."""
    while True:
        with ctx.phase("snapshot"):
            save_and_load(ctx, tree, repeats)
        yield True


def save_and_load(ctx: Context, tree, repeats: int) -> None:
    for _ in range(repeats):
        t = cpu_clock()
        buf = S.serialize(tree)
        ctx.time("snapshot_save_ms", memory_s=cpu_clock() - t, unit=1e3)
        t = cpu_clock()
        S.deserialize(buf)
        ctx.time("snapshot_load_ms", load_s=cpu_clock() - t, unit=1e3)
    ctx.rec.ops(2 * repeats)


def measure(ctx: Context, workload: "Workload", inputs: Inputs, deadline: float | None):
    """Run the primary task's first pass, then every task in turn.

    The host's speed is measured between every two steps. Stops once every
    task has completed a pass and, with a deadline (a time.perf_counter()
    value), the deadline has passed. Returns the model and the CPU seconds
    the steps took at the reference speed.
    """
    ctx.calibrate()
    busy = ctx.busy_s
    primary = workload.primary(ctx, inputs)
    model = None
    while model is None:
        model = next(primary)
        ctx.calibrate()
    tasks = [primary, *workload.secondaries(ctx, inputs, model)]
    done = [True] + [False] * (len(tasks) - 1)
    while True:
        for i, task in enumerate(tasks):
            done[i] |= next(task) is not None
            ctx.calibrate()
        if all(done) and (deadline is None or time.perf_counter() >= deadline):
            return model, ctx.busy_s - busy


# ------------------------------------------------------------------ checks


def check_snapshot(ctx: Context, live, rows, expected: list[int]) -> None:
    """A saved snapshot must restore to the live tree, byte for byte and in its answers."""
    buf = S.serialize(live)
    if ctx.tamper:
        flipped = bytearray(buf)
        flipped[len(buf) // 2] ^= 0xFF
        buf = bytes(flipped)
    try:
        restored = S.deserialize(buf)
    except ValueError as exc:
        ctx.rec.check(False, f"snapshot does not deserialize: {exc}")
        return
    ctx.rec.check(S.serialize(restored) == buf, "deserialize -> serialize is not byte-identical")
    ctx.rec.check(buf == S.serialize(live), "restored snapshot differs from the live tree")
    got = [restored.infer(x) for x in rows]
    wrong = sum(a != b for a, b in zip(got, expected))
    ctx.rec.check(wrong == 0, f"restored tree disagrees with the live tree on {wrong} rows")


def check_replay(ctx: Context, snapshot: bytes, bundles, outputs, sync: bytes) -> None:
    """Bundles must behave exactly like the same sequence of single calls."""
    tree = S.deserialize(snapshot)
    replay = [
        [tree.train(s) if s.train else tree.infer(s.features) for s in bundle.samples]
        for bundle in bundles
    ]
    ctx.rec.check(replay == outputs, "bundle outputs differ from single calls")
    ctx.rec.check(S.serialize(tree) == sync, "bundle sync differs from the single-call model")


# --------------------------------------------------------------- workloads


def seeded_order(pool: list, rng) -> list:
    """The fixed population pool, in an order drawn from rng.

    Every workload streams a population drawn once with spec's own seed,
    and the run's seed only shuffles the order it arrives in, the way a
    shuffled data file would. With cluster centres drawn per seed, trees and
    timings follow the centre layout: on covtype-d54k7 prequential accuracy
    spread from 0.14 to 0.21 over ten seeds.
    """
    return [pool[i] for i in rng.permutation(len(pool))]


def train_reference(inputs: Inputs) -> None:
    """Train the reference model on inputs.reference, if the workload has such rows.

    deserialize builds one node at a time, so on the D=3 models its cost
    follows the node count, and the node count follows the stream order:
    after the 160k rows of synth-d3k5, seeds 0 to 9 gave 13 to 29 nodes, and
    the ten-seed spread of snapshot_load_ms reached 0.3. The reference model
    is trained on the population in the order generate_clusters draws it
    (labels in turn), which is the same for every seed. It is trained once
    per run, outside set-up and outside the measured time.
    """
    if inputs.reference:
        tree = T.Tree(inputs.params)
        H.run_prequential(tree, inputs.reference, window=len(inputs.reference))
        inputs.reference_model = tree


class Workload:
    """A workload's inputs and tasks.

    not_applicable names the end-to-end metrics the workload does not exist
    to measure. Every run still prints them, from smaller secondary tasks,
    because every workload of BENCHMARK.json must report every end-to-end
    metric; the declaration says which figures a workload is read for.
    """

    name = ""
    not_applicable: tuple[str, ...] = ()
    memory_bound_load = False  # see memory_loop
    reference_rows = 0  # rows of the population train_reference() trains on
    infer_chunk = 5_000
    snapshot_repeats = 1  # save/load pairs per turn

    def __init__(self, scale: float) -> None:
        self.scale = scale

    def n(self, full: int) -> int:
        return max(1, int(full * self.scale))

    def spec(self) -> D.DatasetSpec:
        raise NotImplementedError

    def setup(self, ctx: Context, seed: int) -> Inputs:
        raise NotImplementedError

    def primary(self, ctx: Context, inputs: Inputs):
        raise NotImplementedError

    def secondaries(self, ctx: Context, inputs: Inputs, model) -> list:
        raise NotImplementedError


class LearnWorkload(Workload):
    """Prequential training; infer, serving a copy, and snapshots of the trained model."""

    not_applicable = ("serve_samples_per_s", "bundle_p50_ms", "bundle_p99_ms")
    rows = 0
    train_chunk = 0
    bundles = 0

    def params(self) -> T.Hyperparams:
        raise NotImplementedError

    def setup(self, ctx: Context, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        pool = D.generate_clusters(self.spec())
        stream = seeded_order(pool, rng)
        ctx.calibrate()
        bundles, labels = make_bundles(stream, self.n(self.bundles), rng)
        rows = [s.features for s in stream]
        reference = pool[: self.n(self.reference_rows)] if self.reference_rows else []
        return Inputs(self.params(), stream, rows, bundles, labels, reference=reference)

    def primary(self, ctx: Context, inputs: Inputs):
        return train_task(ctx, inputs.params, inputs.stream, self.n(self.train_chunk))

    def secondaries(self, ctx: Context, inputs: Inputs, model) -> list:
        return [
            infer_task(ctx, model, inputs.rows, self.n(self.infer_chunk)),
            serve_task(ctx, S.serialize(inputs.reference_model or model), inputs.bundles),
            snapshot_task(ctx, inputs.reference_model or model, self.snapshot_repeats),
        ]


class SynthD3K5(LearnWorkload):
    name = "synth-d3k5"
    rows = 160_000
    reference_rows = rows
    train_chunk = 5_000
    bundles = 1_000
    snapshot_repeats = 3

    def spec(self) -> D.DatasetSpec:
        return D.DatasetSpec(clusters=5, dims=3, samples=self.n(self.rows), cluster_spread=0.04)

    def params(self) -> T.Hyperparams:
        return T.Hyperparams(dims=3, classes=5, tau=0.1)


class CovtypeD54K7(LearnWorkload):
    name = "covtype-d54k7"
    # deserialize allocates a ~100 KB sketch per leaf; its 5-second medians
    # followed memory_loop() (log deviation 0.04) far better than
    # reference_loop() (0.15), while on the D=3 models it was the reverse
    # (0.12 against 0.07)
    memory_bound_load = True
    rows = 20_000
    train_chunk = 1_000
    infer_chunk = 2_000
    bundles = 20

    def spec(self) -> D.DatasetSpec:
        return D.DatasetSpec(clusters=7, dims=54, samples=self.n(self.rows), cluster_spread=0.5)

    def params(self) -> T.Hyperparams:
        return T.Hyperparams(dims=54, classes=7)


class ServeBundles(Workload):
    """Serve a pretrained synth-d3k5 model through process_bundle, syncing after each bundle."""

    name = "serve-bundles"
    not_applicable = ("train_samples_per_s", "infer_samples_per_s")
    # at the 40k acceptance length the tree is nearly complete: fewer than 1%
    # of served bundles run a real split attempt, which keeps them out of p99
    # (after 20k rows that share ranged from 0.1% to 1.9% between seeds)
    pretrain = 40_000
    train_chunk = 5_000
    bundles = 1_000
    snapshot_repeats = 3

    def spec(self) -> D.DatasetSpec:
        samples = self.n(self.pretrain) + self.n(self.bundles) * BUNDLE_CAPACITY
        return D.DatasetSpec(clusters=5, dims=3, samples=samples, cluster_spread=0.04)

    def setup(self, ctx: Context, seed: int) -> Inputs:
        rng = np.random.default_rng(seed)
        pool = D.generate_clusters(self.spec())
        # the pretraining rows come in the order generate_clusters draws them,
        # so the pretrained model is the reference model (train_reference);
        # the seed orders the served rows and picks their train flags
        pretrain = pool[: self.n(self.pretrain)]
        rest = seeded_order(pool[self.n(self.pretrain) :], rng)
        ctx.calibrate()
        bundles, labels = make_bundles(rest, self.n(self.bundles), rng)
        params = T.Hyperparams(dims=3, classes=5, tau=0.1)
        tree = T.Tree(params)
        chunk = self.n(self.train_chunk)
        for start in range(0, len(pretrain), chunk):
            ctx.calibrate()
            H.run_prequential(tree, pretrain[start : start + chunk], window=chunk)
        ctx.rec.ops(len(pretrain))
        rows = [s.features for s in rest]
        return Inputs(
            params, pretrain, rows, bundles, labels, S.serialize(tree), reference_model=tree
        )

    def primary(self, ctx: Context, inputs: Inputs):
        return serve_task(ctx, inputs.snapshot, inputs.bundles, inputs.bundle_labels)

    def secondaries(self, ctx: Context, inputs: Inputs, model) -> list:
        # training throughput comes from re-running the pretraining stream
        return [
            train_task(ctx, inputs.params, inputs.stream, self.n(self.train_chunk), scored=False),
            infer_task(ctx, model, inputs.rows, self.n(self.infer_chunk)),
            snapshot_task(ctx, inputs.reference_model, self.snapshot_repeats),
        ]


WORKLOADS = {w.name: w for w in (SynthD3K5, CovtypeD54K7, ServeBundles)}
