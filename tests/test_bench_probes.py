"""The benchmark's layer probes still find every name they wrap.

bench/run.py's patch_layers wraps functions and methods of the package
by name, so renaming or removing one breaks the traced benchmark run.
This applies every probe and restores it, without running the benchmark,
and changes nothing under bench/.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_probe_patches_and_restores(monkeypatch):
    # patch_layers imports the layers through bench/workloads.py
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    owners = (workloads.D, workloads.H, workloads.S, workloads.T, workloads.T.Tree, workloads.T.LeafStats)
    before = [dict(vars(owner)) for owner in owners]
    tracer = bench_module("tracing").Tracer()
    try:
        bench_module("run").patch_layers(tracer, False)
        patched = list(tracer._patches)
        assert len(patched) == 13
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before
