"""Record one entry of the BENCH trajectory.

    python3 bench/record.py --label baseline

Runs bench/run.py on every workload of BENCHMARK.json, once per seed
(0..9, or ten from --first-seed) untraced and once traced with the first
seed, one run at a time, and writes
bench/results/BENCH_<label>.json. For each end-to-end metric the entry
holds every run's value, the median, the quartiles from
statistics.quantiles(values, n=4), and the spread: the distance between
the quartiles as a share of the median. The traced run repeats the first
seed, and the entry says whether it scored the same prequential accuracy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or '"metrics"' not in lines[-1]:
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr}")
    out = json.loads(lines[-1])
    out["env"] = json.loads(lines[0])["env"]
    out.update(json.loads(lines[-2]))  # host_slowdown and not_applicable, or layer shares
    out["wall_s"] = time.perf_counter() - start
    out["exit_code"] = proc.returncode
    return out


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--first-seed", type=int, default=0)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    entry = {"label": args.label, "run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            r = run(workload, seed, seconds, 0)
            runs.append(r)
            print(f"{workload} seed {seed}: {r['wall_s']:.1f} s, correct {r['correct']}", file=sys.stderr)
        entry.setdefault("env", {k: v for k, v in runs[0]["env"].items() if k not in ("workload", "seed")})
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            summary[metric["name"]] = {"unit": metric["unit"], **summarise(values), "values": values}
        traced = run(workload, seeds[0], seconds, 1)
        entry["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "host_slowdown": [r["host_slowdown"] for r in runs],
            "not_applicable": runs[0]["not_applicable"],
            "end_to_end": summary,
            "traced": {
                "seed": seeds[0],
                "accuracy_repeats": traced["layer_shares_of_train_time"]["prequential_accuracy"]
                == runs[0]["metrics"]["prequential_accuracy"]["value"],
                "wall_s": round(traced["wall_s"], 1),
                "layer_shares_of_train_time": traced["layer_shares_of_train_time"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
    out = BENCH / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(entry, indent=1) + "\n")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, data in entry["workloads"].items():
        for name, s in data["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  above bound/3"
            print(f"{workload:14s} {name:22s} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  f" bound {bounds[name]}{flag}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
