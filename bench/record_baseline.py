"""Repeat the benchmark over seeds, report its spread, and record a baseline.

    python3 bench/record_baseline.py [--out FILE]

Runs every workload ten times untraced, each time with another seed
(0, 1, ..., 9) and in a fresh process, and prints for each end-to-end
metric the median and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to a third of the metric's bound in BENCHMARK.json. It also
prints each seed's Newton iteration count, which tells a spread that
comes from the input apart from one that comes from the host. With
``--out`` it adds one traced run per workload (seed 0) and writes every
figure, the environment and the deliberate omissions to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

import run
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RUNS = 10

# Left out on purpose; see README.md.
OMITTED = {
    "hj-picard": (
        "HJ Picard goes through fem.solve_operator_Th (Jacobi-CG), which raises "
        "NonconvergenceError at n >= 128 (ROADMAP aim 3). A timed Picard workload "
        "would time that failure or need a smaller mesh that hides it; the change "
        "that fixes Picard adds the workload."
    ),
    "n512-sweep": (
        "The ROADMAP's sweep up to n=512 takes minutes per pass, too long to run "
        "22 times per check."
    ),
}


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def newton_iters(log) -> float:
    """The per-run Newton iteration count from a run's printed lines."""
    return next(float(line.split()[1]) for line in log if line.split()[:1] == ["newton_iters"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "run_seconds": seconds,
        "runs": RUNS,
        "seeds": list(range(RUNS)),
        "omitted": OMITTED,
        "workloads": {},
    }
    for name in run.NAMES:
        results, logs = zip(*(run.run_child(name, seed, seconds, 0) for seed in range(RUNS)))
        iters = [newton_iters(log) for log in logs]
        stats = {}
        print(f"== {name}: {RUNS} runs; Newton iterations per seed {iters}")
        for key in run.END_TO_END:
            stats[key] = spread([r["metrics"][key]["value"] for r in results])
            s = stats[key]
            print(f"   {key:<12} median {s['median']:.6g}  spread {s['spread']:.4f}  "
                  f"(a third of the bound: {bounds[key] / 3:.4f})")
        workload = workloads.WORKLOADS[name]
        entry = {
            "why": workload.why,
            "mirrors": workload.mirrors,
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "newton_iters_per_seed": iters,
            "end_to_end": stats,
        }
        if args.out:
            traced, _ = run.run_child(name, 0, seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.out:
        record["environment"] = run.environment(0, workloads.STUDY_THREADS)
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
