"""Solver benchmark: time to a checked solution, set-up, peak memory, and
per-module spans.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload again and again for S seconds in this process and
checks every result. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics (medians over the runs);
with ``--trace 1`` runs alternate between untraced and traced, the JSON
carries the per-layer metrics and the spans are written to
``bench/out/trace-NAME-seedN.jsonl``. ``--workload all`` runs every
workload in its own child process and prints each one's figures.

Exit codes: 0 measured (the JSON says whether the results were correct),
2 the benchmark could not run (no package source, too many threads, or a
solver entry point that solve_s times is gone).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

try:
    import tracing
    import workloads
except ImportError as exc:  # run from a tree without src/nonsmooth_fem
    print(f"error: cannot load the package under test: {exc}", file=sys.stderr)
    sys.exit(2)

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
NAMES = ("hj-eikonal-refine", "mfg-huber-refine", "mfg-nonlocal", "stability-kinked")
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
CHILD_TIMEOUT_S = 900


# ------------------------------------------------------------- environment


def _openblas():
    """Each loaded OpenBLAS library with its version string and thread count."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        row = {"library": Path(path).name, "config": None, "threads": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    row["threads"] = int(threads())
                    row["config"] = config().decode()
        found.append(row)
    return found


def environment(seed: int, study_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas(),
        "study_threads": study_threads,
        "NONSMOOTH_FEM_THREADS": os.environ.get("NONSMOOTH_FEM_THREADS"),
        "seed": seed,
    }


def thread_excess(env: dict) -> str | None:
    """Why the run would use more worker threads than nproc, or None."""
    if env["study_threads"] > env["nproc"]:
        return f"study threads {env['study_threads']} > nproc {env['nproc']}"
    for row in env["blas"]:
        if row["threads"] is not None and row["threads"] > env["nproc"]:
            return f"{row['library']} runs {row['threads']} threads > nproc {env['nproc']}"
    return None


# --------------------------------------------------------------- measuring


@dataclass
class Rep:
    wall: float
    setup: float
    solve: float
    labels: list
    failed: dict  # operation label -> reason
    newton_iters: float  # summed over the run's solver calls
    outputs: dict | None
    layers: dict | None


def run_rep(workload, tracer, seed, run_id, reference, levels=None, layers=False) -> Rep:
    """One run of a workload under ``tracer``, checked against ``reference``.

    An exception from the library fails every operation of the run; it is
    reported, not raised, so that the benchmark keeps counting. So does a
    run that timed fewer solver calls than the workload makes: solve_s
    would leave out the calls that went past the wrappers.
    """
    levels = workload.levels if levels is None else tuple(levels)
    labels = workload.labels(levels, seed)
    outputs = None
    gc.collect()
    tracer.begin(run_id)
    with tracer.installed(), tracer.span("bench.run") as root:
        try:
            outputs = workload.run(tracer, levels, seed)
            failed = workloads.check(workload, outputs, reference)
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            failed = {label: f"{type(exc).__name__}: {exc}" for label in labels}
    spans = [s for s in tracer.spans if s.run == run_id]
    timed = Counter(s.name for s in spans if s.name in tracing.SOLVER_SPANS)
    for name, calls in workload.solver_calls(levels).items():
        if timed[name] < calls:
            reason = f"timed {timed[name]} of {calls} calls to {name}"
            for label in labels:
                failed.setdefault(label, reason)
    counts = tracer.counts[run_id]
    return Rep(
        wall=root.duration,
        setup=sum(s.duration for s in spans if s.name == "bench.setup"),
        solve=tracing.solve_seconds(spans),
        labels=labels,
        failed=failed,
        newton_iters=sum(v for k, v in counts.items() if k.endswith(".newton_iters")),
        outputs=outputs,
        layers=tracing.layer_metrics(tracer, run_id) if layers else None,
    )


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Repeats the workload within ``seconds`` (at least once); returns
    (untraced reps, traced reps, untraced tracer, traced tracer)."""
    workload = workloads.WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())[name]
    plain = tracing.Tracer(tracing.SOLVER_TARGETS)
    traced = tracing.Tracer(tracing.ALL_TARGETS)
    untraced_reps, traced_reps = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        run_id = f"{name}/{seed}/{rounds}"
        untraced_reps.append(run_rep(workload, plain, seed, run_id, reference))
        if trace:
            traced_reps.append(
                run_rep(workload, traced, seed, f"{run_id}/traced", reference, layers=True)
            )
        rounds += 1
        elapsed = time.perf_counter() - start
        # stop before a round that would end past the budget
        if elapsed + elapsed / rounds > seconds:
            return untraced_reps, traced_reps, plain, traced


def _median(values):
    return float(statistics.median(values))


def summarize(untraced_reps, traced_reps):
    """(end-to-end metrics, per-layer metrics or None, attempted, failed)."""
    reps = untraced_reps + traced_reps
    attempted = sum(len(r.labels) for r in reps)
    failed = sum(len(r.failed) for r in reps)
    end_to_end = {
        "wall_s": _median([r.wall for r in untraced_reps]),
        "setup_s": _median([r.setup for r in untraced_reps]),
        "solve_s": _median([r.solve for r in untraced_reps]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted,
    }
    if not traced_reps:
        return end_to_end, None, attempted, failed
    layers = {
        key: _median([r.layers[key] for r in traced_reps]) for key in traced_reps[0].layers
    }
    traced_wall = _median([r.wall for r in traced_reps])
    layers["trace_overhead_frac"] = traced_wall / end_to_end["wall_s"] - 1.0
    ordered = {key: layers[key] for key in tracing.PER_LAYER}
    return end_to_end, ordered, attempted, failed


def _write_spans(name, seed, env, tracer):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"environment": env, "counts": tracer.counts}) + "\n")
        for record in tracer.to_records():
            fh.write(json.dumps(record) + "\n")
    return path


def _run_one(args, env) -> int:
    untraced_reps, traced_reps, plain, tracer = measure(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    end_to_end, layers, attempted, failed = summarize(untraced_reps, traced_reps)
    print(f"workload {args.workload}: {len(untraced_reps)} untraced runs, "
          f"{len(traced_reps)} traced runs, seed {args.seed}")
    for key, unit in END_TO_END.items():
        print(f"  {key:<12} {end_to_end[key]:.6g} {unit}")
    print(f"  {'failed_frac':<12} {failed / attempted:.6g} (of {attempted} operations)")
    print(f"  {'newton_iters':<12} {_median([r.newton_iters for r in untraced_reps]):.6g} per run")
    for name in sorted(plain.missing | tracer.missing):
        print(f"  not traced (no such attribute): {name}", file=sys.stderr)
    reasons = {}
    for rep in untraced_reps + traced_reps:
        reasons.update(rep.failed)
    for label, reason in sorted(reasons.items()):
        print(f"  FAILED {label}: {reason}", file=sys.stderr)
    if layers is not None:
        for key, value in layers.items():
            print(f"  {key:<32} {value:.6g} {tracing.PER_LAYER[key][0]}")
        print(f"  spans written to {_write_spans(args.workload, args.seed, env, tracer)}")
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh process; its output passes through.
    Returns the parsed result line and the lines printed before it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr.strip()}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1]), lines[:-1]


def _run_all(args) -> int:
    results = {name: run_child(name, args.seed, args.seconds, args.trace)[0] for name in NAMES}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}/{key}": m for name, r in results.items() for key, m in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)  # run_seconds in BENCHMARK.json
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    env = environment(args.seed, workloads.STUDY_THREADS)
    excess = thread_excess(env)
    if excess:
        print(f"error: refusing to run: {excess}", file=sys.stderr)
        return 2
    gone = tracing.absent(tracing.SOLVER_TARGETS)
    if gone:
        print(f"error: solve_s cannot be timed; no such attribute: {', '.join(gone)}",
              file=sys.stderr)
        return 2
    blas = ", ".join(f"{b['library']} threads={b['threads']}" for b in env["blas"]) or "unknown"
    print(f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas=[{blas}] study_threads={env['study_threads']} "
          f"seed={env['seed']}")
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args, env)


if __name__ == "__main__":
    sys.exit(main())
