"""Record the outputs the benchmark checks against: ``bench/reference.json``.

    python3 bench/make_reference.py

Runs every workload once, untraced, on the current source tree, and for
``mfg-nonlocal`` once per bump centre, then writes the per-operation
quantities each workload compares (``Workload.recorded``). The committed
file holds the seed commit's outputs; regenerate it only when a change
is meant to alter the discrete solution, and say so in CHANGES.md.
"""

from __future__ import annotations

import json

import run
import tracing
import workloads


def main() -> None:
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        seeds = range(workloads.N_CENTRES) if name == "mfg-nonlocal" else [0]
        rows = {}
        for seed in seeds:
            tracer = tracing.Tracer(tracing.SOLVER_TARGETS)
            rep = run.run_rep(workload, tracer, seed, f"{name}/{seed}", None)
            if rep.failed:
                raise SystemExit(f"{name} seed {seed} failed: {rep.failed}")
            for label, row in rep.outputs["ops"].items():
                rows[label] = {key: row[key] for key in workload.recorded}
            print(f"{name} seed {seed}: {rep.wall:.2f} s")
        reference[name] = rows
    run.REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
