"""The benchmark's four workloads: inputs, library calls and correctness checks.

Each workload calls the package's public functions with the configuration
of one CLI subcommand. Set-up (mesh, space, model and coupling parsing,
manufactured sources, problem construction) runs inside ``bench.setup``
spans so that it is timed apart from the solver calls.

Only ``mfg-nonlocal`` reads the seed: it picks the centre of the initial
density bump from a fixed 5 x 5 grid, and seed 0 picks (0.5, 0.5), the
CLI's ``bump``. The grid is finite so that the seed commit's mass is on
record for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import srcpath  # noqa: F401  (must precede the package imports)
from nonsmooth_fem import diagnostics as dg
from nonsmooth_fem import fem, hj_solver, mesh
from nonsmooth_fem import hamiltonian as hm
from nonsmooth_fem import manufactured as man
from nonsmooth_fem import mfg_solver as mfg
from nonsmooth_fem.fem import NonconvergenceError

LAM = 1.0
HJ_TOL = 1e-10
MFG_TOL = 1e-9
MAX_ITER = 100  # CLI default
STUDY_THREADS = 1  # CLI default with NONSMOOTH_FEM_THREADS unset

# Recorded quantities match when |x - ref| <= RTOL |ref| + ATOL. Two
# solutions that both meet the solver tolerance (1e-9 or finer in the dual
# norm) differ by far less than ATOL; the smallest discretisation error on
# record (about 5e-5) is far larger.
RTOL = 1e-4
ATOL = 1e-7

_OFFSETS = (0.0, -0.1, -0.05, 0.05, 0.1)
N_CENTRES = len(_OFFSETS) ** 2


def bump_centre(seed: int) -> tuple:
    k = int(seed) % N_CENTRES
    return 0.5 + _OFFSETS[k % 5], 0.5 + _OFFSETS[k // 5]


def bump_at(cx: float, cy: float):
    """16 s(1-s) t(1-t) with s = x^a, t = y^b chosen so the peak sits at
    (cx, cy); zero on the boundary. At (0.5, 0.5) both exponents are 1 and
    the values equal ``manufactured.bump`` bit for bit."""
    a = np.log(0.5) / np.log(cx)
    b = np.log(0.5) / np.log(cy)

    def m0(X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        s = X[:, 0] ** a
        t = X[:, 1] ** b
        return 16.0 * s * (1.0 - s) * t * (1.0 - t)

    return m0


# --------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mirrors: str  # the CLI command this workload reproduces
    levels: tuple
    labels: Callable  # (levels, seed) -> operation labels
    run: Callable  # (tracer, levels, seed) -> {"ops": {label: {...}}, "global": {...}}
    solver_calls: Callable  # levels -> {solver span name: calls a run must time}
    criteria: Callable  # outputs -> {label or "*": reason}
    recorded: tuple  # per-operation outputs compared with the seed commit


def _level_labels(levels, seed):
    return [f"n={n}" for n in levels]


def _per_level(name):
    return lambda levels: {name: len(levels)}


def _stability_calls(levels):
    return {"mfg_solver.mfg_newton": len(levels), "diagnostics.stability_scan": 1}


def _rows(study, keys):
    return {
        f"n={n}": {k: float(study.errors[k][i]) for k in keys}
        for i, n in enumerate(study.levels)
    }


def _run_hj_refine(tracer, levels, seed):
    with tracer.span("bench.setup"):
        model = hm.model_from_spec("eikonal")
        source = man.hj_source(model, LAM)

    def factory(n):
        with tracer.span("bench.setup"):
            space = fem.make_space(mesh.unit_square_mesh(n))
            return hj_solver.HjProblem(space=space, model=model, lam=LAM, f=source)

    study = hj_solver.convergence_study_hj(
        factory, levels, man.u_star, man.grad_u_star,
        solver="newton", tol=HJ_TOL, max_iter=MAX_ITER, threads=STUDY_THREADS,
    )
    fit = study.rates["H1"]
    return {
        "ops": _rows(study, ("L2", "H1")),
        "global": {"H1_slope": fit.slope, "H1_r2": fit.r_squared},
    }


def _hj_criteria(out):
    g = out["global"]
    if g["H1_slope"] >= 0.9 and g["H1_r2"] >= 0.99:
        return {}
    return {"*": f"criterion 1: H1 slope {g['H1_slope']:.4f}, r2 {g['H1_r2']:.5f}"}


_MFG_ERRORS = ("u_H1", "m_L2", "u_W14", "m_L4", "combined_H1_L2", "combined_W14_L4")


def _manufactured_mfg(tracer, model, coupling, g_hjb, g_fp, n):
    with tracer.span("bench.setup"):
        space = fem.make_space(mesh.unit_square_mesh(n))
        return mfg.make_mfg_problem(
            space, model, coupling, LAM, man.m_star, g_hjb=g_hjb, g_fp=g_fp
        )


def _huber_local(tracer):
    with tracer.span("bench.setup"):
        model = hm.model_from_spec("huber:1")
        coupling = mfg.coupling_from_spec("local:linear")
        g_hjb, g_fp = man.mfg_sources(model, coupling, LAM)
    return model, coupling, g_hjb, g_fp


def _run_mfg_refine(tracer, levels, seed):
    data = _huber_local(tracer)
    study = mfg.convergence_study_mfg(
        lambda n: _manufactured_mfg(tracer, *data, n),
        levels, man.u_star, man.grad_u_star, man.m_star, man.grad_m_star,
        solver="newton", tol=MFG_TOL, max_iter=MAX_ITER, r=4.0, threads=STUDY_THREADS,
    )
    return {
        "ops": _rows(study, _MFG_ERRORS),
        "global": {
            "H1_L2_slope": study.rates["combined_H1_L2"].slope,
            "W14_L4_slope": study.rates["combined_W14_L4"].slope,
        },
    }


def _mfg_criteria(out):
    g = out["global"]
    failed = {}
    if g["H1_L2_slope"] < 0.9:
        failed["*"] = f"criterion 3: combined H1xL2 slope {g['H1_L2_slope']:.4f}"
    if g["W14_L4_slope"] < 0.25:
        failed["*"] = f"criterion 4: combined W14xL4 slope {g['W14_L4_slope']:.4f}"
    return failed


def _nonlocal_labels(levels, seed):
    cx, cy = bump_centre(seed)
    return [f"n={n} centre=({cx:.2f},{cy:.2f})" for n in levels]


def _run_nonlocal(tracer, levels, seed):
    (n,) = levels
    (label,) = _nonlocal_labels(levels, seed)
    with tracer.span("bench.setup"):
        model = hm.model_from_spec("huber:1")
        coupling = mfg.coupling_from_spec("nonlocal:linear")
        space = fem.make_space(mesh.unit_square_mesh(n))
        problem = mfg.make_mfg_problem(space, model, coupling, LAM, bump_at(*bump_centre(seed)))
    report = mfg.mfg_newton(problem, tol=MFG_TOL, max_iter=MAX_ITER)
    state = report.final_state
    r = mfg.mfg_residual(problem, state)
    rn = fem.residual_norm(space)
    residual = float(np.hypot(rn(r[: space.n_free]), rn(r[space.n_free :])))
    mass = float(fem.assemble_load(space, lambda X: np.ones(len(X))) @ state.m)
    return {
        "ops": {
            label: {
                "converged": bool(report.converged),
                "residual": residual,
                "total_mass": mass,
            }
        },
        "global": {},
    }


def _nonlocal_criteria(out):
    failed = {}
    for label, row in out["ops"].items():
        if not row["converged"]:
            failed[label] = "mfg_newton returned converged=False"
        elif not row["residual"] <= MFG_TOL:
            failed[label] = f"final residual {row['residual']:.3e} above tol {MFG_TOL:g}"
    return failed


def _run_stability(tracer, levels, seed):
    data = _huber_local(tracer)
    cases = []
    for n in levels:
        problem = _manufactured_mfg(tracer, *data, n)
        report = mfg.mfg_newton(problem, tol=MFG_TOL, max_iter=MAX_ITER)
        if not report.converged:
            raise NonconvergenceError(
                f"level n={n} did not converge while building the scanned state"
            )
        cases.append((problem, report.final_state))
    scan = dg.stability_scan(cases, n_selection_samples=3)
    ops = {}
    for (problem, state), n, smin, kinks in zip(
        cases, levels, scan.min_per_level, scan.meta["kink_elements"]
    ):
        space = problem.space
        ops[f"n={n}"] = {
            "u_H1": fem.error_vs_exact(space, state.u, man.u_star, man.grad_u_star, "H1"),
            "m_L2": fem.error_vs_exact(space, state.m, man.m_star, man.grad_m_star, "L2"),
            "smin": float(smin),
            "kink_elements": int(kinks),
        }
    return {"ops": ops, "global": {"ratio_max_min": scan.ratio_max_min}}


def _stability_criteria(out):
    failed = {}
    for label, row in out["ops"].items():
        if row["kink_elements"] <= 0:
            failed[label] = "no element on the kink"
        elif not row["smin"] > 0:
            failed[label] = f"criterion 7: smin {row['smin']!r} not positive"
    ratio = out["global"]["ratio_max_min"]
    if not ratio <= 10.0:
        failed["*"] = f"criterion 7: ratio_max_min {ratio:.4f} above 10"
    return failed


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hj-eikonal-refine",
            why=(
                "Most unknowns: per-step splu, quad_points rebuilt per residual, H at 6 "
                "points per element; no mfg/diagnostics code. "
                "Mirrors convergence-hj --levels 64,128,256"
            ),
            mirrors=(
                "nonsmooth-fem convergence-hj --levels 64,128,256 --hamiltonian eikonal "
                "--lambda 1 --manufactured sinsin --solver newton --tol 1e-10"
            ),
            levels=(64, 128, 256),
            labels=_level_labels,
            run=_run_hj_refine,
            solver_calls=_per_level("hj_solver.solve_newton"),
            criteria=_hj_criteria,
            recorded=("L2", "H1"),
        ),
        Workload(
            name="mfg-huber-refine",
            why=(
                "Coupled claim across the Huber kink: block Jacobian and 2x-size block LU; "
                "local coupling, no smoother. Mirrors convergence-mfg --levels 32,64,128"
            ),
            mirrors=(
                "nonsmooth-fem convergence-mfg --levels 32,64,128 --hamiltonian huber:1 "
                "--coupling local:linear --lambda 1 --manufactured sinsin --solver newton "
                "--tol 1e-9 --r 4"
            ),
            levels=(32, 64, 128),
            labels=_level_labels,
            run=_run_mfg_refine,
            solver_calls=_per_level("mfg_solver.mfg_newton"),
            criteria=_mfg_criteria,
            recorded=_MFG_ERRORS,
        ),
        Workload(
            name="mfg-nonlocal",
            why=(
                "Dense mollifier product Q_fv@S@E, O(n_v^2) memory: the only user of "
                "_Smoother and the dense coupling branch. "
                "Mirrors solve-mfg --coupling nonlocal:linear --n 40"
            ),
            mirrors=(
                "nonsmooth-fem solve-mfg --n 40 --hamiltonian huber:1 "
                "--coupling nonlocal:linear --lambda 1 --m0 bump --solver newton --tol 1e-9"
            ),
            levels=(40,),
            labels=_nonlocal_labels,
            run=_run_nonlocal,
            solver_calls=_per_level("mfg_solver.mfg_newton"),
            criteria=_nonlocal_criteria,
            recorded=("total_mass",),
        ),
        Workload(
            name="stability-kinked",
            why=(
                "Only diagnostics user: dense GramPair check and shift-invert ARPACK on "
                "states with 16/64/118 kink elements. Mirrors diagnose-stability "
                "--levels 16,32,48 --samples 3"
            ),
            mirrors=(
                "nonsmooth-fem solve-mfg --hamiltonian huber:1 --coupling local:linear "
                "--m0 sinsin --manufactured sinsin --out s.json && nonsmooth-fem "
                "diagnose-stability --from s.json --levels 16,32,48 --samples 3"
            ),
            levels=(16, 32, 48),
            labels=_level_labels,
            run=_run_stability,
            solver_calls=_stability_calls,
            criteria=_stability_criteria,
            recorded=("u_H1", "m_L2", "smin"),
        ),
    )
}


def close_enough(value: float, ref: float) -> bool:
    return abs(value - ref) <= RTOL * abs(ref) + ATOL


def check(workload: Workload, outputs: dict, reference: dict | None) -> dict:
    """{operation label: reason} for every operation that fails a check.

    ``reference`` maps an operation label to the seed commit's outputs;
    None skips that comparison (used for sizes that are not on record).
    """
    failed = {}
    for label, row in outputs["ops"].items():
        if reference is None:
            continue
        ref = reference.get(label)
        if ref is None:
            failed[label] = "no recorded seed-commit value"
            continue
        for key in workload.recorded:
            if not close_enough(row[key], ref[key]):
                failed[label] = f"{key} = {row[key]!r}, seed commit {ref[key]!r}"
                break
    for label, reason in workload.criteria(outputs).items():
        if label == "*":
            for op in outputs["ops"]:
                failed.setdefault(op, reason)
        else:
            failed.setdefault(label, reason)
    return failed
