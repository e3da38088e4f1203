"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints a single [PASS]/[FAIL] line (visible under pytest -s or in
the captured output of a failure) and asserts the same condition. Expensive
studies are shared through module-scoped fixtures so the whole file stays
within the stated runtime budgets. The last test is no criterion: it checks
that the Krylov Newton steps reach the states of direct LU steps at every
acceptance level.
"""

import time

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from nonsmooth_fem import diagnostics as dg
from nonsmooth_fem import fem, hj_solver, manufactured as man
from nonsmooth_fem import mfg_solver as mfg
from nonsmooth_fem.hamiltonian import builtin_model, eval_many, mean_value_matrix
from nonsmooth_fem.mesh import unit_square_mesh

HJ_LEVELS = [8, 16, 32, 64]
MFG_LEVELS = [8, 16, 32, 64]
HJ_TOL = 1e-10
MFG_TOL = 1e-9


def verdict(num, label, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} {label}: {detail}")
    assert ok, f"criterion {num} {label}: {detail}"


def builtin_instances():
    return [
        builtin_model("zero"),
        builtin_model("eikonal"),
        builtin_model("huber", delta=1.0),
        builtin_model("huber", delta=0.25),
        builtin_model(
            "max_affine",
            pieces=[((1.0, 2.0), 0.5), ((-1.0, 0.5), 0.0), ((0.0, -1.0), 0.2)],
        ),
    ]


def hj_problem(n, model, lam):
    space = fem.make_space(unit_square_mesh(n))
    return hj_solver.HjProblem(
        space=space, model=model, lam=lam, f=man.hj_source(model, lam)
    )


@pytest.fixture(scope="module")
def eikonal_study():
    model = builtin_model("eikonal")
    t0 = time.perf_counter()
    study = hj_solver.convergence_study_hj(
        lambda n: hj_problem(n, model, 1.0), HJ_LEVELS,
        man.u_star, man.grad_u_star, solver="newton", tol=HJ_TOL,
    )
    return study, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mfg_study():
    model = builtin_model("huber", delta=1.0)
    coupling = mfg.local_linear(1.0)
    g_hjb, g_fp = man.mfg_sources(model, coupling, 1.0)

    def factory(n):
        space = fem.make_space(unit_square_mesh(n))
        return mfg.make_mfg_problem(
            space, model, coupling, 1.0, man.m_star, g_hjb=g_hjb, g_fp=g_fp
        )

    t0 = time.perf_counter()
    study = mfg.convergence_study_mfg(
        factory, MFG_LEVELS, man.u_star, man.grad_u_star,
        man.m_star, man.grad_m_star, solver="newton", tol=MFG_TOL, r=4.0,
    )
    return study, time.perf_counter() - t0


def test_criterion_1_hj_quasi_optimal_rate(eikonal_study):
    study, elapsed = eikonal_study
    fit = study.rates["H1"]
    ok = fit.slope >= 0.9 and fit.r_squared >= 0.99 and elapsed < 60.0
    verdict(
        1, "hj eikonal H1 rate",
        ok, f"slope={fit.slope:.3f} r2={fit.r_squared:.5f} time={elapsed:.1f}s",
    )


def test_criterion_2_poisson_sanity():
    model = builtin_model("zero")
    study = hj_solver.convergence_study_hj(
        lambda n: hj_problem(n, model, 0.0), HJ_LEVELS,
        man.u_star, man.grad_u_star, solver="newton", tol=1e-12,
    )
    l2, h1 = study.rates["L2"].slope, study.rates["H1"].slope
    ok = 1.8 <= l2 <= 2.2 and 0.9 <= h1 <= 1.1
    verdict(2, "poisson rates", ok, f"L2={l2:.3f} H1={h1:.3f}")


def test_criterion_3_mfg_improved_rate(mfg_study):
    study, elapsed = mfg_study
    fit = study.rates["combined_H1_L2"]
    ok = fit.slope >= 0.9 and elapsed < 180.0
    verdict(
        3, "mfg combined H1xL2 rate",
        ok, f"slope={fit.slope:.3f} r2={fit.r_squared:.5f} time={elapsed:.1f}s",
    )


def test_criterion_4_mfg_baseline_rate_floor(mfg_study):
    study, _ = mfg_study
    fit = study.rates["combined_W14_L4"]
    ok = fit.slope >= 0.25
    verdict(4, "mfg combined W14xL4 rate", ok, f"slope={fit.slope:.3f}")


def test_criterion_5_mean_value_oracle():
    g = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_secant = 0.0
    worst_norm = 0.0
    for model in builtin_instances():
        Z1 = g.uniform(-3, 3, size=(10_000, 2))
        Z2 = g.uniform(-3, 3, size=(10_000, 2))
        for z1, z2 in zip(Z1, Z2):
            A = mean_value_matrix(model, z1, z2)
            h1, h2 = eval_many(model, z1)[0], eval_many(model, z2)[0]
            rel = abs(A @ (z1 - z2) - (h1 - h2)) / (1 + abs(h1) + abs(h2))
            worst_secant = max(worst_secant, rel)
            worst_norm = max(
                worst_norm, np.linalg.norm(A) - model.lipschitz_C_H
            )
    elapsed = time.perf_counter() - t0
    ok = worst_secant <= 1e-10 and worst_norm <= 1e-12 and elapsed < 5.0
    verdict(
        5, "mean value secant",
        ok,
        f"secant={worst_secant:.2e} ball_excess={worst_norm:.2e} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_6_perturbation_inequality():
    g = np.random.default_rng(7)
    violations = 0
    for _ in range(1_000):
        T = g.normal(size=(8, 8))
        S = g.normal(size=(8, 8)) * g.uniform(0.01, 2.0)
        holds, slack = dg.perturbation_check(T, S)
        if not holds or slack < -1e-12:
            violations += 1
    worst_gap = 0.0
    for _ in range(1_000):
        A = g.normal(size=(8, 8))
        gap = abs(dg.banach_constant(A) - np.linalg.svd(A, compute_uv=False)[-1])
        worst_gap = max(worst_gap, gap)
    ok = violations == 0 and worst_gap <= 1e-12
    verdict(
        6, "banach perturbation",
        ok, f"violations={violations} svd_gap={worst_gap:.2e}",
    )


def test_criterion_7_uniform_stability_scan():
    model = builtin_model("huber", delta=1.0)
    cases = []
    for n in (8, 16, 32):
        space = fem.make_space(unit_square_mesh(n))
        problem = mfg.make_mfg_problem(
            space, model, mfg.local_linear(1.0), 1.0, man.bump
        )
        report = mfg.mfg_newton(problem, tol=MFG_TOL)
        assert report.converged
        cases.append((problem, report.final_state))
    scan = dg.stability_scan(cases, n_selection_samples=10)
    lo = min(scan.min_per_level)
    ok = lo > 0 and scan.ratio_max_min <= 10.0
    verdict(
        7, "stability scan",
        ok, f"min={lo:.4f} ratio={scan.ratio_max_min:.3f}",
    )


def test_criterion_7_kinked_stability_scan():
    # criterion 7's bump data puts no element on the kink; manufactured
    # sinsin crosses |Du| = delta, so the scan samples both branches
    model = builtin_model("huber", delta=1.0)
    coupling = mfg.local_linear(1.0)
    g_hjb, g_fp = man.mfg_sources(model, coupling, 1.0)
    cases = []
    for n in (16, 32):
        space = fem.make_space(unit_square_mesh(n))
        problem = mfg.make_mfg_problem(
            space, model, coupling, 1.0, man.m_star, g_hjb=g_hjb, g_fp=g_fp
        )
        report = mfg.mfg_newton(problem, tol=MFG_TOL)
        assert report.converged
        cases.append((problem, report.final_state))
    scan = dg.stability_scan(cases, n_selection_samples=3)
    kinks = scan.meta["kink_elements"]
    lo = min(scan.min_per_level)
    ok = min(kinks) > 0 and lo > 0 and scan.ratio_max_min <= 10.0
    verdict(
        7, "stability scan on a kinked state",
        ok, f"kink_elements={kinks} min={lo:.4f} ratio={scan.ratio_max_min:.3f}",
    )


def test_criterion_8_cross_solver_agreement():
    worst_hj = 0.0
    model = builtin_model("eikonal")
    for n in HJ_LEVELS:
        problem = hj_problem(n, model, 1.0)
        a = hj_solver.solve_newton(problem, tol=HJ_TOL)
        b = hj_solver.solve_picard(problem, tol=HJ_TOL, theta_p=1.0)
        assert a.converged and b.converged
        worst_hj = max(
            worst_hj, fem.norm(problem.space, a.final_u - b.final_u, "H1")
        )

    hmodel = builtin_model("huber", delta=1.0)
    coupling = mfg.local_linear(1.0)
    g_hjb, g_fp = man.mfg_sources(hmodel, coupling, 1.0)
    worst_mfg = 0.0
    for n in MFG_LEVELS:
        space = fem.make_space(unit_square_mesh(n))
        problem = mfg.make_mfg_problem(
            space, hmodel, coupling, 1.0, man.m_star, g_hjb=g_hjb, g_fp=g_fp
        )
        a = mfg.mfg_newton(problem, tol=MFG_TOL)
        b = mfg.mfg_picard(problem, tol=MFG_TOL, theta_p=1.0)
        assert a.converged and b.converged
        worst_mfg = max(
            worst_mfg,
            mfg.state_distance(space, a.final_state, b.final_state),
        )
    ok = worst_hj <= 10 * HJ_TOL and worst_mfg <= 10 * MFG_TOL
    verdict(
        8, "newton/picard agreement",
        ok, f"hj={worst_hj:.2e} (cap {10 * HJ_TOL:.0e}) "
            f"mfg={worst_mfg:.2e} (cap {10 * MFG_TOL:.0e})",
    )


def test_criterion_9_localization_probe():
    problem = hj_problem(16, builtin_model("eikonal"), 1.0)
    space = problem.space
    reference = hj_solver.solve_newton(problem, tol=HJ_TOL)
    assert reference.converged
    g = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10):
        v = g.normal(size=space.n_free)
        v *= 0.1 / fem.norm(space, v, "H1")
        restart = hj_solver.solve_newton(
            problem, u0=reference.final_u + v, tol=HJ_TOL
        )
        assert restart.converged
        worst = max(
            worst, fem.norm(space, restart.final_u - reference.final_u, "H1")
        )
    ok = worst <= 1e-8
    verdict(9, "localization", ok, f"max_spread={worst:.2e}")


def _direct_newton_step(J, r, hierarchy):
    """Reference Newton step: one sparse LU of the whole Jacobian."""
    return spla.splu(J.tocsc()).solve(np.pad(r, (0, J.shape[0] - len(r))))[: len(r)]


def test_krylov_newton_matches_direct_lu(monkeypatch):
    # GMRES stops at relative residual 1e-10; measured: the same iteration
    # counts and final states within 2e-15 (max norm, relative) at every level
    hmodel = builtin_model("huber", delta=1.0)
    coupling = mfg.local_linear(1.0)
    g_hjb, g_fp = man.mfg_sources(hmodel, coupling, 1.0)

    def solve_all():
        out = []
        for n in HJ_LEVELS:
            problem = hj_problem(n, builtin_model("eikonal"), 1.0)
            rep = hj_solver.solve_newton(problem, tol=HJ_TOL)
            out.append((rep.iterations, rep.final_u))
        for n in MFG_LEVELS:
            space = fem.make_space(unit_square_mesh(n))
            problem = mfg.make_mfg_problem(
                space, hmodel, coupling, 1.0, man.m_star, g_hjb=g_hjb, g_fp=g_fp
            )
            rep = mfg.mfg_newton(problem, tol=MFG_TOL)
            out.append((rep.iterations, np.concatenate([rep.final_state.u, rep.final_state.m])))
        return out

    krylov = solve_all()
    monkeypatch.setattr(hj_solver, "_newton_step", _direct_newton_step)
    direct = solve_all()
    for (it_k, x_k), (it_d, x_d) in zip(krylov, direct):
        assert it_k == it_d
        assert np.max(np.abs(x_k - x_d)) <= 1e-12 * np.max(np.abs(x_d))
