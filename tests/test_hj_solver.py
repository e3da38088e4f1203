"""Viscous Hamilton-Jacobi solves: residuals, Newton, Picard, rate studies.

Oracles: the zero-Hamiltonian case reduces to the linear operator (exact
one-step convergence), manufactured solutions u* = sin(pi x) sin(pi y) with
analytically compensated sources, and cross-solver agreement.
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nonsmooth_fem import fem, hj_solver, manufactured
from nonsmooth_fem.diagnostics import fit_rate
from nonsmooth_fem.fem import FemError, make_space
from nonsmooth_fem.hamiltonian import HamiltonianModel, builtin_model
from nonsmooth_fem.hj_solver import (
    HjProblem,
    convergence_study_hj,
    hj_residual,
    solve_newton,
    solve_picard,
)
from nonsmooth_fem.mesh import unit_square_mesh


def space_of(n):
    return make_space(unit_square_mesh(n))


def eikonal_problem(n, lam=1.0):
    model = builtin_model("eikonal")
    f = manufactured.hj_source(model, lam)
    return HjProblem(space=space_of(n), model=model, lam=lam, f=f)


def h1_distance(space, u, v):
    return fem.norm(space, u - v, "H1")


def direct_solve(space, lam, b):
    """(K + lam M)^{-1} b by a sparse direct solve."""
    W = fem.assemble_stiffness(space) + lam * fem.assemble_mass(space)
    return spla.spsolve(W.tocsc(), b)


# ------------------------------------------------------------------ residual


def test_residual_zero_hamiltonian_reduces_to_linear():
    space = space_of(8)
    lam = 1.0
    f = manufactured.hj_source(builtin_model("zero"), lam)
    b = fem.assemble_load(space, f)
    u = direct_solve(space, lam, b)
    prob = HjProblem(space=space, model=builtin_model("zero"), lam=lam, f=f)
    r = hj_residual(prob, u)
    assert np.abs(r).max() <= 1e-10


def test_residual_all_zero_data():
    space = space_of(4)
    prob = HjProblem(
        space=space, model=builtin_model("eikonal"), lam=1.0, f=lambda X: np.zeros(len(X))
    )
    r = hj_residual(prob, np.zeros(space.n_free))
    assert np.array_equal(r, np.zeros(space.n_free))


def test_residual_accepts_precomputed_load():
    space = space_of(4)
    model = builtin_model("eikonal")
    f = manufactured.hj_source(model, 1.0)
    b = fem.assemble_load(space, f)
    u = np.linspace(0, 1, space.n_free)
    r_field = hj_residual(HjProblem(space=space, model=model, lam=1.0, f=f), u)
    r_vec = hj_residual(HjProblem(space=space, model=model, lam=1.0, f=b), u)
    assert np.allclose(r_field, r_vec, atol=1e-14)


def test_residual_of_interpolant_shrinks_linearly():
    norms = []
    hs = []
    for n in (8, 16, 32):
        prob = eikonal_problem(n)
        u_i = fem.interpolate_nodal(prob.space, manufactured.u_star)
        rn = fem.residual_norm(prob.space)
        norms.append(rn(hj_residual(prob, u_i)))
        hs.append(prob.space.mesh.mesh_size_h)
    assert norms[0] > norms[1] > norms[2]
    fit = fit_rate(hs, norms)
    assert fit.slope >= 0.8


def test_residual_rejects_non_finite():
    space = space_of(4)
    prob = HjProblem(
        space=space,
        model=builtin_model("eikonal"),
        lam=1.0,
        f=lambda X: np.full(len(X), np.nan),
    )
    with pytest.raises(FemError, match="non-finite"):
        hj_residual(prob, np.zeros(space.n_free))


# -------------------------------------------------------------------- newton


def test_newton_zero_model_single_step():
    space = space_of(8)
    lam = 1.0
    f = manufactured.hj_source(builtin_model("zero"), lam)
    prob = HjProblem(space=space, model=builtin_model("zero"), lam=lam, f=f)
    rep = solve_newton(prob, np.zeros(space.n_free), tol=1e-10, max_iter=10)
    assert rep.converged
    assert rep.iterations == 1
    direct = direct_solve(space, lam, fem.assemble_load(space, f))
    assert np.abs(rep.final_u - direct).max() <= 1e-12


def test_newton_eikonal_manufactured_quasi_optimal():
    prob = eikonal_problem(16)
    rep = solve_newton(prob, np.zeros(prob.space.n_free), tol=1e-10, max_iter=50)
    assert rep.converged
    err = fem.error_vs_exact(
        prob.space, rep.final_u, manufactured.u_star, manufactured.grad_u_star, "H1"
    )
    u_i = fem.interpolate_nodal(prob.space, manufactured.u_star)
    interp_err = fem.error_vs_exact(
        prob.space, u_i, manufactured.u_star, manufactured.grad_u_star, "H1"
    )
    assert err <= 3.0 * interp_err


def test_newton_residual_history_monotone():
    prob = eikonal_problem(8)
    rep = solve_newton(prob, np.zeros(prob.space.n_free), tol=1e-10, max_iter=50)
    hist = np.asarray(rep.residual_history)
    assert (np.diff(hist) <= 0).all()


def test_newton_residual_certificate():
    prob = eikonal_problem(8)
    rep = solve_newton(prob, np.zeros(prob.space.n_free), tol=1e-10, max_iter=50)
    rn = fem.residual_norm(prob.space)
    recomputed = rn(hj_residual(prob, rep.final_u))
    assert abs(recomputed - rep.residual_history[-1]) <= 1e-14
    assert recomputed <= 1e-10


def test_newton_huber_fast_tail():
    model = builtin_model("huber", delta=1.0)
    lam = 1.0
    f = manufactured.hj_source(model, lam)
    prob = HjProblem(space=space_of(16), model=model, lam=lam, f=f)
    rep = solve_newton(prob, np.zeros(prob.space.n_free), tol=1e-11, max_iter=50)
    assert rep.converged
    hist = rep.residual_history
    # contraction at least 1/2 per accepted step near the solution
    tail = [hist[k + 1] / hist[k] for k in range(len(hist) - 2, len(hist) - 1)]
    assert all(ratio <= 0.5 for ratio in tail)


def test_newton_unreachable_tolerance_reports_not_converged():
    prob = eikonal_problem(8)
    rep = solve_newton(prob, np.zeros(prob.space.n_free), tol=1e-30, max_iter=60)
    assert not rep.converged
    assert np.isfinite(rep.residual_history).all()
    # still parked at the discrete solution for any realistic tolerance
    assert rep.residual_history[-1] <= 1e-12


def newton_step_of(J):
    """The driver's step for a fixed Newton matrix J, by hj_solver._newton_step."""
    return lambda x, r: hj_solver._newton_step(J, r, ())


def test_damped_iteration_exhausted_damping_keeps_start():
    # J = -I points every step uphill: x - s dx = (1 + s) x grows for all s
    x0 = np.array([1.0, -2.0])
    rep = hj_solver.damped_iteration(
        lambda x: x, newton_step_of(-sp.identity(2, format="csr")), np.linalg.norm,
        x0, tol=1e-12, max_iter=10,
    )
    assert rep.converged is False
    assert rep.message == "damping exhausted without residual decrease"
    assert np.array_equal(rep.final_u, x0)
    assert rep.iterations == 0
    assert rep.residual_history == [np.linalg.norm(x0)]


def test_damped_iteration_singular_jacobian_raises():
    with pytest.raises(FemError, match="singular"):
        hj_solver.damped_iteration(
            lambda x: x, newton_step_of(sp.csr_matrix((2, 2))), np.linalg.norm,
            np.ones(2), tol=1e-12, max_iter=10,
        )


def test_damped_iteration_rejects_a_negative_iteration_limit():
    with pytest.raises(ValueError, match="max_iter must be nonnegative, got -1"):
        hj_solver.damped_iteration(
            lambda x: x, newton_step_of(sp.identity(2, format="csr")), np.linalg.norm,
            np.ones(2), tol=1e-12, max_iter=-1,
        )


def test_damped_iteration_auxiliary_unknowns_give_the_reduced_step():
    # reduced J = [[4, -1], [1, 3]]; the lifted system writes -x2 as -2 w
    # with the trailing row 2 w - x2 = 0, so eliminating w gives J back
    J = sp.csr_matrix([[4.0, -1.0], [1.0, 3.0]])
    lifted = sp.csr_matrix([[4.0, 0.0, -2.0], [1.0, 3.0, 0.0], [0.0, -1.0, 2.0]])
    b = np.array([1.0, -2.0])
    x0 = np.array([0.3, 0.7])
    reps = [
        hj_solver.damped_iteration(
            lambda x: J @ x - b, newton_step_of(A), np.linalg.norm, x0, tol=1e-12, max_iter=5,
        )
        for A in (J, lifted)
    ]
    assert all(rep.converged and rep.iterations == 1 for rep in reps)
    reduced, aux = (rep.final_u for rep in reps)
    assert aux.shape == x0.shape
    assert np.linalg.norm(aux - reduced) <= 1e-15 * np.linalg.norm(reduced)


@pytest.mark.parametrize("n", [9, 33])
def test_odd_n_krylov_solve_is_one_iteration(n):
    # no hierarchy below odd n: the V-cycle is the coarse LU, an exact solve
    prob = eikonal_problem(n)
    assert fem.prolongations(prob.space) == ()
    J = hj_solver.newton_matrix(prob, np.zeros(prob.space.n_free))
    b = np.random.default_rng(n).normal(size=prob.space.n_free)
    y, iterations = fem.krylov_solve(J, b, fem._VCycle(J, ()))
    assert iterations == 1
    assert np.linalg.norm(b - J @ y) <= 1e-10 * np.linalg.norm(b)
    assert solve_newton(prob, tol=1e-10).converged


def test_newton_factors_nothing_above_the_coarsest_grid(monkeypatch):
    # n = 64 coarsens to n = 8, 49 unknowns: the Newton steps' V-cycles
    # are the only factorizations, all at that grid; the Picard updates and
    # the dual norm's PCG run on the sine solve and factor nothing
    factored = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        factored.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    rep = solve_newton(eikonal_problem(64), tol=1e-10)
    assert rep.converged
    assert factored and set(factored) == {49}
    factored.clear()
    rep = solve_picard(eikonal_problem(64), tol=1e-10, theta_p=1.0)
    assert rep.converged
    assert factored == []


def test_krylov_nonconvergence_raises_with_iterations_and_residual(monkeypatch):
    prob = eikonal_problem(32)
    monkeypatch.setattr(fem, "_KRYLOV_RTOL", 1e-30)  # below roundoff
    with pytest.raises(FemError) as err:
        solve_newton(prob, tol=1e-10)
    message = str(err.value)
    assert f"on {prob.space.n_free} unknowns" in message
    assert re.search(r"after \d+ iterations at relative residual \d\.\d{3}e-\d+", message)


def test_newton_traced_peak_per_free_dof():
    # everything a solve allocates, from make_space to the converged
    # iterate, at n=128: measured 927 bytes per free dof; bound = measured
    # plus 8%
    tracemalloc.start()
    try:
        prob = eikonal_problem(128)
        rep = solve_newton(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.converged
    assert peak <= 1000 * prob.space.n_free


def test_newton_jacobian_matches_directional_difference():
    model = builtin_model("huber", delta=1.0)
    space = space_of(8)
    lam = 1.0
    f = manufactured.hj_source(model, lam)
    prob = HjProblem(space=space, model=model, lam=lam, f=f)
    g = np.random.default_rng(3)
    # small coefficients keep every element gradient inside the smooth
    # quadratic branch, away from the sphere |Du| = delta
    u = 0.01 * g.normal(size=space.n_free)
    J = hj_solver.newton_matrix(prob, u)
    eps = 1e-6
    r0 = hj_residual(prob, u)
    for _ in range(20):
        w = g.normal(size=space.n_free)
        fd = (hj_residual(prob, u + eps * w) - r0) / eps
        Jw = J @ w
        assert np.linalg.norm(Jw - fd) <= 1e-5 * np.linalg.norm(Jw)


# -------------------------------------------------------------------- picard


def test_picard_zero_model_single_step():
    space = space_of(8)
    lam = 1.0
    f = manufactured.hj_source(builtin_model("zero"), lam)
    prob = HjProblem(space=space, model=builtin_model("zero"), lam=lam, f=f)
    rep = solve_picard(prob, np.zeros(space.n_free), tol=1e-10, max_iter=10, theta_p=1.0)
    assert rep.converged
    assert rep.iterations == 1


def test_picard_agrees_with_newton():
    prob = eikonal_problem(8)
    tol = 1e-10
    newton = solve_newton(prob, np.zeros(prob.space.n_free), tol=tol, max_iter=50)
    picard = solve_picard(
        prob, np.zeros(prob.space.n_free), tol=tol, max_iter=400, theta_p=0.5
    )
    assert newton.converged and picard.converged
    assert h1_distance(prob.space, newton.final_u, picard.final_u) <= 10 * tol


def test_picard_divergence_reports_cleanly():
    # steep max-affine slopes overpower lambda; undamped Picard oscillates
    model = builtin_model(
        "max_affine", pieces=[((40.0, 0.0), 0.0), ((-40.0, 0.0), 0.0)]
    )
    space = space_of(8)
    prob = HjProblem(space=space, model=model, lam=1.0, f=lambda X: np.ones(len(X)))
    g = np.random.default_rng(5)
    rep = solve_picard(
        prob, g.normal(size=space.n_free), tol=1e-12, max_iter=25, theta_p=1.0
    )
    # the damped driver stops where no damped step lowers the residual,
    # instead of following the undamped iteration to overflow
    assert not rep.converged
    assert rep.message == "damping exhausted without residual decrease"
    history = rep.residual_history
    assert np.isfinite(history).all()
    assert max(history) <= history[0]


def undamped_picard(problem, tol, max_iter, theta_p):
    """Reference: the undamped defect-form Picard loop from zero,
    u <- u - theta_p W^{-1} r(u) with every step taken in full."""
    space = problem.space
    W, solve = fem.operator(space, problem.lam), fem.sine_solver(space, problem.lam)
    rn = fem.residual_norm(space)
    u = np.zeros(space.n_free)
    r = hj_residual(problem, u)
    history = [rn(r)]
    while history[-1] > tol and len(history) <= max_iter:
        u = u - theta_p * fem.krylov_solve(W, r, solve)[0]
        r = hj_residual(problem, u)
        history.append(rn(r))
    return u, history


@pytest.mark.parametrize("theta_p", [0.5, 1.0])
def test_picard_takes_the_undamped_iterates_bitwise(theta_p):
    # on a contracting problem every full step lowers the residual, so the
    # damped driver reproduces the undamped iteration exactly
    prob = eikonal_problem(32)
    rep = solve_picard(prob, tol=1e-10, max_iter=200, theta_p=theta_p)
    u, history = undamped_picard(prob, 1e-10, 200, theta_p)
    assert rep.converged
    assert rep.iterations == len(history) - 1
    assert rep.residual_history == history
    assert np.array_equal(rep.final_u, u)


def test_localization_small_probe():
    prob = eikonal_problem(8)
    tol = 1e-10
    base = solve_newton(prob, np.zeros(prob.space.n_free), tol=tol, max_iter=50)
    assert base.converged
    g = np.random.default_rng(17)
    for _ in range(3):
        delta = g.normal(size=prob.space.n_free)
        delta *= 0.1 / fem.norm(prob.space, delta, "H1")
        rep = solve_newton(prob, base.final_u + delta, tol=tol, max_iter=50)
        assert rep.converged
        assert h1_distance(prob.space, rep.final_u, base.final_u) <= 1e-8


# ------------------------------------------------------------- rate studies


def test_study_poisson_rates():
    model = builtin_model("zero")
    lam = 0.0
    f = manufactured.hj_source(model, lam)

    def factory(n):
        return HjProblem(space=space_of(n), model=model, lam=lam, f=f)

    report = convergence_study_hj(
        factory,
        levels=(8, 16, 32),
        u_exact=manufactured.u_star,
        grad_exact=manufactured.grad_u_star,
        solver="newton",
        tol=1e-11,
    )
    assert 1.8 <= report.rates["L2"].slope <= 2.2
    assert 0.9 <= report.rates["H1"].slope <= 1.1
    for kind in ("L2", "H1"):
        errs = report.errors[kind]
        assert all(a > b for a, b in zip(errs, errs[1:]))
    assert report.hs == sorted(report.hs, reverse=True)


def test_study_threads_do_not_change_results():
    model = builtin_model("eikonal")
    f = manufactured.hj_source(model, 1.0)

    def factory(n):
        return HjProblem(space=space_of(n), model=model, lam=1.0, f=f)

    kwargs = dict(
        levels=(8, 16),
        u_exact=manufactured.u_star,
        grad_exact=manufactured.grad_u_star,
        solver="newton",
        tol=1e-10,
    )
    seq = convergence_study_hj(factory, threads=1, **kwargs)
    par = convergence_study_hj(factory, threads=2, **kwargs)
    assert seq.errors == par.errors
    assert seq.hs == par.hs


def _spied_study(monkeypatch, levels):
    """An eikonal study with every solve_newton call's start and result on
    record, through the module-global entry point the study calls."""
    calls = []

    def spy(problem, u0=None, **kwargs):
        rep = solve_newton(problem, u0, **kwargs)
        calls.append((problem, u0, rep))
        return rep

    monkeypatch.setattr(hj_solver, "solve_newton", spy)
    report = convergence_study_hj(
        eikonal_problem, levels, manufactured.u_star, manufactured.grad_u_star, tol=1e-10
    )
    return report, calls


def test_study_starts_each_doubled_level_from_the_prolongated_coarse_solution(monkeypatch):
    report, calls = _spied_study(monkeypatch, (16, 32, 64))
    assert calls[0][1] is None
    for (coarse, _, coarse_rep), (fine, u0, _) in zip(calls, calls[1:]):
        P = fem.prolongations(fine.space)[0][0]
        assert np.array_equal(u0, P @ coarse_rep.final_u)
        # P is exact P1 interpolation of the coarse solution
        nodes = fine.space.mesh.vertices[fine.space.free_dofs]
        coarse_at_nodes = fem.evaluate(coarse.space, coarse_rep.final_u, nodes)
        assert np.abs(u0 - coarse_at_nodes).max() <= 1e-15
    problems = [eikonal_problem(n) for n in (16, 32, 64)]
    cold = [solve_newton(problem, tol=1e-10) for problem in problems]
    assert report.meta["iterations"][0] == cold[0].iterations
    chained = report.meta["iterations"][1:]
    assert all(c <= r.iterations for c, r in zip(chained, cold[1:]))
    assert any(c < r.iterations for c, r in zip(chained, cold[1:]))
    for i, (problem, rep) in enumerate(zip(problems, cold)):
        for kind in ("L2", "H1"):
            ref = fem.error_vs_exact(
                problem.space, rep.final_u, manufactured.u_star, manufactured.grad_u_star, kind
            )
            assert abs(report.errors[kind][i] - ref) <= 1e-7 * ref


def test_study_starts_non_doubling_levels_from_zero(monkeypatch):
    _, calls = _spied_study(monkeypatch, (12, 18))
    assert [u0 for _, u0, _ in calls] == [None, None]


def test_study_propagates_nonconvergence():
    model = builtin_model(
        "max_affine", pieces=[((40.0, 0.0), 0.0), ((-40.0, 0.0), 0.0)]
    )

    def factory(n):
        return HjProblem(
            space=space_of(n), model=model, lam=1.0, f=lambda X: np.ones(len(X))
        )

    with pytest.raises(fem.NonconvergenceError):
        convergence_study_hj(
            factory,
            levels=(4, 8, 16),
            u_exact=manufactured.u_star,
            grad_exact=manufactured.grad_u_star,
            solver="picard",
            tol=1e-12,
            max_iter=5,
            theta_p=1.0,
        )


# ------------------------------------------------------- manufactured fields


def test_hj_source_zero_model_formula():
    lam = 2.0
    f = manufactured.hj_source(builtin_model("zero"), lam)
    g = np.random.default_rng(7)
    X = g.uniform(0, 1, size=(50, 2))
    expected = (2 * np.pi**2 + lam) * manufactured.u_star(X)
    assert np.allclose(f(X), expected, atol=1e-13)


def test_hj_source_eikonal_formula():
    lam = 1.0
    f = manufactured.hj_source(builtin_model("eikonal"), lam)
    g = np.random.default_rng(9)
    X = g.uniform(0, 1, size=(50, 2))
    grad = manufactured.grad_u_star(X)
    expected = (2 * np.pi**2 + lam) * manufactured.u_star(X) + np.linalg.norm(
        grad, axis=1
    )
    assert np.allclose(f(X), expected, atol=1e-13)


def test_grad_and_hessian_consistency():
    g = np.random.default_rng(11)
    X = g.uniform(0.05, 0.95, size=(30, 2))
    eps = 1e-6
    for k, e in enumerate(np.eye(2)):
        fd = (manufactured.u_star(X + eps * e) - manufactured.u_star(X - eps * e)) / (
            2 * eps
        )
        assert np.allclose(fd, manufactured.grad_u_star(X)[:, k], atol=1e-8)
        fd_g = (
            manufactured.grad_u_star(X + eps * e)
            - manufactured.grad_u_star(X - eps * e)
        ) / (2 * eps)
        assert np.allclose(fd_g, manufactured.hess_u_star(X)[:, :, k], atol=1e-7)
