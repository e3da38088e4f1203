"""Semismooth Newton and damped Picard for the discrete viscous HJ problem

    find u_h:  (Du_h, Dphi) + (H(Du_h), phi) + lam (u_h, phi) = (f, phi)

on a P1 space with homogeneous Dirichlet conditions. H depends on the
gradient only and P1 gradients are constant per element, so H and its
Clarke selection xi are evaluated once per element (the selection field is
measurable and exact). The Newton matrix at an iterate u is K + lam M +
C(xi) with C(xi)[i][j] = integral of (xi_T . Dphi_j) phi_i. Steps are
damped by halving until the residual decreases in the discrete dual norm
||r||_{(K+M)^{-1}}; the weight is lambda-independent so stopping behaves
uniformly across mesh sizes. The damping lives in damped_iteration, the
one iteration loop of the package: HJ Picard and mfg_solver's block Newton
and Picard run through it too, each passing its own step.

Every Newton step is solved by fem.krylov_solve: GMRES(20) to relative
residual 1e-10, preconditioned by one geometric V-cycle on the unit-square
hierarchy (fem.prolongations, fem._VCycle): Galerkin coarse operators
P^T J P, damped Jacobi smoothing, and a sparse LU only at the coarsest
grid. The paper's h-uniform bound on the inverse linearization shows up as
a mesh-independent GMRES iteration count (10-14 from n = 32 to 1024, so
one restart cycle of 20 suffices and the basis holds 21 vectors). The
dual norm is evaluated by conjugate gradients preconditioned with the
sine-transform solve of K + M (fem.ResidualNorm: 2 iterations for
n <= 48 and 1 from n = 96 up, relative error of ||r||^2 at most 1.0e-10),
so an HJ Newton solve factors no fine-grid matrix. On a mesh with no
hierarchy (odd n, or n <= 8) each V-cycle is the LU of its matrix and
GMRES stops after one iteration.

Picard iterates the linear solution operator T = (K + lam M)^{-1} on the
lagged nonlinearity, u <- (1-theta) u + theta T(b - H-load(u)); it is
slower but derivative-free, and serves as an independent cross-check of
Newton limits. It runs in the algebraically identical defect form
u <- u - theta W^{-1} r(u), W = K + lam M, with each solve by GMRES
(fem.krylov_solve) preconditioned with the sine-transform solve of W
(fem.sine_solver), which inverts W up to O(h^2): 1-3 iterations (1 at
lam = 0, where it is exact), no V-cycle and no factorization. The solve's
error then scales with the residual r(u), not with the full load, so
GMRES's relative residual 1e-10 is all the accuracy Picard needs (it
converges at n = 512 in 10 steps for theta = 1), and each iteration
evaluates the nonlinear load once. The step theta W^{-1} r is a chord step
(Newton's with the frozen matrix W), damped by the same halving as Newton:
where no damped step lowers the residual the report says so, not diverging.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from . import hamiltonian as hm
from .diagnostics import ConvergenceReport, refinement_study
from .fem import FemError

_MAX_HALVINGS = 10  # damping grid 1, 1/2, ..., 2^-10


@dataclass(frozen=True)
class HjProblem:
    """Discrete problem data. f may be a scalar field (assembled by
    fem.assemble_load) or an already-assembled dual load vector."""

    space: fem.FeSpace
    model: hm.HamiltonianModel
    lam: float
    f: object

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    residual_history: list
    final_u: np.ndarray
    message: str = ""


def load_vector(problem: HjProblem) -> np.ndarray:
    if isinstance(problem.f, np.ndarray):
        b = np.asarray(problem.f, dtype=float)
        if b.shape != (problem.space.n_free,):
            raise ValueError("precomputed load has the wrong length")
    else:
        b = fem.assemble_load(problem.space, problem.f)
    return b


def hamiltonian_load(problem: HjProblem, u: np.ndarray) -> np.ndarray:
    """Dual vector of the nonlinearity: integral of H(Du_h) phi_i, with H
    evaluated once per element on the elementwise-constant gradient."""
    space = problem.space
    vals = hm.eval_many(problem.model, fem.element_gradients(space, u))
    if not np.isfinite(vals).all():
        raise FemError("non-finite Hamiltonian value in the nonlinear load")
    return fem.load_from_values(space, vals)


def hj_residual(problem: HjProblem, u: np.ndarray) -> np.ndarray:
    """r[i] = (Du_h, Dphi_i) + (H(Du_h), phi_i) + lam (u_h, phi_i) - (f, phi_i)."""
    return _residual(problem, np.asarray(u, dtype=float), load_vector(problem))


def _residual(problem: HjProblem, u: np.ndarray, b: np.ndarray) -> np.ndarray:
    space = problem.space
    K = fem.assemble_stiffness(space)
    M = fem.assemble_mass(space)
    return K @ u + problem.lam * (M @ u) + hamiltonian_load(problem, u) - b


def newton_matrix(problem: HjProblem, u: np.ndarray):
    """K + lam M + C(xi) with xi = Clarke selection at Du_h|_T (fem.operator)."""
    space = problem.space
    return fem.operator(space, problem.lam, hm.selection_field(problem.model, space, u))


def _newton_step(J, r: np.ndarray, hierarchy) -> np.ndarray:
    """The Newton step dx of J dx = r, solved by fem.krylov_solve with a
    V-cycle of J on its grid hierarchy of (P, R) pairs (empty: the V-cycle
    is one sparse LU).

    J may carry trailing auxiliary unknowns: a square matrix of size
    N >= len(r) whose leading len(r) unknowns are the iterate's and whose
    trailing rows have zero right side (mfg_solver's lifted nonlocal
    system). The step is then the leading len(r) entries of the solution
    with r padded by zeros; with N == len(r) it is the plain Newton step.
    J and its coarse operators are freed on return, so they do not stay
    alive through the line search and raise the peak memory."""
    b = np.pad(r, (0, J.shape[0] - len(r)))
    return fem.krylov_solve(J, b, fem._VCycle(J, hierarchy))[0][: len(r)]


def damped_iteration(residual, step, norm, x0, tol, max_iter) -> SolveReport:
    """Damped iteration on x; stops when norm(residual(x)) <= tol.

    step(x, r) returns the update dx at the iterate x with residual r: a
    Newton step (_newton_step), a chord step with a frozen matrix (HJ
    Picard) or a fixed-point update (MFG Picard). Damping tries s = 1, 1/2,
    ..., 2^-10 and accepts the first x - s dx that strictly decreases the
    residual norm; if none does, or max_iter steps pass, the report comes
    back converged=False rather than raising. Errors raised by step (a
    singular Jacobian, a failed linear or inner solve) propagate. final_u
    holds the last iterate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    x = x0
    r = residual(x)
    history = [norm(r)]
    iterations = 0
    message = ""
    while history[-1] > tol:
        if iterations >= max_iter:
            message = f"iteration limit {max_iter} reached"
            break
        dx = step(x, r)
        for k in range(_MAX_HALVINGS + 1):
            x_try = x - 0.5**k * dx
            r_try = residual(x_try)
            norm_try = norm(r_try)
            if norm_try < history[-1]:
                x, r = x_try, r_try
                history.append(norm_try)
                iterations += 1
                break
        else:
            message = "damping exhausted without residual decrease"
            break
    return SolveReport(
        converged=not message,
        iterations=iterations,
        residual_history=history,
        final_u=x,
        message=message,
    )


def solve_newton(problem: HjProblem, u0=None, tol=1e-10, max_iter=50) -> SolveReport:
    """Damped semismooth Newton on u (see damped_iteration); stops when the
    dual-norm residual <= tol."""
    space = problem.space
    u = np.zeros(space.n_free) if u0 is None else np.array(u0, dtype=float)
    b = load_vector(problem)
    hierarchy = fem.prolongations(space)
    return damped_iteration(
        lambda v: _residual(problem, v, b),
        lambda v, r: _newton_step(newton_matrix(problem, v), r, hierarchy),
        fem.residual_norm(space), u, tol, max_iter,
    )


def solve_picard(
    problem: HjProblem, u0=None, tol=1e-10, max_iter=200, theta_p=0.5
) -> SolveReport:
    """Relaxed fixed-point iteration on the lagged nonlinearity, in defect
    form u <- u - theta_p W^{-1} r(u) with W = K + lam M (module docstring),
    damped by damped_iteration; stops when the dual-norm residual <= tol."""
    if not 0.0 < theta_p <= 1.0:
        raise ValueError("theta_p must lie in (0, 1]")
    space = problem.space
    u = np.zeros(space.n_free) if u0 is None else np.array(u0, dtype=float)
    b = load_vector(problem)
    W, solve = fem.operator(space, problem.lam), fem.sine_solver(space, problem.lam)
    return damped_iteration(
        lambda v: _residual(problem, v, b),
        lambda v, r: theta_p * fem.krylov_solve(W, r, solve)[0],
        fem.residual_norm(space), u, tol, max_iter,
    )


def convergence_study_hj(
    problem_factory,
    levels,
    u_exact,
    grad_exact,
    solver="newton",
    tol=1e-10,
    max_iter=100,
    theta_p=0.5,
    threads=1,
) -> ConvergenceReport:
    """Solve on a refinement family and fit H1/L2 error rates;
    problem_factory(n) must return the HjProblem for mesh parameter n. The
    levels run as one nested-iteration chain (diagnostics.refinement_study):
    a level that doubles the previous one starts from its prolongated
    solution, any other level from zero. threads has no effect."""
    if solver not in ("newton", "picard"):
        raise ValueError(f"unknown solver {solver!r}")

    def solve_level(n, start):
        problem = problem_factory(n)
        (u0,) = start(problem.space) or (None,)
        if solver == "newton":
            rep = solve_newton(problem, u0, tol=tol, max_iter=max_iter)
        else:
            rep = solve_picard(problem, u0, tol=tol, max_iter=max_iter, theta_p=theta_p)
        return problem, rep, (rep.final_u,)

    def level_errors(problem, rep):
        kinds = ("L2", "H1")
        errs = fem.error_vs_exact(problem.space, rep.final_u, u_exact, grad_exact, kinds)
        return dict(zip(kinds, errs))

    return refinement_study(solve_level, level_errors, levels, {"solver": solver, "tol": tol})
