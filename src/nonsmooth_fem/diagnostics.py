"""Stability diagnostics: smallest singular values, perturbation slack,
selection-sampling scans of the coupled linearization, and rate fits.

The scan measures in one geometry, H1 x L2 on the stacked (u, m) free
dofs with Gram matrix G = blockdiag(K + M, M): the stability constant of a
linearization J is the smallest singular value of G^{-1} J there, equal to
1/||J^{-1}|| for isomorphisms. A uniform-in-h lower bound on it is the
checkable shadow of the metric regularity behind the error estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from . import hamiltonian as hm


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log(err) against log(h)."""

    slope: float
    r_squared: float
    intercept: float


def fit_rate(hs, errs) -> RateFit:
    hs = np.asarray(hs, dtype=float)
    errs = np.asarray(errs, dtype=float)
    if hs.shape != errs.shape or hs.ndim != 1 or len(hs) < 3:
        raise ValueError("rate fit needs at least 3 (h, err) pairs")
    if (hs <= 0).any() or (errs <= 0).any():
        raise ValueError("rate fit requires positive mesh sizes and errors")
    x = np.log(hs)
    y = np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-28 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), r_squared=float(r2), intercept=float(intercept))


@dataclass
class ConvergenceReport:
    """Refinement-study record: one row per mesh level, coarse to fine."""

    levels: list
    hs: list
    dofs: list
    errors: dict  # norm label -> list of errors, aligned with levels
    rates: dict  # norm label -> RateFit (only when >= 3 levels)
    meta: dict = field(default_factory=dict)


def _nested_start(space, coarse):
    """The finished level's solution vectors prolongated onto space, or None.

    coarse is (that level's n, 0 before the first level, its vectors).
    They are prolongated when space.mesh.n is twice that n and that level
    is the first coarsening in space's hierarchy (fem.prolongations), whose
    cached P is exact P1 interpolation; after no level, a non-doubling
    level, on odd n or at n <= 8 the start is None."""
    n_coarse, vectors = coarse
    hierarchy = fem.prolongations(space) if space.mesh.n == 2 * n_coarse else ()
    if not hierarchy:
        return None
    return tuple(hierarchy[0][0] @ x for x in vectors)


def refinement_study(solve_level, level_errors, levels, meta) -> ConvergenceReport:
    """Refinement study by nested iteration: solve_level(n, start) ->
    (problem, report, solution) per mesh parameter n, level_errors(problem,
    report) -> {norm label: error}.

    solution is the tuple of the level's free-dof solution vectors, and
    start(space) the previous level's solution prolongated onto space
    (_nested_start), or None for a start from zero. The levels run coarse
    to fine as one chain: u_H and u_h differ by O(H), so the prolongated
    coarse solution starts Newton inside its fine-level basin. Only the
    grid size and the solution vectors pass between levels, so a level's
    space and caches are freed before the next solve. A level that fails
    to converge aborts the study. Rates are fitted from 3 levels on; meta
    gains the per-level iteration counts.
    """
    levels = [int(n) for n in levels]
    if levels != sorted(levels) or len(set(levels)) != len(levels):
        raise ValueError("levels must be strictly increasing")

    def run_level(n, coarse):
        problem, rep, solution = solve_level(n, lambda space: _nested_start(space, coarse))
        if not rep.converged:
            raise fem.NonconvergenceError(
                f"level n={n} did not converge: {rep.message} "
                f"(residual {rep.residual_history[-1]:.3e})"
            )
        row = {
            "n": n,
            "h": problem.space.mesh.mesh_size_h,
            "dofs": problem.space.n_free,
            "errors": level_errors(problem, rep),
            "iterations": rep.iterations,
        }
        return row, (n, solution)

    rows, coarse = [], (0, ())
    for n in levels:
        row, coarse = run_level(n, coarse)
        rows.append(row)
    rows.sort(key=lambda row: -row["h"])
    hs = [row["h"] for row in rows]
    errors = {k: [row["errors"][k] for row in rows] for k in rows[0]["errors"]}
    rates = {}
    if len(rows) >= 3:
        rates = {k: fit_rate(hs, errors[k]) for k in errors}
    return ConvergenceReport(
        levels=[row["n"] for row in rows],
        hs=hs,
        dofs=[row["dofs"] for row in rows],
        errors=errors,
        rates=rates,
        meta={**meta, "iterations": [row["iterations"] for row in rows]},
    )


@dataclass
class StabilityScanReport:
    """Stability constants of the coupled linearization, per mesh level and
    per sampled kink-selection."""

    hs: list
    smin: list  # list (per level) of lists (per selection sample)
    min_per_level: list
    ratio_max_min: float
    meta: dict = field(default_factory=dict)


def _dense(A) -> np.ndarray:
    if sp.issparse(A):
        return A.toarray()
    return np.asarray(A, dtype=float)


_EIG_TOL = 1e-10  # separates two modes 6.2e-9 apart (kinked state, n = 24)
_WARM_MIX = 1e-2
_KRYLOV_MAX = 64  # rows of the Lanczos basis; a restart keeps a quarter
_EIG_BUDGET = 5000  # operator applications per eigensolve


def _start_vector(n: int) -> np.ndarray:
    """Fixed-seed Gaussian start vector for Lanczos: generic, so it has a
    component along every eigenvector, whatever the symmetry of the problem."""
    return np.random.default_rng(0).standard_normal(n)


def banach_constant(A) -> float:
    """Smallest singular value of the dense matrix A, accurate to roundoff.
    Large sparse Jacobians go through preconditioned_constant instead."""
    return float(scipy.linalg.svdvals(_dense(A))[-1])


def operator_norm(S) -> float:
    """Largest singular value of the dense matrix S."""
    return float(scipy.linalg.svdvals(_dense(S))[0])


def perturbation_check(T, S):
    """Verify the stability of the Banach constant under perturbation:
    constant(T + S) >= constant(T) - ||S||, within 1e-12 slack.

    Returns (holds, slack) with slack = constant(T+S) - constant(T) + ||S||.
    """
    c1 = banach_constant(T)
    c2 = banach_constant(_dense(T) + _dense(S))
    norm_s = operator_norm(S)
    slack = c2 - (c1 - norm_s)
    return bool(slack >= -1e-12), float(slack)


# -------------------------------------------------------------- stability scan


def _selection_samples(problem, state, n_samples: int):
    """Per-element Jacobian selections probing the kink set.

    Elements whose gradient magnitude sits within 10% of the model's kink
    radius get their selection replaced by convex combinations of the two
    branch endpoints (evaluated through the model's own selection map just
    inside and just outside the kink sphere); all other elements keep the
    deterministic selection. Models without a kink radius yield identical
    samples.
    """
    Du = fem.element_gradients(problem.space, state.u)
    xi_base = hm.hp_selection_many(problem.model, Du)
    thetas = np.linspace(0.0, 1.0, n_samples)
    delta = problem.model.params.get("delta")
    if delta is None:
        return [xi_base] * n_samples, 0
    radius = np.hypot(Du[:, 0], Du[:, 1])
    kink = np.where(np.abs(radius - delta) <= 0.1 * delta)[0]
    if len(kink) == 0:
        return [xi_base] * n_samples, 0
    zhat = Du[kink] / radius[kink][:, None]
    xi_in = hm.hp_selection_many(problem.model, zhat * (delta * (1.0 - 1e-9)))
    xi_out = hm.hp_selection_many(problem.model, zhat * (delta * (1.0 + 1e-9)))
    samples = []
    for theta in thetas:
        xi = xi_base.copy()
        xi[kink] = (1.0 - theta) * xi_in + theta * xi_out
        samples.append(xi)
    return samples, int(len(kink))


def state_space_grams(space):
    """G = blockdiag(K + M, M) as a CSC matrix: the Gram matrix of H1 x L2 on
    the stacked (u, m) free dofs, symmetric positive definite by
    construction."""
    return sp.block_diag([fem.operator(space, 1.0), fem.assemble_mass(space)]).tocsc()


def _lanczos_top(apply, G, v0):
    """(theta, x): the largest eigenvalue of OP = apply(G .), self-adjoint
    in the G inner product, and its G-unit eigenvector, from the G-unit v0.

    Thick-restart Lanczos (Wu & Simon 2000) with DGKS reorthogonalization
    in the G inner product, G (symmetric CSC) applied as its CSR view G.T.
    A full basis of min(_KRYLOV_MAX, n) rows restarts from its top quarter
    of Ritz vectors and the residual. Rayleigh-Ritz, every 8 steps and at
    each restart, stops the solve on beta |y_last| <= _EIG_TOL theta, or
    exactly once the Krylov space is exhausted. Raises
    fem.NonconvergenceError past _EIG_BUDGET applications of OP.
    """
    Gr = G.T
    n = len(v0)
    m = min(_KRYLOV_MAX, n)
    Q = np.empty((m + 1, n))  # the basis rows
    H = np.zeros((m + 1, m))  # Q G OP Q^T: upper triangle and the residual row
    Q[0], Gq = v0, Gr @ v0
    k = applications = 0
    while True:
        w = apply(Gq)
        applications += 1
        Gw = Gr @ w
        norm_in = np.sqrt(w @ Gw)
        h = np.zeros(k + 1)
        for _ in range(2):  # DGKS: a second pass if the norm fell below 1/sqrt(2)
            dh = Q[: k + 1] @ Gw
            w -= dh @ Q[: k + 1]
            h += dh
            Gw = Gr @ w
            beta = np.sqrt(max(w @ Gw, 0.0))
            if beta >= 0.7071 * norm_in:
                break
        H[: k + 1, k], H[k + 1, k] = h, beta
        k += 1
        if k % 8 == 0 or k == m or beta <= _EIG_TOL * norm_in:
            theta, Y = np.linalg.eigh(H[:k, :k], UPLO="U")
            resid = abs(H[k, :k] @ Y[:, -1])
            if resid <= _EIG_TOL * theta[-1] or k == n:
                return theta[-1], Y[:, -1] @ Q[:k]
            if applications >= _EIG_BUDGET:
                raise fem.NonconvergenceError(
                    f"Lanczos on an operator of size {n}: No convergence after "
                    f"{applications} applications (residual estimate "
                    f"{resid / theta[-1]:.3e}, tolerance {_EIG_TOL:g})"
                )
        Q[k], Gq = w / beta, Gw / beta
        if k == m:  # thick restart
            r = m // 4
            keep = Y[:, -r:]
            coupling = H[k, :k] @ keep
            Q[:r], Q[r] = keep.T @ Q[:k], Q[k]
            H[:] = 0.0
            H[:r, :r], H[r, :r] = np.diag(theta[-r:]), coupling
            k = r


def preconditioned_constant(J, G, start=None) -> float:
    """Smallest singular value of G^{-1} J_red in the G geometry (1 for J = G).

    J is square of size N >= n = G's size, its trailing N - n unknowns
    auxiliary (the lifted nonlocal Jacobian), and J_red is the Schur
    complement onto the leading n. The value is theta^{-1/2} for the top
    eigenvalue theta of J_red^{-1} G J_red^{-T} G (_lanczos_top), applied
    by zero-padded solves with one LU of J; 0.0 for a singular J. start, if
    given, warm-starts the solve together with a _WARM_MIX share of the
    seeded vector, which keeps every mode in reach, and is overwritten with
    the eigenvector. Raises ValueError for mismatched shapes and
    fem.NonconvergenceError from _lanczos_top.
    """
    N, n = J.shape[0], G.shape[0]
    if J.shape != (N, N) or G.shape != (n, n) or N < n:
        raise ValueError("preconditioned constant needs square J of size >= G's")
    try:
        lu_j = spla.splu(sp.csc_matrix(J), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return 0.0
    Gr = G.T
    padded = np.zeros(N)  # the auxiliary rows stay zero

    def solve(x, trans):  # J_red^{-1} x or J_red^{-T} x
        padded[:n] = x
        return lu_j.solve(padded, trans=trans)[:n]

    def g_unit(v):
        return v / np.sqrt(v @ (Gr @ v))

    v0 = g_unit(_start_vector(n))
    if start is not None:
        v0 = g_unit(g_unit(start) + _WARM_MIX * v0)
    theta, x = _lanczos_top(lambda y: solve(Gr @ solve(y, "T"), "N"), G, v0)
    if start is not None:
        start[:] = x
    return float(1.0 / np.sqrt(theta))


def stability_scan(cases, n_selection_samples: int = 10) -> StabilityScanReport:
    """preconditioned_constant of the coupled linearization per mesh level,
    at each kink selection that _selection_samples draws.

    cases is a non-empty sequence of (MfgProblem, converged MfgState) pairs,
    one per level. Returns the per-level values, their minima and max/min
    spread (inf when a level is singular, constant 0.0); meta holds the
    sample count and the per-level kink element counts. Raises ValueError
    for no case (checked first) or fewer than one sample, and
    fem.NonconvergenceError naming the level (h, dofs) and the selection
    sample when an eigensolve does not converge. Each solve starts from the
    previous eigenvector, across levels with its u and m blocks
    interpolated onto the new free dofs by fem.evaluate.
    """
    from . import mfg_solver

    cases = list(cases)
    if not cases:
        raise ValueError("stability_scan needs at least one (problem, state) case, got none")
    if n_selection_samples < 1:
        raise ValueError("need at least one selection sample")
    hs, smin, kinks = [], [], []
    start = prev_space = None  # the last eigenvector and its level's space
    for problem, state in cases:
        space = problem.space
        G = state_space_grams(space)
        samples, n_kink = _selection_samples(problem, state, n_selection_samples)
        if start is None:
            start = _start_vector(G.shape[0])
        else:
            pts = space.mesh.vertices[space.free_dofs]
            start = np.concatenate([
                fem.evaluate(prev_space, block, pts) for block in np.split(start, 2)
            ])
        vals, seen = [], {}
        for idx, xi in enumerate(samples):
            key = xi.tobytes()
            if key not in seen:
                J = mfg_solver.mfg_jacobian(problem, state, xi=xi)
                try:
                    seen[key] = preconditioned_constant(J, G, start)
                except fem.NonconvergenceError as exc:
                    raise fem.NonconvergenceError(
                        f"stability scan at h={space.mesh.mesh_size_h:.6g} "
                        f"({G.shape[0]} dofs), selection sample {idx}: {exc}"
                    ) from exc
            vals.append(seen[key])
        hs.append(space.mesh.mesh_size_h)
        smin.append(vals)
        kinks.append(n_kink)
        prev_space = space
    min_per_level = [min(vals) for vals in smin]
    # a singular level (constant 0.0) makes the spread infinite
    lo = min(min_per_level)
    ratio = max(min_per_level) / lo if lo > 0 else float("inf")
    return StabilityScanReport(
        hs=hs,
        smin=smin,
        min_per_level=min_per_level,
        ratio_max_min=float(ratio),
        meta={"n_selection_samples": n_selection_samples, "kink_elements": kinks},
    )
