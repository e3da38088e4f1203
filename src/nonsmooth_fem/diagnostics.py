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


# up to this size the dense path beats ARPACK: sending stability-kinked's
# 450-unknown level to the sparse path cost +0.45-0.5 s (+16-18% of solve_s)
_DENSE_CUTOFF = 800
_EIG_TOL = 1e-10
_WARM_MIX = 1e-2


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


def preconditioned_constant(J, G, start=None) -> float:
    """Banach constant of G^{-1} J in the G-weighted geometry.

    The assembled Jacobian maps state perturbations to dual residuals;
    composing with the Riesz inverse G^{-1} turns it into an operator on the
    state space itself, whose smallest weighted singular value is the
    mesh-comparable stability constant (it equals 1 for J = G). Computed as
    the smallest eigenvalue of J^T G^{-1} J x = s^2 G x: below the cutoff
    densely, as the smallest singular value of L^{-1} J L^{-T} with one
    Cholesky factor G = L L^T, otherwise by one shift-invert Lanczos solve
    (ARPACK) whose operator (J^T G^{-1} J)^{-1} = J^{-1} G J^{-T} needs one
    LU of J and no factorization of G. Returns 0.0 for singular J; raises
    fem.NonconvergenceError, with the operator size and ARPACK's message,
    if the Lanczos solve does not converge.

    J follows the contract of hj_solver._newton_step: square of size
    N >= n = G's size, with its trailing N - n unknowns auxiliary (the
    lifted nonlocal Jacobian of mfg_solver.mfg_jacobian). The operator
    measured is then the reduced J_red = J11 - J12 J22^{-1} J21, the Schur
    complement of the auxiliary block. The dense path forms J_red; the
    sparse path factors J once and applies J_red^{-1} and J_red^{-T} as
    solves with J and J^T on right sides padded by zeros, truncated to the
    leading n unknowns: the leading block of J^{-1} is J_red^{-1}.

    The Lanczos solve stops at ARPACK's relative tolerance _EIG_TOL = 1e-10:
    the smallest value sits at the bottom of a cluster at 1, where tol=0
    costs thousands of LU solves a level, and the kinked manufactured state
    at n = 24 has its two lowest modes 6.2e-9 apart, which tol=1e-8 does
    not separate.

    start (sparse path only) warm-starts the solve of a nearby operator:
    the solve starts from start plus a _WARM_MIX = 1e-2 share of the
    seeded vector (both G-normalized) and overwrites start with the
    converged eigenvector. The seeded share keeps every mode in the Krylov
    space, so the solve can still reach a smallest mode that is not the one
    start holds. Without start the solve starts from the seeded vector
    alone; the uniform vector is invariant under every symmetry of the mesh
    and of the state, so Lanczos would see only the symmetric modes and
    could miss the smallest. The LU of J uses the MMD_AT_PLUS_A ordering,
    which fills less than COLAMD on the kinked states.
    """
    N, n = J.shape[0], G.shape[0]
    if J.shape != (N, N) or G.shape != (n, n) or N < n:
        raise ValueError("preconditioned constant needs square J of size >= G's")
    if n <= _DENSE_CUTOFF:
        Jd = _dense(J)
        if N > n:
            Jd = Jd[:n, :n] - Jd[:n, n:] @ scipy.linalg.solve(Jd[n:, n:], Jd[n:, :n])
        # with G = L L^T, G^{-1} J whitened by L on both sides is L^{-1} J L^{-T}
        L = scipy.linalg.cholesky(_dense(G), lower=True)
        JLt = scipy.linalg.solve_triangular(L, Jd.T, lower=True).T
        return banach_constant(scipy.linalg.solve_triangular(L, JLt, lower=True))
    Jc = sp.csc_matrix(J)
    Gc = sp.csc_matrix(G)
    try:
        lu_j = spla.splu(Jc, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError:
        return 0.0

    padded = np.zeros(N)  # the auxiliary rows stay zero

    def solve(x, trans):  # J_red^{-1} x or J_red^{-T} x
        padded[:n] = x
        return lu_j.solve(padded, trans=trans)[:n]

    def ata_inv(x):
        return solve(Gc @ solve(x, "T"), "N")

    def g_unit(v):
        return v / np.sqrt(v @ (Gc @ v))

    opinv = spla.LinearOperator((n, n), matvec=ata_inv)
    v0 = _start_vector(n)
    if start is not None:
        v0 = g_unit(start) + _WARM_MIX * g_unit(v0)
    # in shift-invert mode ARPACK reads only the shape and dtype of its
    # first argument and never applies it
    try:
        vals, vecs = spla.eigsh(
            opinv, k=1, M=Gc, sigma=0.0, which="LM", OPinv=opinv, v0=v0, tol=_EIG_TOL,
        )
    except spla.ArpackNoConvergence as exc:
        raise fem.NonconvergenceError(f"ARPACK on an operator of size {n}: {exc}") from exc
    if start is not None:
        start[:] = vecs[:, 0]
    return float(np.sqrt(max(vals[0], 0.0)))


def stability_scan(cases, n_selection_samples: int = 10) -> StabilityScanReport:
    """preconditioned_constant of the coupled linearization per mesh level,
    at each kink selection that _selection_samples draws.

    cases is a non-empty sequence of (MfgProblem, converged MfgState) pairs,
    one per level. Returns the per-level values, their minima and max/min
    spread (inf when a level is singular, constant 0.0); meta holds the
    sample count and the per-level kink element counts. Raises ValueError
    for no case (checked first) or fewer than one sample, and
    fem.NonconvergenceError naming the level (h, dofs) and the selection
    sample when an eigensolve does not converge.

    Each sparse-path solve starts from the previous eigenvector, across
    levels with its u and m blocks interpolated onto the new free dofs by
    fem.evaluate; a level after a dense-path one starts from the seeded
    vector.
    """
    from . import mfg_solver

    cases = list(cases)
    if not cases:
        raise ValueError("stability_scan needs at least one (problem, state) case, got none")
    if n_selection_samples < 1:
        raise ValueError("need at least one selection sample")
    hs = []
    smin = []
    kinks = []
    previous = None  # (space, eigenvector) of the last sparse-path level
    for problem, state in cases:
        space = problem.space
        G = state_space_grams(space)
        samples, n_kink = _selection_samples(problem, state, n_selection_samples)
        if previous is None:
            start = _start_vector(G.shape[0])
        else:
            prev_space, prev_start = previous
            pts = space.mesh.vertices[space.free_dofs]
            start = np.concatenate([
                fem.evaluate(prev_space, block, pts)
                for block in np.split(prev_start, 2)
            ])
        vals = []
        seen = {}
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
        previous = (space, start) if G.shape[0] > _DENSE_CUTOFF else None
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
