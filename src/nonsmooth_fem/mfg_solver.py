"""Coupled value/density system: block semismooth Newton and damped Picard.

The discrete stationary system couples a viscous HJ equation for the value
u with a linear transport-diffusion equation for the density m:

    (Du, Dphi) + (H(Du), phi) + lam (u, phi) = (F[m] + g_hjb, phi)
    (Dm, Dpsi) + (m H_p(Du), Dpsi) + lam (m, psi) = lam (m0, psi) + (g_fp, psi)

H and H_p depend on the gradient only and are evaluated once per element.
The coupling depends on the density only: F[m] = f(m) (local) or f(S m)
(nonlocal), with S a discrete mollifier; f is evaluated in one call on
the density values at all quadrature points.

The value equation linearizes to A(u) = K + lam M + B (fem.operator), with
B[i][j] = (H_p(Du).Dphi_j, phi_i) the drift of H_p (the model's selection),
and the density operator is A(u)^T, as in Achdou & Capuzzo-Dolcetta (SIAM
J. Numer. Anal. 48, 2010); residual, Jacobian and Picard alike take A(u)
from _value_linearization, passing it the element gradients Du that each
computes once per iterate.

Block Newton linearizes both equations at once. With Q the f'-weighted
mass (composed with S E on the trial side for a nonlocal coupling, E the
free-to-vertex injection), and G the advection-sensitivity
G[i][j] = (m (xi Dphi_j), Dpsi_i) built from one generalized-Jacobian
selection xi of H_p per element, the reduced linearization is

    J = [ A(u)     -Q  ]
        [ G     A(u)^T ]

For a local coupling mfg_jacobian returns J itself. For a nonlocal coupling
S E is dense, so mfg_jacobian returns instead the sparse lifted system in
(du, dm, w_1, ..., w_k), k = _SMOOTHING_STEPS, L = M_lump + h^2 K the
smoother's matrix and Q_fv the sparse free-by-vertex weighted mass:

    A(u) du - Q_fv w_k      = r_u
    G du + A(u)^T dm        = r_m
    L w_1 - M_lump E dm     = 0
    L w_{j+1} - M_lump w_j  = 0

Eliminating the w's gives w_k = S E dm and hence J: J is the Schur
complement of the w block, so the leading block of the lifted inverse is
J^{-1}, with O(n_v) storage instead of O(n_v^2). The Newton step
(hj_solver._newton_step) and the stability scan
(diagnostics.preconditioned_constant) both take the w's as trailing
auxiliary unknowns.

Both solvers run hj_solver.damped_iteration, the iteration loop shared
with the value equation, on the stacked vector (u, m) with the stacked
dual norm; they differ only in the step. Block Newton's steps are
V-cycle-preconditioned GMRES solves with block-diagonal prolongations, one
block per field. Picard's step alternates a full HJ Newton solve for u at
frozen m with one linear transport solve for m at frozen u, relaxing only
m. Newton is fast near a solution; Picard is the derivative-free
cross-check. The transport solve runs in the defect form
m <- m - theta T^{-1}(T m - rhs), T = A(u)^T, by the Newton steps'
V-cycle-preconditioned GMRES (fem.krylov_solve), so Picard factors no
matrix above the coarsest grid either.

The density right side uses lam * m0 so the source scales consistently as
lam varies. m0 must be nonnegative and nonzero for data-driven runs; runs
with explicit compensating sources (manufactured studies) may carry signed
data, which changes nothing in the linear algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fem
from . import hamiltonian as hm
from . import hj_solver
from .diagnostics import ConvergenceReport, refinement_study
from .fem import FemError, NonconvergenceError


# applications of the mollifier's one-step map in every nonlocal coupling
_SMOOTHING_STEPS = 2


@dataclass(frozen=True)
class CouplingModel:
    """Density coupling F[m] = f(m) (local) or f(S m) with S a discrete
    mollifier (nonlocal). f and df = f' act elementwise on density arrays of
    any shape."""

    kind: str  # "local" | "nonlocal"
    name: str
    f: object
    df: object

    def __post_init__(self):
        if self.kind not in ("local", "nonlocal"):
            raise ValueError(f"unknown coupling kind {self.kind!r}")


def local_linear(c: float = 1.0) -> CouplingModel:
    c = float(c)
    return CouplingModel(
        kind="local",
        name=f"linear:{c:g}",
        f=lambda m: c * m,
        df=lambda m: np.full(np.shape(m), c),
    )


def local_arctan() -> CouplingModel:
    return CouplingModel(
        kind="local",
        name="arctan",
        f=np.arctan,
        df=lambda m: 1.0 / (1.0 + m**2),
    )


def zero_coupling() -> CouplingModel:
    return replace(local_linear(0.0), name="zero")


def nonlocal_linear(c: float = 1.0) -> CouplingModel:
    return replace(local_linear(c), kind="nonlocal", name=f"nonlocal-linear:{float(c):g}")


def coupling_from_spec(text: str) -> CouplingModel:
    """Parse a coupling string: 'zero', 'local:arctan', 'local:linear[:C]' or
    'nonlocal:linear[:C]', C a finite number (default 1; negative allowed).
    Anything else raises ValueError naming the spec."""
    if text == "zero":
        return zero_coupling()
    if text == "local:arctan":
        return local_arctan()
    parts = text.split(":")
    if parts[0] in ("local", "nonlocal") and parts[1:2] == ["linear"] and len(parts) <= 3:
        try:
            c = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            c = np.nan
        if np.isfinite(c):
            return (local_linear if parts[0] == "local" else nonlocal_linear)(c)
    raise ValueError(
        f"unknown coupling {text!r}: expected zero, local:arctan, or "
        "local:linear[:C] or nonlocal:linear[:C] with C a finite number"
    )


def check_model_and_lambda(model: hm.HamiltonianModel, lam: float) -> None:
    """The checks of MfgProblem that need no space, which the CLI makes
    before it builds a mesh: lam > 0, and a model with hp_jacobian."""
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if model.hp_jacobian is None:
        raise ValueError(
            f"model {model.name!r} lacks the gradient data the density equation needs"
        )


@dataclass(frozen=True)
class MfgProblem:
    space: fem.FeSpace
    model: hm.HamiltonianModel
    coupling: CouplingModel
    lam: float
    m0: np.ndarray  # coefficient vector
    g_hjb: object = None  # optional extra source fields (manufactured runs)
    g_fp: object = None

    def __post_init__(self):
        check_model_and_lambda(self.model, self.lam)
        m0 = np.asarray(self.m0, dtype=float)
        if m0.shape != (self.space.n_free,):
            raise ValueError("m0 length must equal the number of free dofs")
        if self.g_hjb is None and self.g_fp is None:
            if (m0 < 0).any():
                raise ValueError("m0 must be nonnegative at the nodes")
            if not m0.any():
                raise ValueError("m0 must not vanish identically")


def make_mfg_problem(space, model, coupling, lam, m0, g_hjb=None, g_fp=None) -> MfgProblem:
    """m0 may be a scalar field or a coefficient vector."""
    if callable(m0):
        m0 = fem.interpolate_nodal(space, m0)
    return MfgProblem(
        space=space,
        model=model,
        coupling=coupling,
        lam=lam,
        m0=np.asarray(m0, dtype=float),
        g_hjb=g_hjb,
        g_fp=g_fp,
    )


@dataclass(frozen=True)
class MfgState:
    u: np.ndarray
    m: np.ndarray


@dataclass(frozen=True)
class MfgSolveReport:
    converged: bool
    iterations: int
    residual_history: list
    final_state: MfgState
    message: str = ""


def state_distance(space, s1: MfgState, s2: MfgState) -> float:
    """H1 distance in u combined with L2 distance in m."""
    du = fem.norm(space, s1.u - s2.u, "H1")
    dm = fem.norm(space, s1.m - s2.m, "L2")
    return float(np.hypot(du, dm))


# ---------------------------------------------------------- nonlocal smoothing


class _Smoother:
    """Discrete mollifier S: _SMOOTHING_STEPS applications of
    L^{-1} M_lump on all-vertex nodal values, L = M_lump + sigma K with
    sigma = h^2. Symmetric in the lumped inner product and bounded on L2.

    L (sparse, CSC) and M_lump (the lumped-mass diagonal) are the blocks of
    the lifted Jacobian's rows. K and the mass lumped into M_lump are the
    space's all-vertex matrices (fem.full_stiffness, fem.full_mass)."""

    def __init__(self, space):
        K = fem.full_stiffness(space)
        self.M_lump = np.asarray(fem.full_mass(space).sum(axis=1)).ravel()
        sigma = space.mesh.mesh_size_h**2
        self.L = (sp.diags(self.M_lump) + sigma * K).tocsc()
        self._lu = spla.splu(self.L, permc_spec="MMD_AT_PLUS_A")

    def apply(self, nodal: np.ndarray) -> np.ndarray:
        out = np.asarray(nodal, dtype=float)
        scale = self.M_lump if out.ndim == 1 else self.M_lump[:, None]
        for _ in range(_SMOOTHING_STEPS):
            out = self._lu.solve(scale * out)
        return out


def _smoother(problem: MfgProblem) -> _Smoother:
    cache = problem.space._cache
    if "smoother" not in cache:
        cache["smoother"] = _Smoother(problem.space)
    return cache["smoother"]


def _coupling_at_quad(problem: MfgProblem, m: np.ndarray, fn) -> np.ndarray:
    """fn(m~) at the rule's points, (nq, nt), with m~ the density the
    coupling sees: m itself (local) or the mollified density (nonlocal)."""
    nodal = fem.extend_to_vertices(problem.space, m)
    if problem.coupling.kind == "nonlocal":
        nodal = _smoother(problem).apply(nodal)
    return fn(fem.rule_values(problem.space, nodal))


# ------------------------------------------------------------------ residual


def _source_loads(problem) -> tuple:
    """Dual loads (b_hjb, b_fp) of the optional extra sources, zero if absent."""
    space = problem.space
    return tuple(
        np.zeros(space.n_free) if g is None else fem.assemble_load(space, g)
        for g in (problem.g_hjb, problem.g_fp)
    )


def mfg_residual(problem: MfgProblem, state: MfgState) -> np.ndarray:
    """Stacked dual residual (r_u, r_m), each of length n_free."""
    return _residual(problem, state, *_source_loads(problem))


def _value_linearization(problem, Du) -> sp.csr_matrix:
    """A(u) = K + lam M + B, B the drift of H_p(Du), from the element
    gradients Du of u, (nt, 2): the value block of the Jacobian, whose
    transpose is the density operator."""
    return fem.operator(problem.space, problem.lam, hm.hp_many(problem.model, Du))


def _residual(problem, state, b_hjb, b_fp) -> np.ndarray:
    space = problem.space
    K = fem.assemble_stiffness(space)
    M = fem.assemble_mass(space)
    u, m = np.asarray(state.u, dtype=float), np.asarray(state.m, dtype=float)
    lam = problem.lam

    # value equation: nonlinearity per element, coupling at quadrature points
    Du = fem.element_gradients(space, u)
    h_vals = hm.eval_many(problem.model, Du)
    f_vals = _coupling_at_quad(problem, m, problem.coupling.f)
    if not (np.isfinite(h_vals).all() and np.isfinite(f_vals).all()):
        raise FemError("non-finite value in the coupled residual")
    r_u = K @ u + lam * (M @ u) + fem.load_from_values(space, h_vals)
    r_u = r_u - fem.load_from_values(space, f_vals) - b_hjb
    # density equation: the transpose of the value linearization
    r_m = _value_linearization(problem, Du).T @ m - lam * (M @ problem.m0) - b_fp
    return np.concatenate([r_u, r_m])


# ------------------------------------------------------------------ jacobian


def advection_sensitivity(problem: MfgProblem, state: MfgState, xi: np.ndarray) -> sp.csr_matrix:
    """G[i][j] = (m (xi Dphi_j), Dpsi_i) with xi one generalized-Jacobian
    selection of H_p per element, (nt, 2, 2) (hm.hp_selection_many); the
    element integral of the P1 density is exact via its nodal mean."""
    space = problem.space
    # planes (half, ..., cell), so every product runs along the cells
    mbar = fem._grid_corners(space, fem.extend_to_vertices(space, state.m)).mean(axis=1)
    gx, gy = space.grads[:, :, 0, None], space.grads[:, :, 1, None]  # (half, j, 1)
    xi = xi.reshape(-1, 2, 2, 2).T  # (e, d, half, cell)
    # the two components of xi Dphi_j, (half, j, cell) each
    ax, ay = (xi[0, d][:, None] * gx + xi[1, d][:, None] * gy for d in (0, 1))
    local = gx[:, :, None] * ax[:, None]  # (xi Dphi_j) . Dpsi_i: (half, i, j, cell)
    local += gy[:, :, None] * ay[:, None]
    del ax, ay  # 48 bytes per element, not held through the stencil sum
    local *= (space.area * mbar).reshape(2, 1, 1, -1)
    n = space.mesh.n  # read as (cell row, cell column, half, i, j)
    return fem.assemble_from_local(space, local.reshape(2, 3, 3, n, n).transpose(3, 4, 0, 1, 2), space.elem_dofs)


def coupling_weighted_mass(problem: MfgProblem, m: np.ndarray) -> sp.csr_matrix:
    """The sparse df-weighted mass Q[i][j] = (df(m~) phi_j, phi_i), with m~
    the density the coupling sees (m, or S m for a nonlocal coupling).

    Local: the (n_free, n_free) matrix, the coupling block itself. Nonlocal:
    Q_fv, the free rows of the all-vertex matrix, (n_free, n_v); the
    coupling block is Q_fv S E, which the lifted Jacobian keeps factored as
    Q_fv w_k."""
    space = problem.space
    local = fem.weighted_local_mass(space, _coupling_at_quad(problem, m, problem.coupling.df))
    if problem.coupling.kind == "local":
        return fem.assemble_from_local(space, local, space.elem_dofs)
    return fem.assemble_from_local(space, local, space.mesh.triangles)[space.free_dofs]


def mfg_jacobian(problem: MfgProblem, state: MfgState, xi=None) -> sp.csr_matrix:
    """The matrix of each Newton step at the given state (module docstring):
    the reduced J for a local coupling; for a nonlocal coupling the lifted
    system in (du, dm, w_1, ..., w_k), k = _SMOOTHING_STEPS, square of size
    2 n_free + k n_v with the w's as trailing auxiliary unknowns. xi
    optionally overrides the per-element Jacobian selection in G."""
    space = problem.space
    Du = fem.element_gradients(space, state.u)
    if xi is None:
        xi = hm.hp_selection_many(problem.model, Du)
    A = _value_linearization(problem, Du)
    minus_Q = -coupling_weighted_mass(problem, state.m)
    G = advection_sensitivity(problem, state, xi)
    At = A.T.tocsr()  # the pattern is symmetric, so A^T lies on it too
    if problem.coupling.kind == "local":
        return sp.bmat([[A, minus_Q], [G, At]], format="csr")
    smoother = _smoother(problem)
    minus_Ml = sp.diags(-smoother.M_lump, format="csr")
    k = _SMOOTHING_STEPS
    rows = [[A] + [None] * k + [minus_Q], [G, At] + [None] * k]
    for j in range(k):
        # L w_{j+1} - M_lump w_j = 0, with w_0 = E dm
        row = [None] * (k + 2)
        row[1 + j] = minus_Ml[:, space.free_dofs] if j == 0 else minus_Ml
        row[2 + j] = smoother.L
        rows.append(row)
    return sp.bmat(rows, format="csr")


# -------------------------------------------------------------------- solvers


def _split(x) -> MfgState:
    """The state of a stacked vector (u, m); u and m are views of x."""
    return MfgState(*np.split(x, 2))


def _damped_iteration(problem, state0, loads, step, tol, max_iter) -> MfgSolveReport:
    """hj_solver.damped_iteration on the stacked vector (u, m), from state0
    or (0, m0), with the stacked residual (loads = _source_loads(problem))
    and the stacked dual norm, the hypot of the block norms by one call of
    fem.residual_norm on the columns r_u, r_m; the final iterate is split."""
    if state0 is None:
        x0 = np.concatenate([np.zeros(problem.space.n_free), problem.m0])
    else:
        x0 = np.concatenate([state0.u, state0.m], dtype=float)
    rn = fem.residual_norm(problem.space)
    rep = hj_solver.damped_iteration(
        lambda x: _residual(problem, _split(x), *loads), step,
        lambda r: rn(r.reshape(2, -1).T), x0, tol, max_iter,
    )
    return MfgSolveReport(
        rep.converged, rep.iterations, rep.residual_history, _split(rep.final_u), rep.message
    )


def _block_hierarchy(space, n_w: int) -> list:
    """The (P, R) pairs of the stacked unknowns (du, dm, w_1, ..., w_n_w),
    finest first: P = block_diag(P, P, P_v, ..., P_v) with P_v acting on
    the all-vertex w's (fem.vertex_prolongations, built only when n_w > 0)
    and R = P^T in CSR, each built once for every V-cycle of a solve."""
    levels = fem.prolongations(space)
    vertex = fem.vertex_prolongations(space) if n_w else [None] * len(levels)
    hierarchy = []
    for (P, _), P_v in zip(levels, vertex):
        B = sp.block_diag((P, P) + (P_v,) * n_w, format="csr")
        hierarchy.append((B, B.T.tocsr()))
    return hierarchy


def mfg_newton(problem: MfgProblem, state0=None, tol=1e-9, max_iter=50) -> MfgSolveReport:
    """Damped block Newton on the stacked residual (see
    hj_solver.damped_iteration). Each step solves with mfg_jacobian (see the
    module docstring), preconditioned by a V-cycle on the block hierarchy
    block_diag(P, P), or for a nonlocal coupling block_diag(P, P, P_v, ...,
    P_v), P_v acting on the all-vertex w's (_block_hierarchy)."""
    n_w = 0 if problem.coupling.kind == "local" else _SMOOTHING_STEPS
    hierarchy = _block_hierarchy(problem.space, n_w)
    return _damped_iteration(
        problem, state0, _source_loads(problem),
        lambda x, r: hj_solver._newton_step(mfg_jacobian(problem, _split(x)), r, hierarchy),
        tol, max_iter,
    )


def mfg_picard(
    problem: MfgProblem, state0=None, tol=1e-9, max_iter=200, theta_p=0.5
) -> MfgSolveReport:
    """Alternate a full HJ Newton solve for u at frozen m with one linear
    transport solve for m at frozen u, in defect form
    m <- m - theta_p T^{-1}(T m - rhs), T = A(u)^T; relax m only.
    The pair of solves is the step of hj_solver.damped_iteration."""
    if not 0.0 < theta_p <= 1.0:
        raise ValueError("theta_p must lie in (0, 1]")
    space = problem.space
    b_hjb, b_fp = loads = _source_loads(problem)
    rhs = problem.lam * (fem.assemble_mass(space) @ problem.m0) + b_fp
    hierarchy = fem.prolongations(space)
    inner_tol = max(tol / 10.0, 1e-13)
    outer = itertools.count()

    def step(x, r):
        iteration = next(outer)
        u, m = np.split(x, 2)
        # coupling load at the current density
        f_vals = _coupling_at_quad(problem, m, problem.coupling.f)
        b_u = fem.load_from_values(space, f_vals) + b_hjb
        hj_prob = hj_solver.HjProblem(
            space=space, model=problem.model, lam=problem.lam, f=b_u
        )
        inner = hj_solver.solve_newton(hj_prob, u, tol=inner_tol, max_iter=60)
        if not inner.converged:
            raise NonconvergenceError(
                f"inner value solve failed at outer iteration {iteration}: "
                f"{inner.message}"
            )
        u_new = inner.final_u
        T = _value_linearization(problem, fem.element_gradients(space, u_new)).T.tocsr()
        dm = fem.krylov_solve(T, T @ m - rhs, fem._VCycle(T, hierarchy))[0]
        return np.concatenate([u - u_new, theta_p * dm])

    return _damped_iteration(problem, state0, loads, step, tol, max_iter)


# --------------------------------------------------------------- rate studies


def convergence_study_mfg(
    problem_factory,
    levels,
    u_exact,
    grad_u_exact,
    m_exact,
    grad_m_exact,
    solver="newton",
    tol=1e-9,
    max_iter=100,
    theta_p=0.5,
    r=4.0,
    threads=1,
) -> ConvergenceReport:
    """Refinement study for the coupled system; fits rates for the H1xL2
    pair and for the W^{1,r} x L^r pair (default r = 4). The levels run as
    one nested-iteration chain (diagnostics.refinement_study): a level that
    doubles the previous one starts from its prolongated (u, m), any other
    level from (0, m0). threads has no effect."""
    if solver not in ("newton", "picard"):
        raise ValueError(f"unknown solver {solver!r}")
    r_label = f"{r:g}"

    def solve_level(n, start):
        problem = problem_factory(n)
        x0 = start(problem.space)
        state0 = None if x0 is None else MfgState(*x0)
        if solver == "newton":
            rep = mfg_newton(problem, state0, tol=tol, max_iter=max_iter)
        else:
            rep = mfg_picard(problem, state0, tol=tol, max_iter=max_iter, theta_p=theta_p)
        return problem, rep, (rep.final_state.u, rep.final_state.m)

    def level_errors(problem, rep):
        space, state = problem.space, rep.final_state
        u_h1, u_w1r = fem.error_vs_exact(space, state.u, u_exact, grad_u_exact, ("H1", "W1r"), r)
        m_l2, m_lr = fem.error_vs_exact(space, state.m, m_exact, grad_m_exact, ("L2", "Lr"), r)
        errs = {"u_H1": u_h1, "m_L2": m_l2, f"u_W1{r_label}": u_w1r, f"m_L{r_label}": m_lr}
        errs["combined_H1_L2"] = errs["u_H1"] + errs["m_L2"]
        errs[f"combined_W1{r_label}_L{r_label}"] = (
            errs[f"u_W1{r_label}"] + errs[f"m_L{r_label}"]
        )
        return errs

    return refinement_study(
        solve_level, level_errors, levels, {"solver": solver, "tol": tol, "r": r}
    )
