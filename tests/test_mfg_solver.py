"""Coupled-system solver tests.

Oracles: exact zero residuals for trivial data, bitwise decoupling when the
coupling vanishes, finite-difference consistency of the block Jacobian in a
smooth regime, cross-solver agreement, and manufactured-solution rates.
"""

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nonsmooth_fem import fem, hamiltonian as hm, hj_solver, manufactured as man
from nonsmooth_fem import mesh, mfg_solver as mfg
from nonsmooth_fem.diagnostics import fit_rate
from nonsmooth_fem.fem import NonconvergenceError

import oracles


def space_of(n):
    return fem.make_space(mesh.unit_square_mesh(n))


def huber():
    return hm.builtin_model("huber", delta=1.0)


def quadratic_model():
    # growth test model: H = |z|^2/2, smooth, with unbounded (non-saturating)
    # gradient map; the nominal Lipschitz bound only covers the range used
    return hm.HamiltonianModel(
        name="quadratic",
        lipschitz_C_H=10.0,
        h=lambda Z: 0.5 * (Z * Z).sum(axis=1),
        selection=lambda Z: Z.copy(),
        hp_jacobian=lambda Z: np.tile(np.eye(2), (len(Z), 1, 1)),
    )


@pytest.fixture(scope="module")
def space8():
    return space_of(8)


@pytest.fixture(scope="module")
def space16():
    return space_of(16)


@pytest.fixture(scope="module")
def monotone16(space16):
    problem = mfg.make_mfg_problem(space16, huber(), mfg.local_linear(1.0), 1.0, man.bump)
    report = mfg.mfg_newton(problem, tol=1e-9, max_iter=50)
    assert report.converged
    return problem, report


# ------------------------------------------------------------------ couplings


def test_coupling_builtins_pointwise():
    m = np.array([0.5, -2.0])
    lin = mfg.local_linear(2.5)
    assert np.allclose(lin.f(m), 2.5 * m)
    assert np.allclose(lin.df(m), 2.5)

    at = mfg.local_arctan()
    assert np.allclose(at.f(m), np.arctan(m))
    assert np.allclose(at.df(m), 1.0 / (1.0 + m**2))

    z = mfg.zero_coupling()
    assert np.array_equal(z.f(m), np.zeros(2))


def test_coupling_from_spec():
    assert mfg.coupling_from_spec("zero").name == "zero"
    assert mfg.coupling_from_spec("local:linear").f(np.array([2.0]))[0] == 2.0
    assert mfg.coupling_from_spec("local:linear:-5").f(np.array([2.0]))[0] == -10.0
    assert mfg.coupling_from_spec("local:arctan").name == "arctan"
    assert mfg.coupling_from_spec("nonlocal:linear").kind == "nonlocal"
    with pytest.raises(ValueError, match="wibble"):
        mfg.coupling_from_spec("local:wibble")


@pytest.mark.parametrize(
    "spec",
    ["local:linear:1:2", "local:linear:nan", "nonlocal:linear:inf", "local:linear:abc",
     "local:linear:", "local:arctan:2", "zero:1", "local"],
)
def test_coupling_from_spec_rejects_malformed_specs(spec):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        mfg.coupling_from_spec(spec)


def test_coupling_kind_validated():
    with pytest.raises(ValueError, match="global"):
        mfg.CouplingModel(kind="global", name="x", f=None, df=None)


# ------------------------------------------------------------------- problem


def test_problem_validation(space8):
    coup = mfg.local_linear(1.0)
    with pytest.raises(ValueError, match="positive"):
        mfg.make_mfg_problem(space8, huber(), coup, 0.0, man.bump)
    with pytest.raises(ValueError, match="gradient"):
        mfg.make_mfg_problem(space8, hm.builtin_model("eikonal"), coup, 1.0, man.bump)
    with pytest.raises(ValueError, match="nonnegative"):
        mfg.make_mfg_problem(space8, huber(), coup, 1.0, lambda X: -man.bump(X))
    with pytest.raises(ValueError, match="vanish"):
        mfg.make_mfg_problem(space8, huber(), coup, 1.0, np.zeros(space8.n_free))
    with pytest.raises(ValueError, match="length"):
        mfg.make_mfg_problem(space8, huber(), coup, 1.0, np.ones(3))
    # signed data is allowed once compensating sources are attached
    signed = mfg.make_mfg_problem(
        space8, huber(), coup, 1.0, lambda X: -man.bump(X), g_fp=lambda X: np.zeros(len(X))
    )
    assert isinstance(signed, mfg.MfgProblem)


# ------------------------------------------------------------------ residual


def test_residual_all_zero_data_is_exactly_zero(space8):
    problem = mfg.make_mfg_problem(
        space8,
        hm.builtin_model("zero"),
        mfg.zero_coupling(),
        1.0,
        np.zeros(space8.n_free),
        g_fp=lambda X: np.zeros(len(X)),
    )
    state = mfg.MfgState(u=np.zeros(space8.n_free), m=np.zeros(space8.n_free))
    r = mfg.mfg_residual(problem, state)
    assert np.array_equal(r, np.zeros(2 * space8.n_free))


def test_residual_value_block_ignores_density_when_decoupled(space8):
    rng = np.random.default_rng(4)
    problem = mfg.make_mfg_problem(space8, huber(), mfg.zero_coupling(), 1.0, man.bump)
    n = space8.n_free
    u = rng.normal(size=n)
    r1 = mfg.mfg_residual(problem, mfg.MfgState(u=u, m=rng.normal(size=n)))
    r2 = mfg.mfg_residual(problem, mfg.MfgState(u=u, m=rng.normal(size=n)))
    assert np.array_equal(r1[:n], r2[:n])
    assert not np.array_equal(r1[n:], r2[n:])


def test_residual_of_interpolants_shrinks_linearly():
    model, coup = huber(), mfg.local_linear(1.0)
    g_hjb, g_fp = man.mfg_sources(model, coup, 1.0)
    hs, vals = [], []
    for n in (8, 16, 32):
        space = space_of(n)
        problem = mfg.make_mfg_problem(
            space, model, coup, 1.0, man.m_star, g_hjb=g_hjb, g_fp=g_fp
        )
        state = mfg.MfgState(
            u=fem.interpolate_nodal(space, man.u_star),
            m=fem.interpolate_nodal(space, man.m_star),
        )
        r = mfg.mfg_residual(problem, state)
        rn = fem.residual_norm(space)
        vals.append(float(np.hypot(rn(r[: space.n_free]), rn(r[space.n_free :]))))
        hs.append(space.mesh.mesh_size_h)
    assert vals[0] > vals[1] > vals[2]
    assert fit_rate(hs, vals).slope >= 0.8


@pytest.mark.parametrize("kind", ["local", "nonlocal"])
def test_residual_calls_coupling_once(space8, kind):
    # the coupling reads density values only, so one call covers every
    # quadrature point of every element
    arctan = mfg.local_arctan()
    shapes = []

    def counted(m):
        shapes.append(m.shape)
        return arctan.f(m)

    coupling = dataclasses.replace(arctan, kind=kind, f=counted)
    problem = mfg.make_mfg_problem(space8, huber(), coupling, 1.0, man.bump)
    mfg.mfg_residual(problem, mfg.MfgState(u=np.zeros(space8.n_free), m=problem.m0))
    assert shapes == [(6, space8.mesh.n_triangles)]


def _elementwise_density_residual(problem, state):
    """r_m with the transport term by the elementwise momentum formula: per
    element, |T| (mbar_T H_p(Du_T)) . Dphi_k, mbar_T the element mean of m,
    summed into the free dofs."""
    space = problem.space
    K, M = fem.assemble_stiffness(space), fem.assemble_mass(space)
    m = state.m
    mbar = fem.extend_to_vertices(space, m)[space.mesh.triangles].mean(axis=1)
    momentum = mbar[:, None] * hm.hp_many(problem.model, fem.element_gradients(space, state.u))
    areas, grads = oracles.element_geometry(space.mesh)
    adv_local = np.einsum("td,tkd->tk", momentum, grads) * areas[:, None]
    dofs = space.elem_dofs.ravel()
    r_adv = np.zeros(space.n_free)
    np.add.at(r_adv, dofs[dofs >= 0], adv_local.ravel()[dofs >= 0])
    b_fp = mfg._source_loads(problem)[1]
    return K @ m + problem.lam * (M @ m) + r_adv - problem.lam * (M @ problem.m0) - b_fp


@pytest.mark.parametrize("model", ["huber:1", "zero"])
@pytest.mark.parametrize("coupling", ["local:linear", "nonlocal:linear"])
def test_density_residual_is_the_elementwise_transport_formula(space16, model, coupling):
    # u = 0.5 sin.sin has |Du| up to pi/2, so huber:1's kink |Du| = 1 is crossed
    problem = mfg.make_mfg_problem(
        space16, hm.model_from_spec(model), mfg.coupling_from_spec(coupling), 1.0, man.bump
    )
    state = mfg.MfgState(u=0.5 * fem.interpolate_nodal(space16, man.u_star), m=problem.m0)
    r_m = mfg.mfg_residual(problem, state)[space16.n_free :]
    assert np.abs(r_m - _elementwise_density_residual(problem, state)).max() <= 1e-14


def test_non_finite_coupling_value_raises(space8):
    nan = mfg.CouplingModel("local", "nan", lambda m: np.full(np.shape(m), np.nan), np.zeros_like)
    problem = mfg.make_mfg_problem(space8, huber(), nan, 1.0, man.bump)
    with pytest.raises(fem.FemError, match="non-finite"):
        mfg.mfg_residual(problem, mfg.MfgState(u=np.zeros(space8.n_free), m=problem.m0))


# ------------------------------------------------------------------ jacobian


@pytest.mark.parametrize(
    "coupling", [mfg.local_linear(1.0), mfg.nonlocal_linear(1.0)], ids=["local", "nonlocal"]
)
def test_density_block_is_bitwise_the_transpose_of_the_value_block(space16, coupling):
    problem = mfg.make_mfg_problem(space16, huber(), coupling, 1.0, man.bump)
    state = mfg.MfgState(u=0.5 * fem.interpolate_nodal(space16, man.u_star), m=problem.m0)
    J = mfg.mfg_jacobian(problem, state)
    n = space16.n_free
    assert np.array_equal(J[n : 2 * n, n : 2 * n].toarray(), J[:n, :n].T.toarray())


@pytest.mark.parametrize("make_coupling", [mfg.local_linear, mfg.nonlocal_linear])
def test_block_jacobian_matches_finite_differences(space8, make_coupling, reduced_jacobian):
    # huber inner branch: |Du| stays well below delta=1, so the residual is
    # smooth at this state and forward differences are trustworthy
    rng = np.random.default_rng(3)
    n = space8.n_free
    problem = mfg.make_mfg_problem(space8, huber(), make_coupling(1.0), 1.0, man.bump)
    state = mfg.MfgState(u=0.01 * rng.normal(size=n), m=0.5 + 0.1 * rng.normal(size=n))
    J = reduced_jacobian(problem, state)
    r0 = mfg.mfg_residual(problem, state)
    eps = 1e-6
    for _ in range(20):
        w = rng.normal(size=2 * n)
        shifted = mfg.MfgState(u=state.u + eps * w[:n], m=state.m + eps * w[n:])
        fd = (mfg.mfg_residual(problem, shifted) - r0) / eps
        Jw = J @ w
        assert np.linalg.norm(Jw - fd) <= 1e-5 * np.linalg.norm(Jw)


def test_smoothing_operator_is_symmetric_and_preserves_constants(space8):
    problem = mfg.make_mfg_problem(space8, huber(), mfg.nonlocal_linear(1.0), 1.0, man.bump)
    smoother = mfg._smoother(problem)
    S = smoother.apply(np.eye(space8.mesh.n_vertices))
    D = np.diag(smoother.M_lump)
    DS = D @ S
    assert np.max(np.abs(DS - DS.T)) <= 1e-12
    ones = np.ones(space8.mesh.n_vertices)
    assert np.max(np.abs(smoother.apply(ones) - ones)) <= 1e-10


def test_smoother_reads_the_cached_geometry_on_the_vertex_pattern(monkeypatch):
    # K and the lumped mass of the mollifier come from the space's two
    # element shapes, summed onto its one read-only all-vertex pattern
    space = space_of(8)
    problem = mfg.make_mfg_problem(space, huber(), mfg.nonlocal_linear(), 1.0, man.bump)

    def no_corners(*args):
        raise AssertionError("element corners read from the grid")

    monkeypatch.setattr(fem, "_grid_corners", no_corners)
    smoother = mfg._smoother(problem)
    assert space._cache["smoother"] is smoother and mfg._smoother(problem) is smoother
    indices, indptr = fem._pattern(space, space.mesh.triangles)
    n_v = space.mesh.n_vertices
    for A in (fem.full_stiffness(space), fem.full_mass(space)):
        assert A.shape == (n_v, n_v) and A.has_canonical_format
        assert np.shares_memory(A.indices, indices) and np.shares_memory(A.indptr, indptr)
        for a in (A.indices, A.indptr):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    monkeypatch.undo()  # the coupling mass reads the density at the corners
    # the nonlocal coupling mass is the free rows of a matrix on that
    # pattern, where every free vertex has its whole 7-point stencil
    Q = mfg.coupling_weighted_mass(problem, problem.m0)
    assert Q.shape == (space.n_free, n_v) and Q.nnz == 7 * space.n_free


def test_nonlocal_coupling_mass_matches_dense_composition(space8):
    # reference: for a linear coupling Q_fv = c * (full mass at free rows),
    # and the reduced Jacobian's coupling block is -Q_fv @ S @ E, with S
    # built column by column; the lifted Jacobian must give it as the Schur
    # complement of its auxiliary block
    c = 2.5
    problem = mfg.make_mfg_problem(space8, huber(), mfg.nonlocal_linear(c), 1.0, man.bump)
    rng = np.random.default_rng(5)
    n_v, n = space8.mesh.n_vertices, space8.n_free
    state = mfg.MfgState(u=0.01 * rng.normal(size=n), m=rng.normal(size=n))
    Q_fv = c * fem.full_mass(space8).toarray()[space8.free_dofs]
    Q = mfg.coupling_weighted_mass(problem, state.m)
    assert Q.shape == (n, n_v)
    assert np.max(np.abs(Q.toarray() - Q_fv)) <= 1e-12 * np.max(np.abs(Q_fv))
    S = mfg._smoother(problem).apply(np.eye(n_v))
    E = np.zeros((n_v, n))
    E[space8.free_dofs, np.arange(n)] = 1.0
    expected = Q_fv @ S @ E
    J = mfg.mfg_jacobian(problem, state).toarray()
    assert J.shape[0] == 2 * n + mfg._SMOOTHING_STEPS * n_v
    k = 2 * n  # (du, dm) lead, the w's trail
    schur = J[:k, :k] - J[:k, k:] @ np.linalg.solve(J[k:, k:], J[k:, :k])
    block = -schur[:n, n:]
    assert np.max(np.abs(block - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("c", [2.5, -5.0])
def test_lifted_nonlocal_step_matches_reduced_jacobian(c, reduced_jacobian):
    space = space_of(12)
    n = space.n_free
    problem = mfg.make_mfg_problem(space, huber(), mfg.nonlocal_linear(c), 1.0, man.bump)
    rng = np.random.default_rng(7)
    state = mfg.MfgState(u=0.1 * rng.normal(size=n), m=0.5 + 0.1 * rng.normal(size=n))
    r = mfg.mfg_residual(problem, state)
    reduced = np.linalg.solve(reduced_jacobian(problem, state), r)
    lifted_J = mfg.mfg_jacobian(problem, state)
    assert lifted_J.shape[0] == 2 * n + mfg._SMOOTHING_STEPS * space.mesh.n_vertices
    lifted = spla.spsolve(lifted_J.tocsc(), np.pad(r, (0, lifted_J.shape[0] - 2 * n)))
    assert np.linalg.norm(lifted[: 2 * n] - reduced) <= 1e-12 * np.linalg.norm(reduced)


def test_nonlocal_newton_solves_a_sparse_system(monkeypatch):
    space = space_of(12)  # fresh space: no smoother cached by other tests
    problem = mfg.make_mfg_problem(space, huber(), mfg.nonlocal_linear(1.0), 1.0, man.bump)
    solved = []
    newton_step = hj_solver._newton_step

    def recording_step(J, r, hierarchy):
        solved.append(J)
        return newton_step(J, r, hierarchy)

    monkeypatch.setattr(hj_solver, "_newton_step", recording_step)
    report = mfg.mfg_newton(problem, tol=1e-9)
    assert report.converged
    size = 2 * space.n_free + mfg._SMOOTHING_STEPS * space.mesh.n_vertices
    assert len(solved) == report.iterations
    assert all(sp.issparse(J) and J.shape == (size, size) for J in solved)
    assert all(J.nnz / J.shape[0] <= 12 for J in solved)


def test_krylov_iterations_are_mesh_independent():
    # the h-uniform inverse bound of the linearization, read as operator
    # preconditioning: one V-cycle per GMRES iteration keeps the count flat
    # (measured 10-11 at n = 32, 64, 128 on all three Jacobians)
    counts = {"hj": [], "local": [], "lifted": []}
    for n in (32, 64, 128):
        space = space_of(n)
        u = fem.interpolate_nodal(space, man.u_star)
        state = mfg.MfgState(u=u, m=fem.interpolate_nodal(space, man.m_star))
        hj = hj_solver.HjProblem(space, hm.builtin_model("eikonal"), 1.0, man.bump)
        local, lifted = (
            mfg.make_mfg_problem(space, huber(), coupling, 1.0, man.bump)
            for coupling in (mfg.local_linear(1.0), mfg.nonlocal_linear(1.0))
        )
        k = mfg._SMOOTHING_STEPS
        systems = {
            "hj": (hj_solver.newton_matrix(hj, u), fem.prolongations(space)),
            "local": (mfg.mfg_jacobian(local, state), mfg._block_hierarchy(space, 0)),
            "lifted": (mfg.mfg_jacobian(lifted, state), mfg._block_hierarchy(space, k)),
        }
        rng = np.random.default_rng(n)
        for name, (J, hierarchy) in systems.items():
            # right sides as Newton poses them: zero in the auxiliary rows
            n_x = space.n_free if name == "hj" else 2 * space.n_free
            b = np.pad(rng.normal(size=n_x), (0, J.shape[0] - n_x))
            y, iterations = fem.krylov_solve(J, b, fem._VCycle(J, hierarchy))
            assert np.linalg.norm(b - J @ y) <= 1e-10 * np.linalg.norm(b)
            counts[name].append(iterations)
    for name, its in counts.items():
        assert max(its) <= 13, (name, its)
        assert max(its) - min(its) <= 2, (name, its)


def test_newton_gmres_fits_one_restart_cycle(monkeypatch):
    # the GMRES basis is sized to the work: every HJ and local-MFG Newton
    # solve at n = 64 ends inside one restart cycle, the cycle is at most
    # twice the longest solve, and restart x cycles keeps 200 iterations
    counts = []
    krylov_solve = fem.krylov_solve

    def recording(A, b, precondition):
        y, iterations = krylov_solve(A, b, precondition)
        counts.append(iterations)
        return y, iterations

    monkeypatch.setattr(fem, "krylov_solve", recording)
    eikonal = hm.builtin_model("eikonal")
    hj = hj_solver.HjProblem(space_of(64), eikonal, 1.0, man.hj_source(eikonal, 1.0))
    assert hj_solver.solve_newton(hj, tol=1e-10).converged
    n_hj = len(counts)
    problem = _sinsin_factory(huber(), mfg.local_linear(1.0))(64)
    assert mfg.mfg_newton(problem, tol=1e-9).converged
    assert 0 < n_hj < len(counts)
    assert max(counts) < fem._GMRES_RESTART <= 2 * max(counts), counts
    assert fem._GMRES_RESTART * fem._GMRES_MAX_CYCLES == 200


def test_newton_factors_nothing_above_the_coarsest_grid(monkeypatch):
    # n = 64 coarsens to n = 8: 49 unknowns per field, 98 for the block
    # V-cycle's (u, m) coarse system; the dual norm never factors K + M,
    # and Picard's transport solve never factors K + lam M + B^T
    factored = []
    splu = spla.splu

    def recording_splu(A, *args, **kwargs):
        factored.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording_splu)
    problem = mfg.make_mfg_problem(space_of(64), huber(), mfg.local_linear(1.0), 1.0, man.bump)
    report = mfg.mfg_newton(problem, tol=1e-9)
    assert report.converged
    assert factored and max(factored) == 98
    assert set(factored) <= {49, 98}
    # Picard's inner HJ Newton solves and its transport solves: one field
    factored.clear()
    assert mfg.mfg_picard(problem, tol=1e-9, theta_p=1.0).converged
    assert factored and set(factored) == {49}


# -------------------------------------------------------------------- newton


def test_newton_zero_model_zero_coupling_single_step(space8):
    problem = mfg.make_mfg_problem(
        space8, hm.builtin_model("zero"), mfg.zero_coupling(), 1.0, man.bump
    )
    report = mfg.mfg_newton(problem, tol=1e-10)
    assert report.converged and report.iterations == 1
    # the block system decouples into two independent linear solves
    K = fem.assemble_stiffness(space8)
    M = fem.assemble_mass(space8)
    A = (K + M).tocsc()
    assert np.max(np.abs(report.final_state.u)) <= 1e-12
    m_direct = spla.splu(A).solve(M @ problem.m0)
    assert np.max(np.abs(report.final_state.m - m_direct)) <= 1e-12


def test_newton_monotone_case_converges_fast(monotone16):
    _, report = monotone16
    assert report.converged
    assert report.iterations <= 25
    assert report.residual_history[-1] <= 1e-9
    assert all(np.isfinite(report.residual_history))


def test_newton_residual_history_certificate(monotone16):
    problem, report = monotone16
    r = mfg.mfg_residual(problem, report.final_state)
    space = problem.space
    rn = fem.residual_norm(space)
    recomputed = float(np.hypot(rn(r[: space.n_free]), rn(r[space.n_free :])))
    assert abs(recomputed - report.residual_history[-1]) <= 1e-13


def test_newton_unreachable_tolerance_reports_cleanly(space8):
    problem = mfg.make_mfg_problem(space8, huber(), mfg.local_linear(1.0), 1.0, man.bump)
    report = mfg.mfg_newton(problem, tol=1e-30, max_iter=40)
    assert not report.converged
    assert report.message
    assert all(np.isfinite(report.residual_history))
    assert np.all(np.isfinite(report.final_state.u))


def test_newton_validates_tolerance(space8):
    problem = mfg.make_mfg_problem(space8, huber(), mfg.local_linear(1.0), 1.0, man.bump)
    with pytest.raises(ValueError):
        mfg.mfg_newton(problem, tol=0.0)


# -------------------------------------------------------------------- picard


def test_picard_zero_coupling_exact_in_one_outer_iteration(space8):
    problem = mfg.make_mfg_problem(space8, huber(), mfg.zero_coupling(), 1.0, man.bump)
    report = mfg.mfg_picard(problem, tol=1e-9, max_iter=10, theta_p=1.0)
    assert report.converged and report.iterations == 1


def test_picard_agrees_with_newton(monotone16):
    problem, newton_report = monotone16
    picard_report = mfg.mfg_picard(problem, tol=1e-9, max_iter=200, theta_p=0.5)
    assert picard_report.converged
    dist = mfg.state_distance(
        problem.space, newton_report.final_state, picard_report.final_state
    )
    assert dist <= 10 * 1e-9


def test_picard_undamped_strong_antimonotone_saturates_and_converges(space16):
    # the drift of a Lipschitz Hamiltonian is bounded, so the density update
    # is a self-map of a bounded set; empirically the undamped iteration
    # contracts even at strong negative coupling rather than cycling
    problem = mfg.make_mfg_problem(space16, huber(), mfg.local_linear(-5.0), 1.0, man.bump)
    report = mfg.mfg_picard(problem, tol=1e-9, max_iter=40, theta_p=1.0)
    assert report.converged
    assert all(np.isfinite(report.residual_history))


def test_picard_budget_exhaustion_reports_cleanly(space16):
    problem = mfg.make_mfg_problem(space16, huber(), mfg.local_linear(1.0), 1.0, man.bump)
    report = mfg.mfg_picard(problem, tol=1e-9, max_iter=3, theta_p=0.5)
    assert not report.converged
    assert "iteration limit" in report.message
    assert len(report.residual_history) == 4
    assert np.all(np.isfinite(report.final_state.m))


def test_picard_inner_failure_raises(space16):
    # a non-Lipschitz growth model with large data defeats the inner solver;
    # that failure must surface as an exception, not a silent report
    problem = mfg.make_mfg_problem(
        space16, quadratic_model(), mfg.local_linear(-5.0), 1.0,
        lambda X: 20.0 * man.bump(X),
    )
    with pytest.raises(NonconvergenceError, match="inner"):
        mfg.mfg_picard(problem, tol=1e-9, max_iter=30, theta_p=1.0)


def test_picard_validates_relaxation(space8):
    problem = mfg.make_mfg_problem(space8, huber(), mfg.local_linear(1.0), 1.0, man.bump)
    with pytest.raises(ValueError):
        mfg.mfg_picard(problem, theta_p=0.0)
    with pytest.raises(ValueError):
        mfg.mfg_picard(problem, theta_p=1.5)


def undamped_picard(problem, tol, max_iter, theta_p):
    """Reference: the undamped Picard loop from (0, m0), each step a full
    inner HJ Newton solve for u and one defect-form transport solve for m,
    taken in full."""
    space = problem.space
    b_hjb, b_fp = mfg._source_loads(problem)
    rn = fem.residual_norm(space)

    def norm(r):  # the stacked dual norm: hypot of the block norms
        return rn(r.reshape(2, -1).T)

    M, W = fem.assemble_mass(space), fem.operator(space, problem.lam)
    rhs = problem.lam * (M @ problem.m0) + b_fp
    hierarchy = fem.prolongations(space)
    state = mfg.MfgState(u=np.zeros(space.n_free), m=np.array(problem.m0, dtype=float))
    history = [norm(mfg.mfg_residual(problem, state))]
    while history[-1] > tol and len(history) <= max_iter:
        f_vals = mfg._coupling_at_quad(problem, state.m, problem.coupling.f)
        b_u = fem.load_from_values(space, f_vals) + b_hjb
        hj_prob = hj_solver.HjProblem(space, problem.model, problem.lam, b_u)
        inner = hj_solver.solve_newton(hj_prob, state.u, tol=max(tol / 10.0, 1e-13), max_iter=60)
        u = inner.final_u
        B = fem.drift_matrix(space, hm.hp_many(problem.model, fem.element_gradients(space, u)))
        # K + lam M + B^T on the free-dof pattern, summed in that order
        T = sp.csr_matrix((W.data + B.T.tocsr().data, W.indices, W.indptr), shape=W.shape)
        dm = fem.krylov_solve(T, T @ state.m - rhs, fem._VCycle(T, hierarchy))[0]
        state = mfg.MfgState(u=u, m=state.m - theta_p * dm)
        history.append(norm(mfg.mfg_residual(problem, state)))
    return state, history


@pytest.mark.parametrize(
    "coupling", [mfg.local_linear(1.0), mfg.nonlocal_linear(1.0)], ids=["local", "nonlocal"]
)
def test_picard_takes_the_undamped_iterates(space16, coupling):
    # every full step lowers the residual here, so the damped driver follows
    # the undamped iteration; u differs only by the rounding of
    # u - (u - u_new)
    problem = mfg.make_mfg_problem(space16, huber(), coupling, 1.0, man.bump)
    report = mfg.mfg_picard(problem, tol=1e-9, max_iter=200, theta_p=0.5)
    state, history = undamped_picard(problem, 1e-9, 200, 0.5)
    assert report.converged
    assert report.iterations == len(history) - 1
    for got, ref in ((report.final_state.u, state.u), (report.final_state.m, state.m)):
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


# ------------------------------------------------------- structural invariants


def test_advection_block_is_nonnegative_on_converged_monotone_state(monotone16):
    problem, report = monotone16
    m_h = report.final_state.m
    if float(m_h.min()) < -1e-8:
        pytest.skip(f"density dips below tolerance: min m_h = {float(m_h.min()):.3e}")
    space = problem.space
    Du = fem.element_gradients(space, report.final_state.u)
    xi = hm.hp_selection_many(problem.model, Du)
    G = mfg.advection_sensitivity(problem, report.final_state, xi)
    KM = fem.assemble_stiffness(space) + fem.assemble_mass(space)
    rng = np.random.default_rng(7)
    for _ in range(100):
        v = rng.normal(size=space.n_free)
        assert float(v @ (G @ v)) >= -1e-8 * float(v @ (KM @ v))


def test_total_mass_is_positive(monotone16):
    problem, report = monotone16
    one = fem.assemble_load(problem.space, lambda X: np.ones(len(X)))
    assert float(one @ report.final_state.m) > 0.0


def test_nonlocal_solvers_agree(space8):
    problem = mfg.make_mfg_problem(space8, huber(), mfg.nonlocal_linear(1.0), 1.0, man.bump)
    newton = mfg.mfg_newton(problem, tol=1e-10)
    picard = mfg.mfg_picard(problem, tol=1e-10, max_iter=300, theta_p=0.5)
    assert newton.converged and picard.converged
    assert mfg.state_distance(space8, newton.final_state, picard.final_state) <= 10 * 1e-10


# ------------------------------------------------------------------- studies


def _sinsin_factory(model, coup, lam=1.0):
    g_hjb, g_fp = man.mfg_sources(model, coup, lam)

    def factory(n):
        space = space_of(n)
        return mfg.make_mfg_problem(
            space, model, coup, lam, man.m_star, g_hjb=g_hjb, g_fp=g_fp
        )

    return factory


def test_manufactured_study_rates():
    factory = _sinsin_factory(huber(), mfg.local_linear(1.0))
    report = mfg.convergence_study_mfg(
        factory, [8, 16, 32], man.u_star, man.grad_u_star, man.m_star, man.grad_m_star,
        solver="newton", tol=1e-9,
    )
    assert report.hs == sorted(report.hs, reverse=True)
    for key in ("combined_H1_L2", "combined_W14_L4"):
        errs = report.errors[key]
        assert all(a > b for a, b in zip(errs, errs[1:]))
    assert report.rates["combined_H1_L2"].slope >= 0.9
    assert report.rates["combined_W14_L4"].slope >= 0.25
    assert report.rates["u_H1"].slope >= 0.9
    assert report.rates["m_L2"].slope >= 1.5


def test_study_is_thread_deterministic():
    factory = _sinsin_factory(huber(), mfg.local_linear(1.0))
    kwargs = dict(
        levels=[8, 16, 32],
        u_exact=man.u_star,
        grad_u_exact=man.grad_u_star,
        m_exact=man.m_star,
        grad_m_exact=man.grad_m_star,
        tol=1e-9,
    )
    seq = mfg.convergence_study_mfg(factory, threads=1, **kwargs)
    par = mfg.convergence_study_mfg(factory, threads=3, **kwargs)
    assert seq.errors == par.errors


_CHAIN_LEVELS = (8, 16, 32)


def _spied_study(monkeypatch, levels):
    """A study across the kink of huber:0.25 with every mfg_newton call's
    start and result on record, through the module-global entry point the
    study calls."""
    calls = []
    newton = mfg.mfg_newton

    def spy(problem, state0=None, **kwargs):
        rep = newton(problem, state0, **kwargs)
        calls.append((problem, state0, rep))
        return rep

    factory = _sinsin_factory(hm.builtin_model("huber", delta=0.25), mfg.local_linear(1.0))
    monkeypatch.setattr(mfg, "mfg_newton", spy)
    report = mfg.convergence_study_mfg(
        factory, levels, man.u_star, man.grad_u_star, man.m_star, man.grad_m_star, tol=1e-9
    )
    return factory, report, calls


def test_study_starts_each_doubled_level_from_the_prolongated_coarse_state(monkeypatch):
    factory, report, calls = _spied_study(monkeypatch, _CHAIN_LEVELS)
    assert calls[0][1] is None
    for (_, _, coarse), (fine, state0, _) in zip(calls, calls[1:]):
        P = fem.prolongations(fine.space)[0][0]
        assert np.array_equal(state0.u, P @ coarse.final_state.u)
        assert np.array_equal(state0.m, P @ coarse.final_state.m)
    monkeypatch.undo()
    cold = [mfg.mfg_newton(factory(n), tol=1e-9) for n in _CHAIN_LEVELS]
    assert report.meta["iterations"][0] == cold[0].iterations
    chained = report.meta["iterations"][1:]
    assert all(c <= r.iterations for c, r in zip(chained, cold[1:]))
    assert any(c < r.iterations for c, r in zip(chained, cold[1:]))
    for i, (n, rep) in enumerate(zip(_CHAIN_LEVELS, cold)):
        space = space_of(n)
        u_ref = fem.error_vs_exact(space, rep.final_state.u, man.u_star, man.grad_u_star, "H1")
        m_ref = fem.error_vs_exact(space, rep.final_state.m, man.m_star, man.grad_m_star, "L2")
        assert abs(report.errors["u_H1"][i] - u_ref) <= 1e-7 * u_ref
        assert abs(report.errors["m_L2"][i] - m_ref) <= 1e-7 * m_ref


def test_study_starts_non_doubling_levels_from_m0(monkeypatch):
    _, _, calls = _spied_study(monkeypatch, (12, 18))
    assert [state0 for _, state0, _ in calls] == [None, None]


def test_study_propagates_nonconvergence():
    factory = _sinsin_factory(huber(), mfg.local_linear(1.0))
    with pytest.raises(NonconvergenceError, match="n=8"):
        mfg.convergence_study_mfg(
            factory, [8], man.u_star, man.grad_u_star, man.m_star, man.grad_m_star,
            solver="picard", tol=1e-12, max_iter=2,
        )


def test_study_validates_arguments():
    factory = _sinsin_factory(huber(), mfg.local_linear(1.0))
    with pytest.raises(ValueError, match="increasing"):
        mfg.convergence_study_mfg(
            factory, [16, 8], man.u_star, man.grad_u_star, man.m_star, man.grad_m_star
        )
    with pytest.raises(ValueError, match="solver"):
        mfg.convergence_study_mfg(
            factory, [8, 16], man.u_star, man.grad_u_star, man.m_star, man.grad_m_star,
            solver="gauss",
        )


# ------------------------------------------------------------- source formulas


def test_mfg_sources_reproduce_strong_form():
    # independent check of the compensating sources against hand-computed
    # derivatives of the closed-form pair at generic points
    model, coup, lam = huber(), mfg.local_linear(1.0), 1.0
    g_hjb, g_fp = man.mfg_sources(model, coup, lam)
    X = np.array([[0.31, 0.47], [0.62, 0.18], [0.5, 0.5]])
    u = man.u_star(X)
    Du = man.grad_u_star(X)
    Hess = man.hess_u_star(X)
    lap = Hess[:, 0, 0] + Hess[:, 1, 1]
    h_vals = hm.eval_many(model, Du)
    expect_hjb = -lap + h_vals + lam * u - coup.f(man.m_star(X))
    assert np.max(np.abs(g_hjb(X) - expect_hjb)) <= 1e-12
    # density equation: -div(m H_p(Du)) expands via the chain rule
    hp = hm.hp_many(model, Du)
    xi = hm.hp_selection_many(model, Du)
    div_hp = np.einsum("nij,nji->n", xi, Hess)
    m, Dm = man.m_star(X), man.grad_m_star(X)
    expect_fp = -lap - (np.einsum("nd,nd->n", Dm, hp) + m * div_hp)
    assert np.max(np.abs(g_fp(X) - expect_fp)) <= 1e-12


def _sin_cos_columns(X):
    """(sx, cx, sy, cy): sin and cos of pi x and pi y by the module's helper,
    each column on its own."""
    (sx, cx), (sy, cy) = (man._sin_cos(np.ascontiguousarray(X[:, d])) for d in (0, 1))
    return sx, cx, sy, cy


def _old_grad_u_star(X):
    sx, cx, sy, cy = _sin_cos_columns(X)
    return np.pi * np.column_stack([cx * sy, sx * cy])


def _old_hess_u_star(X):
    sx, cx, sy, cy = _sin_cos_columns(X)
    H = np.empty((len(X), 2, 2))
    H[:, 0, 0] = -np.pi**2 * sx * sy
    H[:, 1, 1] = -np.pi**2 * sx * sy
    H[:, 0, 1] = np.pi**2 * cx * cy
    H[:, 1, 0] = H[:, 0, 1]
    return H


def _old_sources(model, coupling, lam):
    """hj_source, g_hjb and g_fp with every field evaluated on its own and
    the trace by einsum: the oracle of the one-jet sources."""
    u = m = man.u_star
    Du = Dm = _old_grad_u_star

    def f(X):
        return (2.0 * np.pi**2 + lam) * u(X) + hm.eval_many(model, Du(X))

    def g_hjb(X):
        return (2.0 * np.pi**2 + lam) * u(X) + hm.eval_many(model, Du(X)) - coupling.f(m(X))

    def g_fp(X):
        Z = Du(X)
        hp = hm.hp_many(model, Z)
        div_hp = np.einsum("nij,nji->n", hm.hp_selection_many(model, Z), _old_hess_u_star(X))
        return 2.0 * np.pi**2 * m(X) - ((Dm(X) * hp).sum(axis=1) + m(X) * div_hp)

    return f, g_hjb, g_fp


@pytest.mark.parametrize("delta", [1.0, 0.25, 10.0])
@pytest.mark.parametrize(
    "coupling", [mfg.local_linear(1.0), mfg.local_arctan()], ids=["linear", "arctan"]
)
def test_sources_are_bitwise_the_per_field_forms(delta, coupling):
    X = np.random.default_rng(17).uniform(-0.5, 1.5, (100_000, 2))
    X[:4] = [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.25, 0.75]]
    model = hm.builtin_model("huber", delta=delta)
    f, g_hjb, g_fp = _old_sources(model, coupling, 0.7)
    assert np.array_equal(man.grad_u_star(X), _old_grad_u_star(X))
    assert np.array_equal(man.hess_u_star(X), _old_hess_u_star(X))
    assert np.array_equal(man.hj_source(model, 0.7)(X), f(X))
    for new, old in zip(man.mfg_sources(model, coupling, 0.7), (g_hjb, g_fp)):
        assert np.array_equal(new(X), old(X))


@pytest.mark.parametrize("name", ["zero", "eikonal"])
def test_hj_source_is_bitwise_the_per_field_form(name):
    X = np.random.default_rng(19).uniform(0.0, 1.0, (50_000, 2))
    model = hm.builtin_model(name)
    assert np.array_equal(man.hj_source(model, 2.0)(X), _old_sources(model, None, 2.0)[0](X))


def _einsum_advection(problem, state, xi):
    space = problem.space
    nodal = np.take(fem.extend_to_vertices(space, state.m), space.mesh.triangles)
    # the space's own table per element, so the forms agree at any n
    areas, grads = oracles.table_geometry(space)
    xig = np.einsum("tde,tje->tjd", xi, grads)
    local = np.einsum("tjd,tid->tij", xig, grads)
    local *= (areas * nodal.mean(axis=1))[:, None, None]
    return oracles.scatter(space, local, space.elem_dofs)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 32, 40, 64, 256])
def test_advection_sensitivity_is_bitwise_its_einsum_form(n):
    # the einsum form takes the density's corner mean from the (nt, 3)
    # gather, the sensitivity from slices of the vertex grid
    space = space_of(n)
    rng = np.random.default_rng(n)
    coupling = mfg.local_linear(1.0)  # the sources admit n = 1, no free dof
    sources = man.mfg_sources(huber(), coupling, 1.0)
    problem = mfg.make_mfg_problem(space, huber(), coupling, 1.0, man.bump, *sources)
    state = mfg.MfgState(u=rng.standard_normal(space.n_free), m=rng.standard_normal(space.n_free))
    nt = space.mesh.n_triangles
    for xi in (rng.standard_normal((nt, 2, 2)) * 10.0 ** rng.uniform(-5, 5, (nt, 1, 1)),
               hm.hp_selection_many(huber(), fem.element_gradients(space, state.u))):
        got = mfg.advection_sensitivity(problem, state, xi)
        want = _einsum_advection(problem, state, xi)
        for key in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, key), getattr(want, key))


def test_sin_cos_from_one_tangent_is_within_rounding_of_numpy():
    X = np.random.default_rng(23).uniform(-0.5, 1.5, 100_000)
    X = np.concatenate([X, [0.0, 0.5, 1.0]])
    s, c = man._sin_cos(X)
    assert np.abs(s - np.sin(np.pi * X)).max() <= 4.5e-16
    assert np.abs(c - np.cos(np.pi * X)).max() <= 4.5e-16


def test_mfg_sources_require_gradient_data():
    with pytest.raises(ValueError):
        man.mfg_sources(hm.builtin_model("eikonal"), mfg.local_linear(1.0), 1.0)
