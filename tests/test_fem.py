"""Oracle tests for P1 assembly, linear solves, and discrete norms.

Hand-derived values: the 5-point stencil diagonal (4.0) of the structured
mesh, the exact local mass matrix, quadrature exactness on monomials.
Independent oracles: dense eigensolves, two-route norm evaluation,
manufactured-solution convergence rates.
"""

import io
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nonsmooth_fem import fem, hj_solver, manufactured
from nonsmooth_fem.fem import (
    FemError,
    NonconvergenceError,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    element_gradients,
    error_vs_exact,
    full_mass,
    full_stiffness,
    interpolate_nodal,
    make_space,
    norm,
)
from nonsmooth_fem.hamiltonian import builtin_model, selection_field
from nonsmooth_fem.mesh import unit_square_mesh

import oracles


def u_star(p):
    p = np.atleast_2d(p)
    return np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])


def grad_u_star(p):
    p = np.atleast_2d(p)
    return np.pi * np.column_stack(
        [
            np.cos(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]),
            np.sin(np.pi * p[:, 0]) * np.cos(np.pi * p[:, 1]),
        ]
    )


def f_poisson(p):
    return 2.0 * np.pi**2 * u_star(p)


# ---------------------------------------------------------------- quadrature


def _exact_bary_integral(a, b, c):
    # reference triangle, area 1/2: int l1^a l2^b l3^c = 2A a! b! c! / (a+b+c+2)!
    return (
        math.factorial(a)
        * math.factorial(b)
        * math.factorial(c)
        / math.factorial(a + b + c + 2)
    )


def test_triangle_rule_exact_to_stated_degree():
    bary, weights, _ = fem.quad_points(make_space(unit_square_mesh(2)))
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(weights > 0)
    for a in range(5):
        for b in range(5 - a):
            for c in range(5 - a - b):
                val = 0.5 * (
                    weights * bary[:, 0] ** a * bary[:, 1] ** b * bary[:, 2] ** c
                ).sum()
                exact = _exact_bary_integral(a, b, c)
                assert val == pytest.approx(exact, rel=1e-14, abs=1e-16)


# ------------------------------------------------------------------ assembly


def test_space_counts():
    space = make_space(unit_square_mesh(4))
    assert space.n_free == (4 - 1) ** 2
    dof = np.asarray(space.dof_of_vertex)
    assert (dof >= 0).sum() == space.n_free
    assert np.all(dof[np.asarray(space.mesh.boundary_vertex)] == -1)


def test_full_stiffness_annihilates_constants():
    K = full_stiffness(make_space(unit_square_mesh(3)))
    ones = np.ones(K.shape[0])
    assert np.abs(K @ ones).max() <= 1e-12


def test_stiffness_five_point_diagonal():
    # n=2 has a single interior vertex; hand assembly over its 6 incident
    # right triangles gives the classic 5-point stencil diagonal 4.0
    space = make_space(unit_square_mesh(2))
    K = assemble_stiffness(space)
    assert K.shape == (1, 1)
    assert K.toarray()[0, 0] == pytest.approx(4.0, abs=1e-14)


def test_stiffness_symmetric_exactly():
    K = assemble_stiffness(make_space(unit_square_mesh(5)))
    d = (K - K.T).toarray()
    assert np.abs(d).max() == 0.0


def test_stiffness_spd_on_random_vectors():
    space = make_space(unit_square_mesh(6))
    K = assemble_stiffness(space)
    M = assemble_mass(space)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(space.n_free)
        assert x @ (K @ x) > 0.0
        assert x @ ((K + M) @ x) > 0.0


def test_full_mass_total_is_domain_area():
    M = full_mass(make_space(unit_square_mesh(3)))
    assert M.sum() == pytest.approx(1.0, abs=1e-14)


def test_local_mass_reference_triangle():
    # exact integration of barycentric products over the reference triangle
    got = fem._local_mass(0.5)
    expected = 0.5 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    assert np.allclose(got, expected, atol=0, rtol=1e-15)
    # cross-check against the quadrature rule
    bary, weights, _ = fem.quad_points(make_space(unit_square_mesh(2)))
    quad = 0.5 * np.einsum("q,qi,qj->ij", weights, bary, bary)
    assert np.allclose(got, quad, atol=1e-16, rtol=1e-13)


def test_mass_eigenvalues_positive_dense_oracle():
    M = assemble_mass(make_space(unit_square_mesh(4)))
    eigs = np.linalg.eigvalsh(M.toarray())
    assert eigs.min() > 0.0


# ---------------------------------------------------------------------- load


def test_load_zero_field():
    space = make_space(unit_square_mesh(3))
    b = assemble_load(space, lambda p: np.zeros(np.atleast_2d(p).shape[0]))
    assert np.all(b == 0.0)


def test_load_constant_matches_mass_row_sums():
    mesh = unit_square_mesh(3)
    space = make_space(mesh)
    b = assemble_load(space, lambda p: np.ones(np.atleast_2d(p).shape[0]))
    rows = np.asarray(full_mass(space).sum(axis=1)).ravel()
    expected = rows[np.asarray(space.free_dofs)]
    assert np.allclose(b, expected, rtol=1e-14, atol=1e-16)


def test_load_affine_exact_order2_vs_order3():
    # f phi_i has degree 2 per element: the rule integrates it exactly, so
    # the load equals the mass matrix applied to the nodal values of f
    mesh = unit_square_mesh(4)
    space = make_space(mesh)
    f = lambda p: 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1]
    exact = (full_mass(space) @ f(mesh.vertices))[space.free_dofs]
    assert np.allclose(assemble_load(space, f), exact, rtol=1e-14, atol=1e-16)


def test_load_nonfinite_value_reports_point():
    space = make_space(unit_square_mesh(2))

    def f(p):
        p = np.atleast_2d(p)
        out = np.ones(p.shape[0])
        out[p[:, 0] > 0.5] = np.inf
        return out

    with pytest.raises(FemError, match="non-finite"):
        assemble_load(space, f)


def test_load_rejects_per_point_callable():
    # fields are vectorized over (N, 2) point arrays; a per-point callable
    # is an error, not something to retry point by point
    space = make_space(unit_square_mesh(2))
    with pytest.raises(TypeError):
        assemble_load(space, lambda p: math.sin(p[0]))
    with pytest.raises(FemError, match=r"shape \(2,\) on 8 points, expected \(8,\)"):
        assemble_load(space, lambda p: p[0] + p[1])
    with pytest.raises(FemError, match=r"expected \(8, 2\)"):
        error_vs_exact(space, np.zeros(space.n_free), u_star, lambda p: p[:, 0], "H1")


# -------------------------------------------------------------- linear solves


def direct_solve(space, lam, b):
    """(K + lam M)^{-1} b by a sparse direct solve."""
    W = assemble_stiffness(space) + lam * assemble_mass(space)
    return spla.spsolve(W.tocsc(), b)


def test_solve_poisson_manufactured_rate_two():
    errs, hs = [], []
    for n in (8, 16, 32):
        space = make_space(unit_square_mesh(n))
        b = assemble_load(space, f_poisson)
        v = direct_solve(space, 0.0, b)
        errs.append(error_vs_exact(space, v, u_star, grad_u_star, "L2"))
        hs.append(space.mesh.mesh_size_h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2
    # errors roughly quarter per refinement
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_solve_large_lambda_reaction_limit():
    space = make_space(unit_square_mesh(8))
    lam = 1e8
    b = assemble_load(space, lambda p: np.ones(np.atleast_2d(p).shape[0]))
    v = direct_solve(space, lam, b)
    assert norm(space, v, "L2") <= 10.0 / lam


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_krylov_solve_of_k_plus_lambda_m_within_one_cycle(lam):
    # Picard's linear solve, here on the full Poisson load at n=256,
    # preconditioned by the sine solve of the same W
    space = make_space(unit_square_mesh(256))
    W = fem.operator(space, lam)
    b = assemble_load(space, f_poisson)
    v, iterations = fem.krylov_solve(W, b, fem.sine_solver(space, lam))
    assert np.linalg.norm(b - W @ v) <= fem._KRYLOV_RTOL * np.linalg.norm(b)
    assert 0 < iterations <= 3


# -------------------------------------------------------------- grid hierarchy


@pytest.mark.parametrize("n", [10, 16, 32])
def test_prolongation_is_p1_interpolation(n):
    fine, coarse = make_space(unit_square_mesh(n)), make_space(unit_square_mesh(n // 2))
    (P, R), *_ = fem.prolongations(fine)
    P_v = fem.vertex_prolongations(fine)[0]
    assert R.format == "csr" and (R != P.T).nnz == 0
    rng = np.random.default_rng(n)
    u_c = rng.standard_normal(coarse.n_free)
    exact = fem.evaluate(coarse, u_c, fine.mesh.vertices[fine.free_dofs])
    assert np.max(np.abs(P @ u_c - exact)) <= 1e-14
    # the all-vertex map reproduces the coarse nodal values of any P1
    # function, boundary included: here a linear one
    linear = lambda X: 1.0 + 2.0 * X[:, 0] - 3.0 * X[:, 1]
    assert np.allclose(
        P_v @ linear(coarse.mesh.vertices), linear(fine.mesh.vertices), atol=1e-14, rtol=0
    )


@pytest.mark.parametrize("n", [16, 64, 256, 512], ids=lambda n: f"n{n}")
def test_free_prolongations_are_the_sliced_vertex_prolongations(n):
    # built on the free lattices by grid arithmetic: the same CSR arrays as
    # the all-vertex prolongation with its boundary rows and columns cut
    P, want = fem._free_prolongation(n), oracles.free_prolongation(n)
    assert P.shape == want.shape and P.has_canonical_format
    for key in ("data", "indices", "indptr"):
        got, expect = getattr(P, key), getattr(want, key)
        assert got.dtype == expect.dtype and np.array_equal(got, expect), key
    if n == 64:  # the cached hierarchy is made of them
        levels = fem.prolongations(make_space(unit_square_mesh(n)))
        for (P, _), k in zip(levels, (64, 32, 16), strict=True):
            assert _same_csr(P, oracles.free_prolongation(k))


@pytest.mark.parametrize(
    "n, depth", [(64, 3), (48, 3), (40, 3), (12, 1), (10, 1), (8, 0), (9, 0), (33, 0)]
)
def test_hierarchy_halves_even_n_above_eight(n, depth):
    space = make_space(unit_square_mesh(n))
    levels = fem.prolongations(space)
    assert len(levels) == len(fem.vertex_prolongations(space)) == depth
    sizes = [n]
    for (P, _), P_v in zip(levels, fem.vertex_prolongations(space)):
        sizes.append(sizes[-1] // 2)
        assert P.shape == ((sizes[-2] - 1) ** 2, (sizes[-1] - 1) ** 2)
        assert P_v.shape == ((sizes[-2] + 1) ** 2, (sizes[-1] + 1) ** 2)


# ---------------------------------------------------------- sine transforms


@pytest.mark.parametrize("m", [0, 1, 2, 7, 127])
def test_dst2_is_scipys_orthonormal_dst_one(m):
    x = np.random.default_rng(m).standard_normal((m, m))
    y = fem._dst2(x)
    assert y.shape == (m, m)
    if m:
        assert np.max(np.abs(y - scipy.fft.dstn(x, type=1, norm="ortho"))) <= 1e-14
        assert np.max(np.abs(fem._dst2(y) - x)) <= 1e-14  # its own inverse


@pytest.mark.parametrize("n", [*range(2, 17), 24, 31, 32, 47, 48])
def test_sine_solve_spectrum_bound(n):
    # B inverts W = K + M up to the antisymmetric half of M's diagonal
    # couplings: lambda(BW) in [1 - d, 1 + d], d <= 1.6e-3 (1.57e-3 at n = 4),
    # O(h^2) below (7.4e-5 at n = 32, 3.4e-5 at n = 48); B is exact at n = 2
    space = make_space(unit_square_mesh(n))
    solve = fem.sine_solver(space, 1.0)
    B = np.column_stack([solve(e) for e in np.eye(space.n_free)])
    assert np.max(np.abs(B - B.T)) <= 1e-15 * np.max(np.abs(B))
    L = np.linalg.cholesky(B)
    spectrum = np.linalg.eigvalsh(L.T @ fem.operator(space, 1.0).toarray() @ L)
    d = np.max(np.abs(spectrum - 1.0))
    assert d <= (1e-14 if n == 2 else 1.6e-3 if n < 32 else 1e-4 * (32 / n) ** 2)


# ------------------------------------------------------------------ dual norm


def _lu_dual_norm(space, r):
    W = (assemble_stiffness(space) + assemble_mass(space)).tocsc()
    return math.sqrt(r @ spla.splu(W).solve(r))


def _dual_norm_loads(space):
    """Random, smooth and Newton residuals: the eikonal HJ residual at zero
    and after one Newton step."""
    model = builtin_model("eikonal")
    prob = hj_solver.HjProblem(space, model, 1.0, manufactured.hj_source(model, 1.0))
    r0 = hj_solver.hj_residual(prob, np.zeros(space.n_free))
    J = hj_solver.newton_matrix(prob, np.zeros(space.n_free))
    u1 = -fem.krylov_solve(J, r0, fem._VCycle(J, fem.prolongations(space)))[0]
    return {
        "random": np.random.default_rng(space.n_free).standard_normal(space.n_free),
        "smooth": interpolate_nodal(space, lambda X: np.sin(np.pi * X[:, 0]) * X[:, 1]),
        "newton-0": r0,
        "newton-1": hj_solver.hj_residual(prob, u1),
    }


@pytest.mark.parametrize("n", [9, 16, 32, 33, 64, 128])
def test_dual_norm_matches_lu_within_stated_bound(n):
    # stated bound: relative error of ||r||^2 <= eps^2 / lambda_min(BW) = 1.0e-10,
    # so at most 5e-11 on ||r||
    space = make_space(unit_square_mesh(n))
    rn = fem.residual_norm(space)
    for name, r in _dual_norm_loads(space).items():
        reference = _lu_dual_norm(space, r)
        assert abs(rn(r) - reference) <= 1e-10 * reference, name


def test_dual_norm_of_columns_is_the_hypot_of_their_norms():
    space = make_space(unit_square_mesh(32))
    rn = fem.residual_norm(space)
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal(space.n_free), 1e-3 * rng.standard_normal(space.n_free)
    assert rn(np.column_stack([a, b])) == pytest.approx(math.hypot(rn(a), rn(b)), rel=1e-14)
    assert rn(np.column_stack([a, np.zeros(space.n_free)])) == pytest.approx(rn(a), rel=1e-14)
    assert rn(np.zeros(space.n_free)) == 0.0
    assert rn(np.zeros((space.n_free, 2))) == 0.0


def test_dual_norm_of_no_free_dofs_is_zero():
    # n = 1: the one cell's four vertices are all on the boundary
    rn = fem.residual_norm(make_space(unit_square_mesh(1)))
    assert rn(np.zeros(0)) == 0.0
    assert rn(np.zeros((0, 2))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 9, 16, 33, 48, 64, 96, 128, 256])
def test_dual_norm_takes_at_most_two_iterations(n):
    # the sine solve B inverts W = K + M to O(h^2), at odd n and even: CG
    # takes 2 iterations for n <= 48 and 1 from n = 96 up; at n = 2 B = W^{-1}
    space = make_space(unit_square_mesh(n))
    rn = fem.residual_norm(space)
    assert rn(np.ones(space.n_free)) > 0.0
    assert "prolongations" not in space._cache  # the norm builds no hierarchy
    for name, r in _dual_norm_loads(space).items():
        assert rn._riesz(r)[1] <= (1 if n == 2 or n >= 96 else 2), name


def test_dual_norm_iteration_cap_raises(monkeypatch):
    space = make_space(unit_square_mesh(32))
    monkeypatch.setattr(fem, "_NORM_MAX_ITER", 1)
    with pytest.raises(NonconvergenceError) as err:
        fem.residual_norm(space)(np.ones(space.n_free))
    assert re.search(
        rf"on {space.n_free} unknowns stopped after 1 iterations at ratio .* = "
        r"\d\.\d{3}e-\d+, above its target 1e-05",
        str(err.value),
    )


# ------------------------------------------------------------------- assembly


def _coo_assembly(local, dofs, n):
    """Sum (nt, 3, 3) element matrices into an n x n CSR through a COO
    matrix, skipping dof -1: the oracle of the pattern scatter."""
    i = np.repeat(dofs[:, :, None], 3, axis=2).ravel()
    j = np.repeat(dofs[:, None, :], 3, axis=1).ravel()
    v = local.ravel()
    keep = (i >= 0) & (j >= 0)
    return sp.coo_matrix((v[keep], (i[keep], j[keep])), shape=(n, n)).tocsr()


def _lattices(space):
    """(corners, unknowns) of the free dofs and of all vertices."""
    return [(space.elem_dofs, space.n_free), (space.mesh.triangles, space.mesh.n_vertices)]


@pytest.mark.parametrize("mesh", [unit_square_mesh(8), unit_square_mesh(7)])
def test_pattern_assembly_matches_coo_assembly(mesh):
    space = make_space(mesh)
    local = np.random.default_rng(0).standard_normal((mesh.n_triangles, 3, 3))
    for corners, n in _lattices(space):
        A = fem.assemble_from_local(space, local, corners)
        reference = _coo_assembly(local, corners, n)
        assert A.shape == (n, n) and A.has_canonical_format
        assert np.array_equal(A.indptr, reference.indptr)
        assert np.array_equal(A.indices, reference.indices)
        assert np.abs(A.data - reference.data).max() <= 1e-14 * np.abs(reference.data).max()
    with pytest.raises(FemError, match="elem_dofs or its mesh's triangles"):
        fem.assemble_from_local(space, local, space.elem_dofs.copy())


def _unique_pattern(dofs, n):
    """(indices, indptr) of the pattern of the n unknowns that dofs
    numbers, by np.unique."""
    i = np.repeat(dofs[:, :, None], 3, axis=2).ravel()
    j = np.repeat(dofs[:, None, :], 3, axis=1).ravel()
    keep = (i >= 0) & (j >= 0)
    keys = np.unique(i[keep].astype(np.int64) * n + j[keep])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(keys // n, minlength=n))])
    return keys % n, indptr


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 16], ids=lambda n: f"n{n}")
def test_free_pattern_matches_unique_and_sorts_once(n):
    # the closed-form stencil, no sort and no slot table, on the free dofs
    # and on all vertices: under 40 bytes of transient memory per element
    # entry, where np.unique(..., return_inverse=True) took 60-67 and one
    # argsort of int64 keys 24-27
    mesh = unit_square_mesh(n)
    space = make_space(mesh)
    for corners, size in _lattices(space):
        tracemalloc.start()
        try:
            got = fem._pattern(space, corners)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fem._pattern(space, corners) is got  # cached
        for a, b in zip(got, _unique_pattern(corners, size)):
            assert a.dtype == np.int32 and np.array_equal(a, b)
        # below n = 8 the fixed cost of a few dozen small arrays, about 7 KB
        # (8.4 KB for the argsort pattern at n = 3), passes the per-entry bound
        if n >= 8:
            assert peak <= 40 * 9 * mesh.n_triangles


def test_operator_matches_scipy_sum_on_the_pattern():
    prob = hj_solver.HjProblem(
        make_space(unit_square_mesh(12)), builtin_model("eikonal"), 0.5, f_poisson
    )
    u = interpolate_nodal(prob.space, u_star)
    K, M = assemble_stiffness(prob.space), assemble_mass(prob.space)
    C = fem.drift_matrix(prob.space, selection_field(prob.model, prob.space, u))
    J = hj_solver.newton_matrix(prob, u)
    assert np.array_equal(J.toarray(), (K + 0.5 * M + C).toarray())
    # exactly the pattern's entries, in arrays of exactly that size
    assert J.data.size == J.indices.size == K.nnz
    assert all(a.base is None or a.base.size == a.size for a in (J.data, J.indices))


def test_pattern_keys_past_int32_match_coo_assembly():
    # n_free^2 = 4.2e9 passes 2^31 at n=256: pattern keys i * n + j formed
    # in int32 would wrap
    space = make_space(unit_square_mesh(256))
    assert space.n_free**2 > np.iinfo(np.int32).max
    areas, grads = oracles.element_geometry(space.mesh)
    stiff = np.einsum("tid,tjd->tij", grads, grads) * areas[:, None, None]
    dofs = space.elem_dofs.astype(np.int64)
    for A, local in ((assemble_stiffness(space), stiff),
                     (assemble_mass(space), oracles.local_mass(areas))):
        reference = _coo_assembly(local, dofs, space.n_free)
        assert np.array_equal(A.indptr, reference.indptr)
        assert np.array_equal(A.indices, reference.indices)
        assert np.array_equal(A.data, reference.data)


def test_matrices_share_the_read_only_pattern():
    space = make_space(unit_square_mesh(16))
    prob = hj_solver.HjProblem(space, builtin_model("eikonal"), 0.5, f_poisson)
    u = interpolate_nodal(space, u_star)
    drift = np.random.default_rng(2).normal(size=(space.mesh.n_triangles, 2))
    indices, indptr = fem._pattern(space, space.elem_dofs)
    matrices = {
        "K": assemble_stiffness(space),
        "M": assemble_mass(space),
        "W": fem.residual_norm(space)._W,
        "operator": fem.operator(space, 1.5, drift),
        "newton": hj_solver.newton_matrix(prob, u),
    }
    for name, A in matrices.items():
        assert np.shares_memory(A.indices, indices), name
        assert np.shares_memory(A.indptr, indptr), name
        for a in (A.indices, A.indptr):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]
    # an in-place sort raises instead of reordering every matrix's columns
    K = matrices["K"]
    K.has_sorted_indices = False
    with pytest.raises(ValueError):
        K.sort_indices()
    unique = _unique_pattern(space.elem_dofs, space.n_free)
    assert np.array_equal(fem._pattern(space, space.elem_dofs)[0], unique[0])


def test_connectivity_is_int32():
    space = make_space(unit_square_mesh(8))
    for a in (space.mesh.triangles, space.free_dofs, space.dof_of_vertex, space.elem_dofs):
        assert a.dtype == np.int32


def _reference_geometry(mesh):
    """Areas, longest edge and basis gradients from one (nt, 3, 2) gather of
    the corner points and a (3, nt, 2) stack of the edge vectors."""
    p = np.take(mesh.vertices, mesh.triangles, axis=0)
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    h = float(np.sqrt((e * e).sum(axis=-1)).max())
    grads = np.empty_like(p)
    for i in range(3):
        a, b = p[:, (i + 1) % 3], p[:, (i + 2) % 3]
        grads[:, i, 0] = a[:, 1] - b[:, 1]
        grads[:, i, 1] = b[:, 0] - a[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return areas, h, grads


def _same_csr(A, B):
    return all(np.array_equal(getattr(A, k), getattr(B, k)) for k in ("data", "indices", "indptr"))


@pytest.mark.parametrize(
    "mesh",
    [unit_square_mesh(1), unit_square_mesh(3), unit_square_mesh(16), unit_square_mesh(64)],
    ids=["n1", "n3", "n16", "n64"],
)
def test_geometry_and_stiffness_are_bitwise_the_point_gather_formulas(mesh):
    areas, h, grads = _reference_geometry(mesh)
    space = make_space(mesh)
    assert np.array_equal(oracles.signed_areas(mesh), areas)
    assert mesh.mesh_size_h == h
    oracle_areas, oracle_grads = oracles.element_geometry(mesh)
    assert np.array_equal(oracle_areas, areas) and np.array_equal(oracle_grads, grads)
    # the two-shape table is every element's geometry: bitwise on dyadic
    # grids, within rounding of the corner coordinates at n = 3
    table_areas, table_grads = oracles.table_geometry(space)
    exact = (mesh.n & (mesh.n - 1)) == 0
    for table, oracle in ((table_areas, areas), (table_grads, grads)):
        assert np.array_equal(table, oracle) or (
            not exact and np.abs(table - oracle).max() <= 4e-16 * np.abs(oracle).max())
    local = oracles.local_stiffness(grads, areas)
    for A, corners in ((assemble_stiffness(space), space.elem_dofs),
                       (full_stiffness(space), mesh.triangles)):
        want = oracles.scatter(space, local, corners)
        assert _same_csr(A, want) or (
            not exact and np.abs(A.data - want.data).max() <= 1e-15 * np.abs(want.data).max())
    # the oracle scatter itself is the COO sum
    want = oracles.scatter(space, local, mesh.triangles)
    assert _same_csr(want, _coo_assembly(local, mesh.triangles, mesh.n_vertices))


def _oracle_norms(space, geometry, u, kinds, r, u_exact=None, grad_exact=None):
    """fem._norms with the per-element areas and gradients of geometry: one
    pass over the rule points per kind, each element's area in a dot."""
    areas, grads = geometry
    nodal = np.take(fem.extend_to_vertices(space, u), space.mesh.triangles)
    Du = np.einsum("tk,tkd->td", nodal, grads)
    out = []
    for kind in kinds:
        p = 2.0 if kind in ("L2", "H1") else float(r)
        points = fem.quad_points(space)[2] if u_exact else [None] * len(fem._QUAD_BARY)
        total = 0.0
        for w, b, X in zip(fem._QUAD_WEIGHTS, fem._QUAD_BARY, points):
            diff = Du if X is None else grad_exact(X) - Du
            vals = b @ nodal.T if X is None else u_exact(X) - b @ nodal.T
            density = np.abs(vals) ** p
            if kind in ("H1", "W1r"):
                density += (diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]) ** (p / 2.0)
            total += float(w * (areas @ density))
        out.append(total ** (1.0 / p))
    return np.array(out)


def _two_shape_outputs(n):
    """(name, output, per-element oracle) for everything fem builds from the
    element geometry on unit_square_mesh(n): the matrices, the stencil sum
    of random element arrays on both lattices, the weighted local mass, the
    element gradients, the loads and the norms."""
    space = make_space(unit_square_mesh(n))
    mesh, nt = space.mesh, space.mesh.n_triangles
    areas, grads = geometry = oracles.element_geometry(mesh)
    rng = np.random.default_rng(n)
    field = rng.standard_normal((nt, 2))
    weight = rng.standard_normal((len(fem._QUAD_BARY), nt))
    local = rng.standard_normal((nt, 3, 3))
    u = interpolate_nodal(space, u_star) + 1e-2 * rng.standard_normal(space.n_free)
    nodal = np.take(fem.extend_to_vertices(space, u), mesh.triangles)
    vals_q = u_star(np.stack(list(fem.quad_points(space)[2])).reshape(-1, 2)).reshape(-1, nt)
    stiff, mass = oracles.local_stiffness(grads, areas), oracles.local_mass(areas)
    dofs, tri = space.elem_dofs, mesh.triangles
    kinds, r = ("L2", "H1", "Lr", "W1r"), 3.0
    return [
        ("K", assemble_stiffness(space), oracles.scatter(space, stiff, dofs)),
        ("M", assemble_mass(space), oracles.scatter(space, mass, dofs)),
        ("full K", full_stiffness(space), oracles.scatter(space, stiff, tri)),
        ("full M", full_mass(space), oracles.scatter(space, mass, tri)),
        ("drift", fem.drift_matrix(space, field),
         oracles.scatter(space, oracles.local_drift(field, grads, areas), dofs)),
        ("local free", fem.assemble_from_local(space, local, dofs), oracles.scatter(space, local, dofs)),
        ("local all", fem.assemble_from_local(space, local, tri), oracles.scatter(space, local, tri)),
        ("weighted mass", fem.weighted_local_mass(space, weight),
         (weight.T @ fem._QUAD_WBB).reshape(-1, 3, 3) * areas[:, None, None]),
        ("gradients", element_gradients(space, u), np.einsum("tk,tkd->td", nodal, grads)),
        ("load", assemble_load(space, u_star),
         fem._assemble_p1_vector(space, (vals_q.T @ fem._QUAD_WB) * areas[:, None])),
        ("element load", fem.load_from_values(space, field[:, 0]), fem._assemble_p1_vector(
            space, (field[:, 0] * areas)[:, None] * (fem._QUAD_WEIGHTS @ fem._QUAD_BARY))),
        ("norms", np.array([norm(space, u, kind, r) for kind in kinds]),
         _oracle_norms(space, geometry, u, kinds, r)),
        ("errors", np.array(error_vs_exact(space, u, u_star, grad_u_star, kinds, r)),
         _oracle_norms(space, geometry, u, kinds, r, u_star, grad_u_star)),
    ]


def _values(a):
    return a.data if sp.issparse(a) else np.asarray(a)


@pytest.mark.parametrize("n", [1, 2, 4, 16, 64], ids=lambda n: f"n{n}")
def test_two_shape_assembly_is_bitwise_the_per_element_oracle_on_dyadic_grids(n):
    # on dyadic grids every corner coordinate, area and gradient is exact,
    # so one table per half is every element's geometry bit for bit, and the
    # stencil sum adds each entry's terms in the oracle's order
    for name, got, want in _two_shape_outputs(n):
        if sp.issparse(want):
            assert got.shape == want.shape and _same_csr(got, want), name
        assert np.array_equal(_values(got), _values(want)), name
    if n == 1:  # one interior vertex short of a free dof
        space = make_space(unit_square_mesh(1))
        assert assemble_stiffness(space).shape == assemble_mass(space).shape == (0, 0)
        assert full_stiffness(space).nnz == full_mass(space).nnz == 14  # 7-point stencil


# largest relative deviation from the per-element oracle on the grids below:
# measured 4.9e-15 (the weighted mass at n = 40), 3.6e-15 for M at n = 48,
# 2.1e-15 for the drift and 1.3e-15 for K
_TWO_SHAPE_RTOL = 1e-14


@pytest.mark.parametrize("n", [3, 5, 12, 40, 48], ids=lambda n: f"n{n}")
def test_two_shape_assembly_is_within_rounding_of_the_per_element_oracle(n):
    # elsewhere the oracle's geometry differs from the table in the last
    # bits of the corner coordinates; the random element arrays, which
    # carry no geometry, still sum bit for bit
    for name, got, want in _two_shape_outputs(n):
        got, want = _values(got), _values(want)
        if name.startswith("local"):
            assert np.array_equal(got, want), name
        assert np.abs(got - want).max() <= _TWO_SHAPE_RTOL * np.abs(want).max(), name


def test_vector_scatter_matches_masked_add_at_bitwise():
    space = make_space(unit_square_mesh(12))
    local = np.random.default_rng(4).standard_normal((space.mesh.n_triangles, 3))
    dofs = space.elem_dofs.ravel()
    keep = dofs >= 0
    reference = np.zeros(space.n_free)
    np.add.at(reference, dofs[keep], local.ravel()[keep])
    assert np.array_equal(fem._assemble_p1_vector(space, local), reference)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 40, 64, 256], ids=lambda n: f"n{n}")
def test_grid_readers_are_bitwise_the_triangle_gathers(n):
    # corner values, rule values, gradients and rule-point coordinates read
    # from slices of the vertex grid: the gathers' values in the gathers'
    # memory layout, so that the matmuls on them sum in the same order
    space = make_space(unit_square_mesh(n))
    rng = np.random.default_rng(n)
    u = rng.standard_normal(space.n_free)
    nodal = rng.standard_normal(space.mesh.n_vertices)  # boundary values too
    pairs = [
        (fem._corner_values(space, nodal), oracles.corner_values(space, nodal)),
        (fem.rule_values(space, nodal), oracles.rule_values(space, nodal)),
        (element_gradients(space, u), oracles.element_gradients(space, u)),
        *zip(fem.quad_points(space)[2], oracles.quad_points(space), strict=True),
    ]
    for got, want in pairs:
        assert got.shape == want.shape and got.strides == want.strides
        assert np.array_equal(got, want)


def test_rule_points_are_the_barycentric_combinations():
    space = make_space(unit_square_mesh(12))
    bary, _, points = fem.quad_points(space)
    corners = space.mesh.vertices[space.mesh.triangles]  # (nt, 3, 2)
    for b, X in zip(bary, points, strict=True):
        assert np.allclose(X, np.einsum("k,tkd->td", b, corners), rtol=0, atol=1e-15)


@pytest.mark.parametrize("lam", [0.0, 1.0, 2.5])
def test_operator_is_the_scipy_sum_of_its_terms(lam):
    space = make_space(unit_square_mesh(12))
    K, M = assemble_stiffness(space), assemble_mass(space)
    drift = np.random.default_rng(5).normal(size=(space.mesh.n_triangles, 2))
    C = fem.drift_matrix(space, drift)
    for A, expect in ((fem.operator(space, lam), K + lam * M),
                      (fem.operator(space, lam, drift), K + lam * M + C)):
        assert np.array_equal(A.toarray(), expect.toarray())
        assert A.nnz == K.nnz


def test_solve_caches_no_rule_coordinates():
    space = make_space(unit_square_mesh(32))
    prob = hj_solver.HjProblem(space, builtin_model("eikonal"), 1.0, f_poisson)
    assert hj_solver.solve_newton(prob, tol=1e-10).converged
    fem.error_vs_exact(space, interpolate_nodal(space, u_star), u_star, grad_u_star, "H1")
    cached = list(space._cache.values())
    while cached:
        value = cached.pop()
        if isinstance(value, (tuple, list)):
            cached.extend(value)
        assert getattr(value, "shape", None) != (6, space.mesh.n_triangles, 2)


def test_newton_solve_caches_no_k_or_m_and_stays_under_its_memory_bound():
    # K and M are summed from the two element shapes on each use: the solve
    # caches only the pattern, the hierarchy and the dual norm. Its traced
    # peak, mesh included, measured 623 bytes per free dof at n = 128 (921
    # with per-element geometry, a slot table and cached K and M)
    model = builtin_model("eikonal")
    tracemalloc.start()
    try:
        space = make_space(unit_square_mesh(128))
        prob = hj_solver.HjProblem(space, model, 1.0, manufactured.hj_source(model, 1.0))
        assert hj_solver.solve_newton(prob, tol=1e-10).converged
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(space._cache) == ["pattern", "prolongations", "residual_norm"]
    assert peak <= 690 * space.n_free


# ----------------------------------------------- kernels against their old forms


def _allocating_vcycle(cycle, b, level=0):
    """The V-cycle with a temporary per operation, x += w * (b - A @ x): the
    oracle of the in-place sweeps."""
    if level == len(cycle.hierarchy):
        return cycle.lu.solve(b)
    A, w = cycle.ops[level], cycle.weights[level]
    P, R = cycle.hierarchy[level]
    x = w * b
    for _ in range(fem._JACOBI_SWEEPS - 1):
        x += w * (b - A @ x)
    x += P @ _allocating_vcycle(cycle, R @ (b - A @ x), level + 1)
    for _ in range(fem._JACOBI_SWEEPS):
        x += w * (b - A @ x)
    return x


@pytest.mark.parametrize("n", [7, 16, 64])
def test_vcycle_in_place_sweeps_are_bitwise_the_allocating_cycle(n):
    # n = 7 has no hierarchy (the cycle is the LU), 16 one and 64 three levels
    space = make_space(unit_square_mesh(n))
    rng = np.random.default_rng(n)
    drift = rng.standard_normal((space.mesh.n_triangles, 2))
    for A in (fem.operator(space, 1.0), fem.operator(space, 0.5, drift)):
        cycle = fem._VCycle(A, fem.prolongations(space))
        for _ in range(3):
            b = rng.standard_normal(space.n_free) * 10.0 ** rng.uniform(-8, 8)
            b_before = b.copy()
            assert np.array_equal(cycle(b), _allocating_vcycle(cycle, b))
            assert np.array_equal(b, b_before)


@pytest.mark.parametrize("n", [3, 24])
def test_drift_matrix_is_bitwise_its_einsum_form(n):
    space = make_space(unit_square_mesh(n))
    rng = np.random.default_rng(n)
    nt = space.mesh.n_triangles
    field = rng.standard_normal((nt, 2)) * 10.0 ** rng.uniform(-6, 6, (nt, 2))
    field[:3] = [[0.0, 0.0], [-0.0, 1.0], [5e-324, -2.0]]
    # the space's own table per element, so the forms agree at any n
    areas, grads = oracles.table_geometry(space)
    drift = np.einsum("td,tjd->tj", field, grads)
    drift *= areas[:, None] / 3.0
    local = np.repeat(drift[:, None, :], 3, axis=1)
    assert _same_csr(fem.drift_matrix(space, field), oracles.scatter(space, local, space.elem_dofs))


def _einsum_norm(space, u, kind, r, u_exact=None, grad_exact=None):
    """One norm by the one-pass sum of fem._norms with its squared gradient
    terms by einsum: the oracle of their product form."""
    p = 2.0 if kind in ("L2", "H1") else float(r)
    areas = oracles.table_geometry(space)[0]
    corners = fem._corner_values(space, fem.extend_to_vertices(space, u))
    grads = element_gradients(space, u)
    grad_sq = np.einsum("td,td->t", grads, grads)
    points = fem.quad_points(space)[2] if u_exact is not None else [None] * len(fem._QUAD_BARY)
    total = 0.0
    for w, b, X in zip(fem._QUAD_WEIGHTS, fem._QUAD_BARY, points):
        vals = b @ corners
        if X is not None:
            diff = grad_exact(X) - grads
            grad_sq = np.einsum("td,td->t", diff, diff)
            vals = u_exact(X) - vals
        density = np.abs(vals) ** p
        if kind in ("H1", "W1r"):
            density += grad_sq ** (p / 2.0)
        total += float(w * (areas @ density))
    return total ** (1.0 / p)


@pytest.mark.parametrize("kind, r", [("H1", None), ("W1r", 4.0), ("W1r", 3.0)])
def test_gradient_norms_are_bitwise_their_einsum_form(kind, r):
    space = make_space(unit_square_mesh(24))
    u = interpolate_nodal(space, u_star)
    u += 1e-3 * np.random.default_rng(8).standard_normal(space.n_free)
    assert norm(space, u, kind, r) == _einsum_norm(space, u, kind, r)
    got = error_vs_exact(space, u, u_star, grad_u_star, kind, r)
    assert got == _einsum_norm(space, u, kind, r, u_star, grad_u_star)


# ------------------------------------------------------------ point location


def _brute_force_locate(space, pts):
    """Every point against every element, one point at a time, with every
    element's gradients from its corner coordinates."""
    p0 = space.mesh.vertices[space.mesh.triangles[:, 0]]
    grads = oracles.element_geometry(space.mesh)[1]
    elems, lams = [], []
    for x in pts:
        lam12 = np.einsum("tkd,td->tk", grads[:, 1:, :], x - p0)
        lam = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
        inside = np.flatnonzero((lam >= -1e-12).all(axis=1))
        assert len(inside) > 0
        elems.append(inside[0])
        lams.append(lam[inside[0]])
    return np.array(elems), np.array(lams)


@pytest.mark.parametrize("n", [1, 2, 6, 7, 12, 16], ids=lambda n: f"n{n}")
def test_locate_matches_brute_force(n):
    mesh = unit_square_mesh(n)
    space = make_space(mesh)
    v, t = mesh.vertices, mesh.triangles
    midpoints = 0.5 * (v[t] + v[np.roll(t, -1, axis=1)]).reshape(-1, 2)
    # vertices moved by 1e-14, within the barycentric slack of the elements
    # they leave: on a grid line the candidates of both neighbouring cells
    nudged = [v + 1e-14 * np.array(s) for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    rng = np.random.default_rng(3)
    s = rng.random(40)
    zero, one = np.zeros_like(s), np.ones_like(s)
    sides = [np.column_stack(c) for c in ((zero, s), (one, s), (s, zero), (s, one))]
    pts = np.vstack([v, midpoints, *nudged, *sides, rng.random((200, 2))])
    elems, lams = fem._locate(space, pts)
    ref_elems, ref_lams = _brute_force_locate(space, pts)
    assert np.array_equal(elems, ref_elems)
    # the barycentrics from the two-shape table: bitwise on dyadic grids,
    # else within 2e-15 (measured up to 1.3e-15 at n = 6, 7 and 12)
    assert np.array_equal(lams, ref_lams) or (n & (n - 1) and np.abs(lams - ref_lams).max() <= 2e-15)


def test_locate_outside_point_raises():
    space = make_space(unit_square_mesh(4))
    with pytest.raises(FemError, match=r"point \(1\.5, 0\.25\) outside the mesh"):
        fem._locate(space, [[0.5, 0.5], [1.5, 0.25]])
    with pytest.raises(FemError, match="outside the mesh"):
        fem._locate(space, [[-1e-6, 0.5]])


# -------------------------------------------------------------- interpolation


def test_interpolate_zero():
    space = make_space(unit_square_mesh(3))
    g = lambda p: np.zeros(np.atleast_2d(p).shape[0])
    assert np.all(interpolate_nodal(space, g) == 0.0)


def test_interpolate_reproduces_member_of_space():
    space = make_space(unit_square_mesh(4))
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(space.n_free)

    def g(p):
        return fem.evaluate(space, coeffs, p)

    again = interpolate_nodal(space, g)
    assert np.allclose(again, coeffs, atol=1e-14, rtol=0)


def test_interpolate_nonfinite_rejected():
    space = make_space(unit_square_mesh(3))

    def g(p):
        p = np.atleast_2d(p)
        out = np.ones(p.shape[0])
        out[p[:, 0] > 0.4] = np.nan
        return out

    with pytest.raises(FemError, match="non-finite"):
        interpolate_nodal(space, g)


def test_interpolation_h1_rate_one():
    errs, hs = [], []
    for n in (8, 16, 32):
        space = make_space(unit_square_mesh(n))
        gi = interpolate_nodal(space, u_star)
        errs.append(error_vs_exact(space, gi, u_star, grad_u_star, "H1"))
        hs.append(space.mesh.mesh_size_h)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 0.9 <= slope <= 1.1


# --------------------------------------------------------------------- norms


def test_norms_of_zero_vector():
    space = make_space(unit_square_mesh(3))
    z = np.zeros(space.n_free)
    for kind in ("L2", "H1"):
        assert norm(space, z, kind) == 0.0
    assert norm(space, z, "Lr", r=4) == 0.0
    assert norm(space, z, "W1r", r=4) == 0.0


def test_l2_norm_two_routes_agree():
    space = make_space(unit_square_mesh(5))
    rng = np.random.default_rng(3)
    u = rng.standard_normal(space.n_free)
    M = assemble_mass(space)
    K = assemble_stiffness(space)
    quadratic = math.sqrt(u @ (M @ u))
    by_quadrature = norm(space, u, "Lr", r=2)
    assert abs(norm(space, u, "L2") - quadratic) <= 1e-14 * max(1, quadratic)
    assert by_quadrature == pytest.approx(quadratic, rel=1e-13)
    h1 = math.sqrt(u @ (K @ u) + u @ (M @ u))
    assert abs(norm(space, u, "H1") - h1) <= 1e-14 * max(1, h1)


def test_w1r_at_two_equals_h1():
    space = make_space(unit_square_mesh(5))
    rng = np.random.default_rng(4)
    u = rng.standard_normal(space.n_free)
    assert abs(norm(space, u, "W1r", r=2) - norm(space, u, "H1")) <= 1e-12


def test_norm_r_range_validated():
    space = make_space(unit_square_mesh(2))
    u = np.zeros(space.n_free)
    for bad_r in (1.5, 6.5, 0.0):
        with pytest.raises(ValueError):
            norm(space, u, "Lr", r=bad_r)
    with pytest.raises(ValueError):
        norm(space, u, "bogus-kind")


def test_element_gradients_of_linear_interpolant():
    space = make_space(unit_square_mesh(4))
    # nodal values of g(x,y)=x(1-x) restricted to interior; gradient on the
    # two elements adjacent to the center must match the P1 derivative
    coeffs = interpolate_nodal(space, lambda p: np.atleast_2d(p)[:, 0])
    grads = element_gradients(space, coeffs)
    tri_all_interior = [
        t
        for t, tri in enumerate(np.asarray(space.mesh.triangles))
        if not np.asarray(space.mesh.boundary_vertex)[tri].any()
    ]
    assert tri_all_interior
    for t in tri_all_interior:
        assert np.allclose(grads[t], [1.0, 0.0], atol=1e-13)


# ------------------------------------------------------------ error measures


def test_error_of_exact_zero():
    space = make_space(unit_square_mesh(3))
    z = np.zeros(space.n_free)
    zero_field = lambda p: np.zeros(np.atleast_2d(p).shape[0])
    zero_grad = lambda p: np.zeros((np.atleast_2d(p).shape[0], 2))
    assert error_vs_exact(space, z, zero_field, zero_grad, "H1") == 0.0


def test_error_of_interpolated_member_is_tiny():
    space = make_space(unit_square_mesh(4))
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(space.n_free)

    def g(p):
        return fem.evaluate(space, coeffs, p)

    def dg(p):  # Du_h on the element holding each point
        return element_gradients(space, coeffs)[fem._locate(space, p)[0]]

    err = error_vs_exact(space, coeffs, g, dg, "H1")
    assert err <= 1e-12


def _full_array_error(space, u, kind, r):
    """The error norm from (nq, nt) arrays of all the rule's points at once."""
    bary, weights, points = fem.quad_points(space)
    X = np.stack(list(points))  # (nq, nt, 2)
    flat = X.reshape(-1, 2)
    corners = fem._corner_values(space, fem.extend_to_vertices(space, u))
    e = u_star(flat).reshape(X.shape[:2]) - bary @ corners
    diff = grad_u_star(flat).reshape(X.shape) - element_gradients(space, u)
    p = 2.0 if kind in ("L2", "H1") else r
    w = weights[:, None] * oracles.element_geometry(space.mesh)[0]
    total = (w * np.abs(e) ** p).sum()
    if kind in ("H1", "W1r"):
        total += (w * (diff * diff).sum(axis=2) ** (p / 2)).sum()
    return total ** (1 / p)


# transient bytes per element with these fields: 160 (gradient norms) and
# 128 (value norms) when one rule point's (nt,) rows live at a time, 240
# and 160 with (nq, nt) arrays of every rule point
_ERROR_PEAK = {"H1": 176, "W1r": 176, "L2": 136, "Lr": 136}


@pytest.mark.parametrize("kind, r", [("H1", None), ("L2", None), ("W1r", 4.0), ("Lr", 3.0)])
def test_error_norm_sums_one_rule_point_at_a_time(kind, r):
    space = make_space(unit_square_mesh(64))
    rng = np.random.default_rng(5)
    u = interpolate_nodal(space, u_star) + 1e-3 * rng.standard_normal(space.n_free)
    tracemalloc.start()
    try:
        got = error_vs_exact(space, u, u_star, grad_u_star, kind, r=r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = _full_array_error(space, u, kind, r)
    assert abs(got - ref) <= 1e-14 * ref
    assert peak <= _ERROR_PEAK[kind] * space.mesh.n_triangles


@pytest.mark.parametrize(
    "kinds", [("L2", "H1"), ("H1", "W1r"), ("L2", "Lr"), ("L2", "H1", "Lr", "W1r")]
)
def test_error_kinds_of_one_pass_stay_within_their_largest_bound(kinds):
    space = make_space(unit_square_mesh(64))
    rng = np.random.default_rng(5)
    u = interpolate_nodal(space, u_star) + 1e-3 * rng.standard_normal(space.n_free)
    tracemalloc.start()
    try:
        got = error_vs_exact(space, u, u_star, grad_u_star, kinds, r=4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == tuple(error_vs_exact(space, u, u_star, grad_u_star, k, r=4.0) for k in kinds)
    assert peak <= max(_ERROR_PEAK[k] for k in kinds) * space.mesh.n_triangles


@pytest.mark.parametrize(
    "kinds",
    list(itertools.permutations(("L2", "H1", "Lr", "W1r"), 2)) + [("W1r", "Lr", "H1", "L2")],
)
def test_error_kinds_tuple_is_bitwise_the_single_kind_calls(kinds):
    space = make_space(unit_square_mesh(8))
    rng = np.random.default_rng(3)
    u = interpolate_nodal(space, u_star) + 1e-2 * rng.standard_normal(space.n_free)
    got = error_vs_exact(space, u, u_star, grad_u_star, kinds, r=3.0)
    assert isinstance(got, tuple)
    assert got == tuple(error_vs_exact(space, u, u_star, grad_u_star, k, r=3.0) for k in kinds)


@pytest.mark.parametrize("kinds, grad_calls", [(("L2", "H1", "Lr", "W1r"), 6), (("L2", "Lr"), 0)])
def test_error_kinds_evaluate_each_field_once_per_rule_point(kinds, grad_calls):
    space = make_space(unit_square_mesh(4))
    calls = {"u": 0, "grad": 0}

    def counted(key, f):
        def g(X):
            calls[key] += 1
            return f(X)
        return g

    error_vs_exact(
        space, np.zeros(space.n_free), counted("u", u_star), counted("grad", grad_u_star),
        kinds, r=4.0,
    )
    assert calls == {"u": 6, "grad": grad_calls}


@pytest.mark.parametrize(
    "kinds, r, message",
    [(("L2", "bogus-kind"), None, "unknown norm kind"), (("H1", "Lr"), None, "requires the exponent r"),
     (("W1r", "L2"), 7.0, "must lie in")],
)
def test_error_kinds_checked_before_any_field_is_evaluated(kinds, r, message):
    space = make_space(unit_square_mesh(4))

    def never(X):
        raise AssertionError("a field was evaluated before the kinds were checked")

    with pytest.raises(ValueError, match=message):
        error_vs_exact(space, np.zeros(space.n_free), never, never, kinds, r=r)


def test_cea_constant_and_aubin_nitsche():
    h1_errs, l2_errs, interp_errs, hs = [], [], [], []
    for n in (8, 16, 32):
        space = make_space(unit_square_mesh(n))
        b = assemble_load(space, f_poisson)
        v = direct_solve(space, 0.0, b)
        h1_errs.append(error_vs_exact(space, v, u_star, grad_u_star, "H1"))
        l2_errs.append(error_vs_exact(space, v, u_star, grad_u_star, "L2"))
        gi = interpolate_nodal(space, u_star)
        interp_errs.append(error_vs_exact(space, gi, u_star, grad_u_star, "H1"))
        hs.append(space.mesh.mesh_size_h)
    # quasi-optimality with modest constant
    for eh, ei in zip(h1_errs, interp_errs):
        assert eh <= 5.0 * ei
    l2_slope = np.polyfit(np.log(hs), np.log(l2_errs), 1)[0]
    h1_slope = np.polyfit(np.log(hs), np.log(h1_errs), 1)[0]
    assert 1.8 <= l2_slope <= 2.2
    assert 0.9 <= h1_slope <= 1.1
