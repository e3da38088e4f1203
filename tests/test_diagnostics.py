"""Diagnostics tests: rate fits, singular values, the state-space Gram
matrix, the perturbation inequality, and selection-sampling stability scans.

Oracles: dense SVD for singular values, closed-form equality cases, and
structural identities (orthogonal invariance, exact decoupled constants).
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import oracles
from nonsmooth_fem import diagnostics as dg
from nonsmooth_fem import fem, hamiltonian as hm, manufactured as man
from nonsmooth_fem import mesh, mfg_solver as mfg


def space_of(n):
    return fem.make_space(mesh.unit_square_mesh(n))


# ------------------------------------------------------------------- fit_rate


def test_fit_rate_linear_exact():
    hs = [0.5, 0.25, 0.125, 0.0625]
    fit = dg.fit_rate(hs, hs)
    assert abs(fit.slope - 1.0) <= 1e-12
    assert abs(fit.r_squared - 1.0) <= 1e-12


def test_fit_rate_quadratic_exact():
    hs = np.array([0.5, 0.25, 0.125])
    fit = dg.fit_rate(hs, hs**2)
    assert abs(fit.slope - 2.0) <= 1e-12


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        dg.fit_rate([0.5, 0.25], [1.0, 2.0])
    with pytest.raises(ValueError):
        dg.fit_rate([0.5, 0.25, 0.125], [1.0, -2.0, 1.0])
    with pytest.raises(ValueError):
        dg.fit_rate([0.5, 0.25, 0.0], [1.0, 2.0, 3.0])


# ------------------------------------------------------------- banach_constant


def test_banach_identity_is_one():
    assert dg.banach_constant(np.eye(7)) == pytest.approx(1.0, abs=1e-14)


def test_banach_inverse_norm_identity_grams():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    expected = 1.0 / np.linalg.norm(np.linalg.inv(A), ord=2)
    assert abs(dg.banach_constant(A) - expected) <= 1e-12


def test_banach_matches_dense_svd():
    rng = np.random.default_rng(1)
    for _ in range(50):
        A = rng.normal(size=(5, 5))
        assert abs(dg.banach_constant(A) - np.linalg.svd(A, compute_uv=False)[-1]) <= 1e-12


def test_banach_rectangular_full_column_rank():
    rng = np.random.default_rng(2)
    A = rng.normal(size=(9, 4))
    assert abs(dg.banach_constant(A) - np.linalg.svd(A, compute_uv=False)[-1]) <= 1e-12


def test_banach_rank_deficient_is_zero():
    A = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 5.0))
    assert dg.banach_constant(A) <= 1e-12


def test_banach_bounded_by_operator_norm():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        A = rng.normal(size=(6, 6))
        assert dg.banach_constant(A) <= dg.operator_norm(A) + 1e-12


def test_banach_orthogonal_conjugation_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        A = rng.normal(size=(8, 8))
        Q1, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        Q2, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        assert abs(dg.banach_constant(Q1 @ A @ Q2) - dg.banach_constant(A)) <= 1e-10


# ----------------------------------------------------------- state_space_grams


@pytest.mark.parametrize("n", [2, 3, 8])
def test_state_space_grams_is_the_spd_h1_l2_block(n):
    # the scan relies on G being SPD by construction and checks it nowhere
    space = space_of(n)
    G = dg.state_space_grams(space)
    assert G.format == "csc"
    ref = sp.block_diag([fem.operator(space, 1.0), fem.assemble_mass(space)]).toarray()
    Gd = G.toarray()
    assert np.array_equal(Gd, ref)
    assert np.array_equal(Gd, Gd.T)
    scipy.linalg.cholesky(Gd, lower=True)  # raises LinAlgError unless SPD


def test_sparse_grams_and_constants_never_densify(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("densified a sparse matrix")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix, sp.dia_matrix,
                sp.csr_array, sp.csc_array, sp.coo_array, sp.dia_array):
        monkeypatch.setattr(cls, "toarray", refuse)
        monkeypatch.setattr(cls, "todense", refuse)
    G = dg.state_space_grams(space_of(64))
    assert abs(dg.preconditioned_constant(G, G) - 1.0) <= 1e-10


# --------------------------------------------------------- perturbation_check


def test_perturbation_zero_has_exactly_zero_slack():
    rng = np.random.default_rng(8)
    T = rng.normal(size=(6, 6))
    holds, slack = dg.perturbation_check(T, np.zeros((6, 6)))
    assert holds
    assert slack == 0.0


def test_perturbation_equality_case():
    T = np.eye(5)
    S = -0.3 * np.eye(5)
    holds, slack = dg.perturbation_check(T, S)
    assert holds
    c2 = dg.banach_constant(T + S)
    assert abs(c2 - 0.7) <= 1e-14
    assert abs(slack) <= 1e-14


def test_perturbation_random_pairs_all_hold():
    rng = np.random.default_rng(9)
    for _ in range(200):
        T = rng.normal(size=(8, 8))
        S = rng.normal(size=(8, 8))
        holds, _ = dg.perturbation_check(T, S)
        assert holds


# ---------------------------------------------------- preconditioned constant


def test_preconditioned_constant_is_one_for_gram_itself():
    space = space_of(8)
    G = dg.state_space_grams(space)
    assert abs(dg.preconditioned_constant(G, G) - 1.0) <= 1e-10


def test_preconditioned_dense_and_sparse_paths_agree():
    space = space_of(16)
    model = hm.builtin_model("huber", delta=1.0)
    problem = mfg.make_mfg_problem(space, model, mfg.local_linear(1.0), 1.0, man.bump)
    state = mfg.mfg_newton(problem, tol=1e-9).final_state
    J = mfg.mfg_jacobian(problem, state)
    G = dg.state_space_grams(space)
    dense_val = oracles.dense_constant(J, G)
    sparse_val = dg.preconditioned_constant(J, G)
    assert abs(dense_val - sparse_val) <= 1e-10


def test_preconditioned_singular_returns_zero():
    space = space_of(4)
    G = dg.state_space_grams(space)
    n = G.shape[0]
    J = sp.csr_matrix((n, n))
    assert dg.preconditioned_constant(J, G) <= 1e-12


def kinked_case(n):
    """Manufactured sinsin with huber:1: the state crosses |Du| = delta."""
    model = hm.builtin_model("huber", delta=1.0)
    coup = mfg.local_linear(1.0)
    g_hjb, g_fp = man.mfg_sources(model, coup, 1.0)
    problem = mfg.make_mfg_problem(
        space_of(n), model, coup, 1.0, man.m_star, g_hjb=g_hjb, g_fp=g_fp
    )
    return problem, mfg.mfg_newton(problem, tol=1e-9).final_state


@pytest.fixture(scope="module")
def kinked_24():
    return kinked_case(24)


def test_sparse_path_and_scan_match_dense_on_kinked_state(kinked_24):
    # the two lowest modes of this state are 6.2e-9 apart; a start vector
    # that shares the symmetry of the mesh and the state sees only one, and
    # a loose Lanczos tolerance stops between them
    problem, state = kinked_24
    G = dg.state_space_grams(problem.space)
    samples, _ = dg._selection_samples(problem, state, 3)
    Js = [mfg.mfg_jacobian(problem, state)]
    Js += [mfg.mfg_jacobian(problem, state, xi=xi) for xi in samples]
    sparse_vals = [dg.preconditioned_constant(J, G) for J in Js]
    scan = dg.stability_scan([(problem, state)], n_selection_samples=3)
    dense_vals = [oracles.dense_constant(J, G) for J in Js]
    for got, ref in zip(sparse_vals + scan.smin[0], dense_vals + dense_vals[1:]):
        assert abs(got - ref) <= 1e-10


def test_warm_started_scan_matches_cold_solves(kinked_24):
    problem, state = kinked_24
    report = dg.stability_scan([kinked_24], n_selection_samples=3)
    G = dg.state_space_grams(problem.space)
    samples, _ = dg._selection_samples(problem, state, 3)
    cold = [
        dg.preconditioned_constant(mfg.mfg_jacobian(problem, state, xi=xi), G)
        for xi in samples
    ]
    for warm, ref in zip(report.smin[0], cold):
        assert abs(warm - ref) <= 1e-9 * ref


def test_two_level_kinked_scan_warm_starts_across_levels(kinked_24, monkeypatch):
    # 24 and 32 are meshes that are not nested
    cases = [kinked_24, kinked_case(32)]
    constant = dg.preconditioned_constant
    entry, done = [], []

    def recording(J, G, start=None):
        entry.append(start.copy())
        value = constant(J, G, start)
        done.append(start.copy())
        return value

    monkeypatch.setattr(dg, "preconditioned_constant", recording)
    report = dg.stability_scan(cases, n_selection_samples=3)
    assert len(entry) == 6
    # the first solve at n = 32 starts from n = 24's last eigenvector, its u
    # and m blocks each interpolated onto the new free dofs
    coarse, fine = cases[0][0].space, cases[1][0].space
    pts = fine.mesh.vertices[fine.free_dofs]
    transferred = [fem.evaluate(coarse, block, pts) for block in np.split(done[2], 2)]
    assert np.array_equal(entry[3], np.concatenate(transferred))
    for (problem, state), vals in zip(cases, report.smin):
        G = dg.state_space_grams(problem.space)
        samples, _ = dg._selection_samples(problem, state, 3)
        for warm, xi in zip(vals, samples):
            ref = constant(mfg.mfg_jacobian(problem, state, xi=xi), G)
            assert abs(warm - ref) <= 1e-9 * ref


def test_scan_on_tiny_meshes_matches_dense_oracle():
    # 2, 8 and 18 unknowns: each solve exhausts its Krylov space before the
    # basis fills, and that counts as exact convergence
    cases = [kinked_case(n) for n in (2, 3, 4)]
    report = dg.stability_scan(cases, n_selection_samples=3)
    for (problem, state), vals in zip(cases, report.smin):
        G = dg.state_space_grams(problem.space)
        assert G.shape[0] == 2 * (problem.space.mesh.n - 1) ** 2
        samples, _ = dg._selection_samples(problem, state, 3)
        for got, xi in zip(vals, samples):
            ref = oracles.dense_constant(mfg.mfg_jacobian(problem, state, xi=xi), G)
            assert abs(got - ref) <= 1e-12


# ------------------------------------------------------------- stability scan


def huber_problem(space, coupling, m0=man.bump, **kw):
    return mfg.make_mfg_problem(
        space, hm.builtin_model("huber", delta=1.0), coupling, 1.0, m0, **kw
    )


@pytest.mark.parametrize("c", [2.5, -5.0])
def test_lifted_nonlocal_constant_matches_reduced_jacobian(c, reduced_jacobian):
    # the leading block of the lifted inverse is the reduced inverse, in the
    # dense oracle (Schur complement) and in the Lanczos solve (padded solves)
    problem = huber_problem(space_of(12), mfg.nonlocal_linear(c))
    rng = np.random.default_rng(7)
    n = problem.space.n_free
    state = mfg.MfgState(u=0.1 * rng.normal(size=n), m=0.5 + 0.1 * rng.normal(size=n))
    G = dg.state_space_grams(problem.space)
    J = mfg.mfg_jacobian(problem, state)
    assert J.shape[0] > G.shape[0]
    ref = oracles.dense_constant(reduced_jacobian(problem, state), G)
    dense_val = oracles.dense_constant(J, G)
    sparse_val = dg.preconditioned_constant(J, G)
    assert abs(dense_val - ref) <= 1e-10
    assert abs(sparse_val - ref) <= 1e-10


def test_nonlocal_scan_above_cutoff_never_forms_S_E(monkeypatch):
    problem = huber_problem(space_of(24), mfg.nonlocal_linear(1.0))
    state = mfg.mfg_newton(problem, tol=1e-9).final_state
    apply = mfg._Smoother.apply

    def vectors_only(self, nodal):
        assert np.ndim(nodal) == 1, "the smoother was applied to a block of columns"
        return apply(self, nodal)

    monkeypatch.setattr(mfg._Smoother, "apply", vectors_only)
    G = dg.state_space_grams(problem.space)
    scan = dg.stability_scan([(problem, state)], n_selection_samples=2)
    dense_val = oracles.dense_constant(mfg.mfg_jacobian(problem, state), G)
    for got in scan.smin[0]:
        assert abs(got - dense_val) <= 1e-10


@pytest.fixture(scope="module")
def monotone_family():
    cases = []
    for n in (8, 16, 32):
        problem = huber_problem(space_of(n), mfg.local_linear(1.0))
        report = mfg.mfg_newton(problem, tol=1e-9)
        assert report.converged
        cases.append((problem, report.final_state))
    return cases


def test_scan_decoupled_equals_direct_constant():
    space = space_of(8)
    problem = mfg.make_mfg_problem(
        space, hm.builtin_model("zero"), mfg.zero_coupling(), 1.0, man.bump
    )
    state = mfg.mfg_newton(problem, tol=1e-10).final_state
    report = dg.stability_scan([(problem, state)], n_selection_samples=5)
    K = fem.assemble_stiffness(space)
    M = fem.assemble_mass(space)
    A = (K + 1.0 * M).tocsr()
    direct = dg.preconditioned_constant(
        sp.block_diag([A, A]).tocsc(), dg.state_space_grams(space)
    )
    assert len(report.smin[0]) == 5
    assert abs(report.min_per_level[0] - direct) <= 1e-12
    # at lambda = 1 the value block is measured against its own gram: exactly 1
    assert abs(report.min_per_level[0] - 1.0) <= 1e-9
    assert report.ratio_max_min == pytest.approx(1.0)


def test_scan_family_is_h_uniform(monotone_family):
    report = dg.stability_scan(monotone_family, n_selection_samples=3)
    assert all(v > 0 for vals in report.smin for v in vals)
    assert report.hs[0] > report.hs[-1]
    assert report.ratio_max_min <= 10.0


def test_scan_takes_a_tuple_of_pairs_as_a_list(monotone_family):
    # a tuple of two (problem, state) pairs is two levels, not one pair
    cases = monotone_family[:2]
    as_list = dg.stability_scan(list(cases), 1)
    as_tuple = dg.stability_scan(tuple(cases), 1)
    assert len(as_tuple.hs) == 2
    assert dataclasses.asdict(as_tuple) == dataclasses.asdict(as_list)


@pytest.mark.parametrize("cases", [[], ()], ids=["list", "tuple"])
def test_scan_rejects_an_empty_case_list_first(cases):
    # the empty case list is named before the sample count is read
    with pytest.raises(ValueError, match=r"at least one \(problem, state\) case, got none"):
        dg.stability_scan(cases, 0)


def test_scan_samples_kink_selections():
    report = dg.stability_scan([kinked_case(16)], n_selection_samples=6)
    assert report.meta["kink_elements"][0] > 0
    vals = report.smin[0]
    assert min(vals) > 0
    assert max(vals) - min(vals) < 1e-6


def test_selection_samples_interpolate_between_branches():
    # u with |Du| = delta on every element: all elements sit on the kink,
    # endpoints are the inner branch I/delta and the outer projector branch
    space = space_of(4)
    problem = huber_problem(space, mfg.local_linear(1.0))
    u = fem.interpolate_nodal(space, lambda X: X[:, 0])
    state = mfg.MfgState(u=u, m=np.array(problem.m0))
    samples, n_kink = dg._selection_samples(problem, state, 3)
    Du = fem.element_gradients(space, u)
    radius = np.hypot(Du[:, 0], Du[:, 1])
    in_band = np.abs(radius - 1.0) <= 0.1
    assert n_kink == int(in_band.sum()) > 0
    # elements the boundary does not clip carry Du = (1, 0) exactly
    exact = np.where((np.abs(Du[:, 0] - 1.0) <= 1e-12) & (np.abs(Du[:, 1]) <= 1e-12))[0]
    assert len(exact) > 0
    inner = np.eye(2)
    outer = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert np.allclose(samples[0][exact], inner[None, :, :], atol=1e-6)
    assert np.allclose(samples[2][exact], outer[None, :, :], atol=1e-6)
    assert np.allclose(samples[1][exact], 0.5 * (inner + outer)[None, :, :], atol=1e-6)
    # off-band elements keep the deterministic selection in every sample
    off = np.where(~in_band)[0]
    if len(off):
        assert np.array_equal(samples[0][off], samples[2][off])


def test_scan_min_collapses_with_antimonotone_strength():
    space = space_of(16)
    mins = []
    for c in (1.0, 5.0, 25.0):
        problem = huber_problem(space, mfg.local_linear(-c))
        report = mfg.mfg_picard(problem, tol=1e-9, max_iter=100, theta_p=0.5)
        assert report.converged
        scan = dg.stability_scan([(problem, report.final_state)], n_selection_samples=3)
        mins.append(scan.min_per_level[0])
    assert mins[0] >= mins[1] >= mins[2]
    assert mins[2] < mins[0]


def test_scan_validates_sample_count(monotone_family):
    with pytest.raises(ValueError):
        dg.stability_scan([monotone_family[0]], n_selection_samples=0)


def test_scan_singular_level_gives_infinite_ratio(monkeypatch, monotone_family):
    # preconditioned_constant returns 0.0 for a singular J, which is what the
    # scan exists to detect: the spread is then infinite, not a crash
    singular = 2 * monotone_family[1][0].space.n_free

    def constant(J, G, start=None):
        return 0.0 if G.shape[0] == singular else 1.0

    monkeypatch.setattr(dg, "preconditioned_constant", constant)
    report = dg.stability_scan(monotone_family, n_selection_samples=1)
    assert report.min_per_level == [1.0, 0.0, 1.0]
    assert report.ratio_max_min == np.inf


def test_lanczos_nonconvergence_is_a_named_error(monkeypatch, kinked_24):
    # a budget of one application stops the solve at its first Rayleigh-Ritz
    problem, state = kinked_24
    G = dg.state_space_grams(problem.space)
    monkeypatch.setattr(dg, "_EIG_BUDGET", 1)
    with pytest.raises(fem.NonconvergenceError, match=f"size {G.shape[0]}: .*No convergence"):
        dg.preconditioned_constant(mfg.mfg_jacobian(problem, state), G)
    level = rf"h={problem.space.mesh.mesh_size_h:.6g} \({G.shape[0]} dofs\)"
    with pytest.raises(fem.NonconvergenceError, match=level + ", selection sample 0: Lanczos"):
        dg.stability_scan([kinked_24], n_selection_samples=1)
