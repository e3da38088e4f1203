"""Hamiltonian models: values, Clarke selections, segment mean values.

Expected values come from hand-worked formulas (|z|, max of affine pieces,
Huber branches) and from an independent scipy.integrate.quad oracle for the
segment averages behind the secant identity.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nonsmooth_fem import fem, hamiltonian
from nonsmooth_fem.hamiltonian import (
    HamiltonianModel,
    builtin_model,
    eval_many,
    hp_many,
    hp_selection_many,
    mean_value_matrix,
    model_from_spec,
    selection_field,
    selection_many,
)
from nonsmooth_fem.mesh import unit_square_mesh


def rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------ builtin values


def test_zero_model_basics():
    m = builtin_model("zero")
    assert m.name == "zero"
    assert m.lipschitz_C_H == 0.0
    assert eval_many(m, np.array([3.0, -4.0]))[0] == 0.0
    assert np.array_equal(selection_many(m, np.array([1.0, 2.0]))[0], [0.0, 0.0])
    # smooth trivial model: gradient data present and identically zero
    assert np.array_equal(hp_many(m, np.array([1.0, 2.0]))[0], [0.0, 0.0])
    assert np.array_equal(
        hp_selection_many(m, np.array([1.0, 2.0]))[0], np.zeros((2, 2))
    )


def test_eikonal_values():
    m = builtin_model("eikonal")
    z = np.array([3.0, 4.0])
    assert eval_many(m, z)[0] == pytest.approx(5.0, abs=1e-15)
    assert np.allclose(selection_many(m, z)[0], [0.6, 0.8], atol=1e-15)
    assert m.lipschitz_C_H == 1.0


def test_eikonal_kink_tie_break_is_zero():
    m = builtin_model("eikonal")
    sel = selection_many(m, np.zeros(2))[0]
    assert np.array_equal(sel, [0.0, 0.0])


def test_eikonal_has_no_gradient_fields():
    m = builtin_model("eikonal")
    with pytest.raises(ValueError):
        hp_many(m, np.ones(2))
    assert m.hp_jacobian is None


def test_huber_inner_branch():
    m = builtin_model("huber", delta=1.0)
    z = np.array([0.3, 0.4])  # |z| = 0.5 < delta
    assert eval_many(m, z)[0] == pytest.approx(0.125, abs=1e-15)
    assert np.allclose(hp_many(m, z)[0], z, atol=1e-15)
    assert np.allclose(hp_selection_many(m, z)[0], np.eye(2), atol=1e-15)


def test_huber_outer_branch():
    m = builtin_model("huber", delta=1.0)
    z = np.array([3.0, 4.0])
    assert eval_many(m, z)[0] == pytest.approx(4.5, abs=1e-14)
    assert np.allclose(hp_many(m, z)[0], [0.6, 0.8], atol=1e-15)
    expected = (np.eye(2) - np.outer(z, z) / 25.0) / 5.0
    assert np.allclose(hp_selection_many(m, z)[0], expected, atol=1e-15)


def test_huber_at_origin():
    m = builtin_model("huber", delta=1.0)
    assert eval_many(m, np.zeros(2))[0] == 0.0
    assert np.array_equal(hp_many(m, np.zeros(2))[0], [0.0, 0.0])
    assert np.allclose(hp_selection_many(m, np.zeros(2))[0], np.eye(2))


def test_huber_sphere_tie_break_inner():
    m = builtin_model("huber", delta=1.0)
    z = np.array([0.6, 0.8])  # |z| = delta exactly
    assert np.allclose(hp_selection_many(m, z)[0], np.eye(2), atol=1e-15)
    # value and gradient continuous across the sphere
    assert eval_many(m, z)[0] == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(hp_many(m, z)[0], z, atol=1e-15)


def test_huber_lipschitz_constant():
    assert builtin_model("huber", delta=1.0).lipschitz_C_H == 1.0
    assert builtin_model("huber", delta=0.5).lipschitz_C_H == 2.0
    assert builtin_model("huber", delta=4.0).lipschitz_C_H == 1.0


def test_huber_invalid_delta():
    with pytest.raises(ValueError):
        builtin_model("huber", delta=0.0)
    with pytest.raises(ValueError):
        builtin_model("huber", delta=-1.0)


def test_max_affine_values():
    pieces = [((1.0, 2.0), 0.5), ((-1.0, 0.0), 0.0)]
    m = builtin_model("max_affine", pieces=pieces)
    z = np.array([1.0, 1.0])
    assert eval_many(m, z)[0] == pytest.approx(3.5, abs=1e-15)
    assert np.array_equal(selection_many(m, z)[0], [1.0, 2.0])
    assert m.lipschitz_C_H == pytest.approx(np.sqrt(5.0), rel=1e-15)


def test_max_affine_tie_break_lowest_index():
    pieces = [((1.0, 0.0), 0.0), ((-1.0, 0.0), 0.0)]
    m = builtin_model("max_affine", pieces=pieces)
    sel = selection_many(m, np.array([0.0, 7.0]))[0]
    assert np.array_equal(sel, [1.0, 0.0])


def test_max_affine_requires_pieces():
    with pytest.raises(ValueError):
        builtin_model("max_affine", pieces=[])
    with pytest.raises(ValueError):
        builtin_model("max_affine")


def test_unknown_builtin_name():
    with pytest.raises(ValueError, match="bogus"):
        builtin_model("bogus")


def test_model_from_spec_strings(tmp_path):
    assert model_from_spec("eikonal").name == "eikonal"
    assert model_from_spec("zero").name == "zero"
    hub = model_from_spec("huber:0.5")
    assert hub.name == "huber"
    assert hub.lipschitz_C_H == 2.0
    csv = tmp_path / "pieces.csv"
    csv.write_text("1.0,0.0,0.0\n-1.0,0.0,0.0\n")
    ma = model_from_spec(f"maxaffine:{csv}")
    assert ma.name == "max_affine"
    assert eval_many(ma, np.array([2.0, 0.0]))[0] == pytest.approx(2.0)
    with pytest.raises(ValueError, match="bogus"):
        model_from_spec("bogus")
    with pytest.raises(ValueError):
        model_from_spec("huber:-1")
    with pytest.raises(ValueError):
        model_from_spec("huber:abc")


def test_missing_maxaffine_file_named(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(ValueError, match=re.escape(repr(str(missing)))):
        model_from_spec(f"maxaffine:{missing}")


# -------------------------------------------------------------- batch helpers


def _pointwise_reference(name, kwargs):
    """Per-point closed forms (h, selection, hp, hp_jacobian) written out
    independently of the vectorized kernels; hp entries are None where the
    model has no gradient map."""
    if name == "zero":
        return (
            lambda z: 0.0,
            lambda z: np.zeros(2),
            lambda z: np.zeros(2),
            lambda z: np.zeros((2, 2)),
        )
    if name == "eikonal":

        def sel(z):
            s = float(np.abs(z).max())
            if s == 0.0:
                return np.zeros(2)
            w = z / s
            return w / float(np.hypot(w[0], w[1]))

        return lambda z: float(np.hypot(z[0], z[1])), sel, None, None
    if name == "huber":
        delta = kwargs["delta"]

        def h(z):
            r = float(np.hypot(z[0], z[1]))
            return r * r / (2 * delta) if r <= delta else r - delta / 2

        def hp(z):
            r = float(np.hypot(z[0], z[1]))
            return z / delta if r <= delta else z / r

        def hp_jac(z):
            r = float(np.hypot(z[0], z[1]))
            if r <= delta:
                return np.eye(2) / delta
            return (np.eye(2) - np.outer(z, z) / (r * r)) / r

        return h, hp, hp, hp_jac
    A = np.array([p[0] for p in kwargs["pieces"]], dtype=float)
    b = np.array([p[1] for p in kwargs["pieces"]], dtype=float)
    return (
        lambda z: float((A @ z + b).max()),
        lambda z: A[int(np.argmax(A @ z + b))],
        None,
        None,
    )


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("zero", {}),
        ("eikonal", {}),
        ("huber", {"delta": 0.7}),
        ("max_affine", {"pieces": [((1.0, 2.0), 0.5), ((-1.0, 0.5), 0.0), ((0.0, -1.0), 0.2)]}),
    ],
)
def test_batch_evaluators_match_pointwise(name, kwargs):
    m = builtin_model(name, **kwargs)
    h, sel, hp, hp_jac = _pointwise_reference(name, kwargs)
    g = rng(11)
    Z = g.uniform(-3, 3, size=(64, 2))
    Z[0] = 0.0  # the kink tie-breaks of eikonal and huber
    hv = eval_many(m, Z)
    sv = selection_many(m, Z)
    for k in range(64):
        assert hv[k] == pytest.approx(h(Z[k]), rel=1e-14, abs=1e-15)
        assert np.allclose(sv[k], sel(Z[k]), rtol=1e-14, atol=1e-15)
        # a one-row call gives the same row
        assert eval_many(m, Z[k : k + 1])[0] == hv[k]
        assert np.array_equal(selection_many(m, Z[k : k + 1])[0], sv[k])
    if hp is None:
        assert m.hp_jacobian is None
        return
    pv = hp_many(m, Z)
    jv = hp_selection_many(m, Z)
    for k in range(64):
        assert np.allclose(pv[k], hp(Z[k]), rtol=1e-14, atol=1e-15)
        assert np.allclose(jv[k], hp_jac(Z[k]), rtol=1e-14, atol=1e-15)
        assert np.array_equal(hp_many(m, Z[k : k + 1])[0], pv[k])
        assert np.array_equal(hp_selection_many(m, Z[k : k + 1])[0], jv[k])


# ----------------------------------------------- row maps against their old forms


def _old_eikonal_selection(Z):
    s = np.abs(Z).max(axis=1)
    safe = np.where(s > 0.0, s, 1.0)
    W = Z / safe[:, None]
    r = np.linalg.norm(W, axis=1)
    r = np.where(r > 0.0, r, 1.0)
    return np.where((s > 0.0)[:, None], W / r[:, None], 0.0)


def _old_huber_maps(Z, delta):
    """(h, hp, hp_jacobian) with np.linalg.norm and the Jacobian selection
    by masked assignment."""
    r = np.linalg.norm(Z, axis=1)
    h = np.where(r <= delta, r * r / (2 * delta), r - delta / 2)
    safe = np.where(r > 0.0, r, 1.0)
    hp = np.where((r <= delta)[:, None], Z / delta, Z / safe[:, None])
    jac = np.empty((len(Z), 2, 2))
    inner = r <= delta
    jac[inner] = np.eye(2) / delta
    zo, ro = Z[~inner], r[~inner]
    jac[~inner] = (
        np.eye(2)[None] - zo[:, :, None] * zo[:, None, :] / (ro * ro)[:, None, None]
    ) / ro[:, None, None]
    return h, hp, jac


def _kernel_rows(seed, n=20_000):
    """Random gradient rows over 200 decades with zeros, signed zeros,
    subnormals, axis rows and rows on the spheres |z| = 1, 1/4 and 10."""
    g = rng(seed)
    Z = g.standard_normal((n, 2)) * 10.0 ** g.uniform(-100, 100, (n, 1))
    Z[:12] = [[0.0, 0.0], [-0.0, 0.0], [5e-324, 0.0], [1e-320, 3e-320], [-1e-310, 2e-308],
              [0.6, 0.8], [3.0, 4.0], [0.0, -0.25], [6.0, -8.0], [0.25, 0.0], [1.0, 0.0],
              [0.0, 10.0]]
    Z[12:1000] = g.uniform(-2, 2, (988, 2))
    return Z


@pytest.mark.parametrize("seed", [0, 1])
def test_row_maps_are_bitwise_their_norm_and_masked_forms(seed):
    Z = _kernel_rows(seed)
    assert np.array_equal(hamiltonian._radius(Z), np.linalg.norm(Z, axis=1))
    eikonal = builtin_model("eikonal")
    assert np.array_equal(eval_many(eikonal, Z), np.linalg.norm(Z, axis=1))
    assert np.array_equal(selection_many(eikonal, Z), _old_eikonal_selection(Z))
    for delta in (1.0, 0.25, 10.0):
        model = builtin_model("huber", delta=delta)
        h, hp, jac = _old_huber_maps(Z, delta)
        assert np.array_equal(eval_many(model, Z), h)
        assert np.array_equal(hp_many(model, Z), hp)
        assert np.array_equal(hp_selection_many(model, Z), jac)


def test_eikonal_selection_is_unit_on_subnormal_rows():
    sel = selection_many(builtin_model("eikonal"), [[5e-324, 0.0], [1e-320, 3e-320], [0.0, 0.0]])
    assert np.array_equal(sel[0], [1.0, 0.0])
    assert abs(np.hypot(*sel[1]) - 1.0) <= 1e-15 and (sel[1] > 0.0).all()
    assert np.array_equal(sel[2], [0.0, 0.0])


@pytest.mark.parametrize("delta", [0.25, 1.0, 5.0])
def test_huber_jacobian_tie_takes_the_inner_branch_exactly(delta):
    model = builtin_model("huber", delta=delta)
    # |z| == delta in floating point on each row; the last row sits one ulp out
    Z = np.array([[delta, 0.0], [0.0, -delta], [0.6 * delta, 0.8 * delta],
                  [np.nextafter(delta, np.inf), 0.0]])
    r = np.linalg.norm(Z, axis=1)
    assert (r[:3] == delta).all() and r[3] > delta
    jac = hp_selection_many(model, Z)
    assert np.array_equal(jac[:3], np.broadcast_to(np.eye(2) / delta, (3, 2, 2)))
    outer = (np.eye(2) - np.outer(Z[3], Z[3]) / (r[3] * r[3])) / r[3]
    assert np.array_equal(jac[3], outer)


# ----------------------------------------------------------- Lipschitz bounds


def all_models():
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


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}-{m.lipschitz_C_H:g}")
def test_value_lipschitz_bound(model):
    g = rng(23)
    Z1 = g.uniform(-5, 5, size=(10_000, 2))
    Z2 = g.uniform(-5, 5, size=(10_000, 2))
    d = np.linalg.norm(Z1 - Z2, axis=1)
    gap = np.abs(eval_many(model, Z1) - eval_many(model, Z2))
    assert (gap <= model.lipschitz_C_H * d * (1 + 1e-12) + 1e-15).all()


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}-{m.lipschitz_C_H:g}")
def test_selection_norm_bound(model):
    g = rng(29)
    Z = g.uniform(-5, 5, size=(10_000, 2))
    Z[:100] = 0.0  # hit the kinks too
    norms = np.linalg.norm(selection_many(model, Z), axis=1)
    assert (norms <= model.lipschitz_C_H + 1e-12).all()


def test_huber_hp_bounds():
    for delta in (0.3, 1.0, 2.5):
        m = builtin_model("huber", delta=delta)
        g = rng(31)
        P = g.uniform(-4, 4, size=(10_000, 2))
        Q = g.uniform(-4, 4, size=(10_000, 2))
        hp_p = hp_many(m, P)
        hp_q = hp_many(m, Q)
        assert (np.linalg.norm(hp_p, axis=1) <= 1.0 + 1e-12).all()
        lhs = np.linalg.norm(hp_p - hp_q, axis=1)
        rhs = np.linalg.norm(P - Q, axis=1) / delta
        assert (lhs <= rhs * (1 + 1e-10) + 1e-14).all()


# ------------------------------------------------- gradient consistency by FD


def _fd_gradient(model, Z, eps=1e-5):
    g = np.empty_like(Z)
    for k, e in enumerate(np.eye(2)):
        up = eval_many(model, Z + eps * e)
        dn = eval_many(model, Z - eps * e)
        g[:, k] = (up - dn) / (2 * eps)
    return g


def _away_from_kinks(model, Z):
    if model.name == "eikonal":
        return np.linalg.norm(Z, axis=1) > 1e-3
    if model.name == "huber":
        r = np.linalg.norm(Z, axis=1)
        return np.abs(r - model.params["delta"]) > 1e-3
    if model.name == "max_affine":
        a = np.array([p[0] for p in model.params["pieces"]])
        b = np.array([p[1] for p in model.params["pieces"]])
        vals = Z @ a.T + b
        vals.sort(axis=1)
        if vals.shape[1] == 1:
            return np.ones(len(Z), bool)
        return vals[:, -1] - vals[:, -2] > 1e-3
    return np.ones(len(Z), bool)


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}-{m.lipschitz_C_H:g}")
def test_selection_matches_fd_gradient_off_kinks(model):
    g = rng(37)
    Z = g.uniform(-3, 3, size=(10_000, 2))
    Z = Z[_away_from_kinks(model, Z)]
    assert len(Z) > 8_000
    sel = selection_many(model, Z)
    fd = _fd_gradient(model, Z)
    scale = 1.0 + np.linalg.norm(sel, axis=1)
    err = np.linalg.norm(sel - fd, axis=1)
    assert (err <= 1e-6 * scale).all()


# ----------------------------------------------------------- mean value oracle


def _segment_mean_quad(model, z1, z2):
    """Independent oracle: componentwise adaptive quadrature of the Clarke
    selection along t -> z2 + t (z1 - z2), splitting at candidate kinks."""
    d = z1 - z2
    pts = set()
    a = float(d @ d)
    b = float(z2 @ d)
    if model.name in ("eikonal", "huber"):
        # closest approach to the origin
        t0 = -b / a
        if 0 < t0 < 1:
            pts.add(t0)
        if model.name == "huber":
            delta = model.params["delta"]
            c = float(z2 @ z2) - delta**2
            disc = b * b - a * c
            if disc > 0:
                for t in ((-b - np.sqrt(disc)) / a, (-b + np.sqrt(disc)) / a):
                    if 0 < t < 1:
                        pts.add(float(t))
    if model.name == "max_affine":
        pieces = model.params["pieces"]
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                da = np.asarray(pieces[i][0]) - np.asarray(pieces[j][0])
                db = pieces[i][1] - pieces[j][1]
                den = float(da @ d)
                if den != 0.0:
                    t = -(float(da @ z2) + db) / den
                    if 0 < t < 1:
                        pts.add(float(t))
    pts = sorted(pts)
    mean = np.zeros(2)
    for k in range(2):
        val, _ = quad(
            lambda t: selection_many(model, z2 + t * d)[0][k],
            0.0,
            1.0,
            points=pts or None,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-13,
        )
        mean[k] = val
    return mean


def _with_secant_correction(model, z1, z2, mean):
    d = z1 - z2
    dh = eval_many(model, z1)[0] - eval_many(model, z2)[0]
    return mean + ((dh - mean @ d) / (d @ d)) * d


def test_mean_value_equal_arguments():
    m = builtin_model("eikonal")
    z = np.array([0.5, -0.25])
    assert np.array_equal(mean_value_matrix(m, z, z), selection_many(m, z)[0])


def test_mean_value_zero_model():
    m = builtin_model("zero")
    A = mean_value_matrix(m, np.array([1.0, 2.0]), np.array([-3.0, 0.5]))
    assert np.array_equal(A, [0.0, 0.0])


def test_mean_value_eikonal_through_origin():
    m = builtin_model("eikonal")
    A = mean_value_matrix(m, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert np.abs(A).max() <= 1e-14


def test_mean_value_max_affine_symmetric():
    pieces = [((1.0, 0.0), 0.0), ((-1.0, 0.0), 0.0)]
    m = builtin_model("max_affine", pieces=pieces)
    A = mean_value_matrix(m, np.array([2.0, 0.0]), np.array([-2.0, 0.0]))
    assert np.abs(A).max() <= 1e-14
    assert np.linalg.norm(A) <= 1.0 + 1e-12


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}-{m.lipschitz_C_H:g}")
def test_mean_value_matches_quad_oracle(model):
    g = rng(41)
    for _ in range(25):
        z1 = g.uniform(-2, 2, size=2)
        z2 = g.uniform(-2, 2, size=2)
        if np.linalg.norm(z1 - z2) < 1e-6:
            continue
        A = mean_value_matrix(model, z1, z2)
        mean = _segment_mean_quad(model, z1, z2)
        A_oracle = _with_secant_correction(model, z1, z2, mean)
        assert np.linalg.norm(A - A_oracle) <= 1e-9


def _random_pairs(g, n):
    Z1 = g.uniform(-3, 3, size=(n, 2))
    Z2 = g.uniform(-3, 3, size=(n, 2))
    # sprinkle in near-kink geometry: short segments, near-origin crossings
    k = n // 10
    Z2[:k] = -Z1[:k] + g.normal(0, 1e-8, size=(k, 2))
    Z1[k : 2 * k] *= 1e-3
    Z2[k : 2 * k] *= 1e-3
    Z1[2 * k : 3 * k] *= 10.0
    return Z1, Z2


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}-{m.lipschitz_C_H:g}")
def test_mean_value_secant_identity_random(model):
    g = rng(43)
    n = 2_000
    Z1, Z2 = _random_pairs(g, n)
    for k in range(n):
        if np.array_equal(Z1[k], Z2[k]):
            continue
        A = mean_value_matrix(model, Z1[k], Z2[k])
        h1 = eval_many(model, Z1[k])[0]
        h2 = eval_many(model, Z2[k])[0]
        gap = abs(A @ (Z1[k] - Z2[k]) - (h1 - h2))
        assert gap <= 1e-10 * (1 + abs(h1) + abs(h2))
        assert np.linalg.norm(A) <= model.lipschitz_C_H + 1e-12


def test_mean_value_subnormal_arguments_stay_in_ball():
    # tiny = smallest subnormal: hypot rounds (tiny, tiny) down to one ulp,
    # so a naive z/|z| returns (1, 1) with norm sqrt(2)
    tiny = np.nextafter(0.0, 1.0)
    m = builtin_model("eikonal")
    z = np.array([tiny, tiny])
    sel = selection_many(m, z)[0]
    assert np.linalg.norm(sel) <= 1.0 + 1e-15
    assert np.allclose(sel, np.sqrt(0.5), atol=1e-15)
    A = mean_value_matrix(m, z, z)
    assert np.linalg.norm(A) <= 1.0 + 1e-15
    # subnormal separation: the increment itself dissolves into rounding,
    # and the ball bound must survive the secant correction
    pairs = [
        (np.array([2 * tiny, tiny]), np.array([tiny, 2 * tiny])),
        (np.array([2 * tiny, 2 * tiny]), np.array([3 * tiny, tiny])),
        (z, np.zeros(2)),
    ]
    for z1, z2 in pairs:
        A = mean_value_matrix(m, z1, z2)
        assert np.linalg.norm(A) <= 1.0 + 1e-15


def test_mean_value_adjacent_floats_stay_in_ball():
    # |z1 - z2| of one ulp at normal scale: the correction divides value
    # roundoff by that ulp, so only the ball projection keeps the bound
    for model in all_models():
        z1 = np.array([10.0, 3.0])
        z2 = np.array([np.nextafter(10.0, 0.0), 3.0])
        A = mean_value_matrix(model, z1, z2)
        assert np.linalg.norm(A) <= model.lipschitz_C_H + 1e-12


def test_mean_value_custom_model_fallback():
    # smooth non-builtin: H = |z|^2 / 2, selection = z; mean over the segment
    # is the midpoint, which the model passes as its own segment_mean, and
    # the secant identity is exact for quadratics
    m = HamiltonianModel(
        name="quadratic",
        lipschitz_C_H=100.0,
        h=lambda Z: 0.5 * (Z * Z).sum(axis=1),
        selection=lambda Z: Z.copy(),
        segment_mean=lambda p, d: (p[0] + d[0] / 2, p[1] + d[1] / 2),
    )
    z1 = np.array([1.0, 2.0])
    z2 = np.array([-0.5, 0.25])
    A = mean_value_matrix(m, z1, z2)
    assert np.allclose(A, (z1 + z2) / 2, atol=1e-11)


def test_mean_value_without_segment_mean_names_the_model():
    m = HamiltonianModel(
        name="no-mean",
        lipschitz_C_H=1.0,
        h=lambda Z: np.linalg.norm(Z, axis=1),
        selection=lambda Z: pytest.fail("no map may run before the check"),
    )
    for z1, z2 in [([1.0, 2.0], [-0.5, 0.25]), ([1.0, 2.0], [1.0, 2.0])]:
        with pytest.raises(ValueError, match="'no-mean' has no segment_mean"):
            mean_value_matrix(m, np.array(z1), np.array(z2))


@pytest.mark.parametrize("model", all_models(), ids=lambda m: f"{m.name}-{m.lipschitz_C_H:g}")
def test_mean_value_of_renamed_builtin_is_bitwise_the_builtin(model):
    # the name is a label: the model's own segment_mean integrates it
    renamed = dataclasses.replace(model, name="renamed")
    g = rng(53)
    Z1, Z2 = _random_pairs(g, 300)
    Z2[-30:] = -Z1[-30:] * g.uniform(0.1, 10.0, size=(30, 1))  # through the origin
    for z1, z2 in zip(Z1, Z2):
        assert np.array_equal(
            mean_value_matrix(renamed, z1, z2), mean_value_matrix(model, z1, z2)
        )


# -------------------------------------------------------------- element fields


def test_selection_field_zero_coefficients():
    space = fem.make_space(unit_square_mesh(4))
    model = builtin_model("eikonal")
    xi = selection_field(model, space, np.zeros(space.n_free))
    assert xi.shape == (space.mesh.n_triangles, 2)
    assert np.array_equal(xi, np.zeros_like(xi))


def test_selection_field_linear_interpolant():
    space = fem.make_space(unit_square_mesh(4))
    model = builtin_model("eikonal")
    u = fem.interpolate_nodal(space, lambda p: p[..., 0])
    xi = selection_field(model, space, u)
    interior = (space.elem_dofs >= 0).all(axis=1)
    assert interior.any()
    assert np.allclose(xi[interior], [1.0, 0.0], atol=1e-14)


def test_selection_field_bound_random():
    space = fem.make_space(unit_square_mesh(4))
    g = rng(47)
    u = g.normal(size=space.n_free)
    for model in all_models():
        xi = selection_field(model, space, u)
        assert (np.linalg.norm(xi, axis=1) <= model.lipschitz_C_H + 1e-12).all()


# ------------------------------------------------------- property-based checks


coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(coord, coord, coord, coord)
def test_property_secant_identity_eikonal(a, b, c, d):
    m = builtin_model("eikonal")
    z1 = np.array([a, b])
    z2 = np.array([c, d])
    A = mean_value_matrix(m, z1, z2)
    assert np.linalg.norm(A) <= 1.0 + 1e-12
    if not np.array_equal(z1, z2):
        h1, h2 = eval_many(m, z1)[0], eval_many(m, z2)[0]
        assert abs(A @ (z1 - z2) - (h1 - h2)) <= 1e-10 * (1 + abs(h1) + abs(h2))


@settings(deadline=None, max_examples=200)
@given(coord, coord, st.floats(min_value=0.05, max_value=5.0, allow_nan=False))
def test_property_huber_selection_bound(a, b, delta):
    m = builtin_model("huber", delta=delta)
    z = np.array([a, b])
    sel = selection_many(m, z)[0]
    assert np.linalg.norm(sel) <= 1.0 + 1e-12
    xi = hp_selection_many(m, z)[0]
    assert np.linalg.norm(xi, 2) <= 1.0 / delta + 1e-10
