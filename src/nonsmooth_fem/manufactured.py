"""Closed-form reference solutions with compensating sources.

The reference profile is u*(x, y) = sin(pi x) sin(pi y): it vanishes on the
boundary of the unit square, and its Laplacian, gradient, and Hessian are
elementary. Sources are built so that u* (or the pair u* = m*) solves the
continuous problem exactly; discretization error is then measured against
these fields directly. The gradient, the Hessian and the sources come from
one jet per call (_jet), which takes sin and cos of pi x and pi y from one
tangent of the half angles (_sin_cos); its u* is bitwise u_star.
"""

from __future__ import annotations

import numpy as np

from . import hamiltonian as hm

_PI = np.pi


def _pts(X):
    return np.atleast_2d(np.asarray(X, dtype=float))


def _sin_cos(X):
    """(sin(pi X), cos(pi X)) for an array X, from one tangent of the half
    angle, t = tan(pi X / 2): with q = 2 / (1 + t^2), sin = t q and
    cos = q - 1. Within 4.5e-16 of np.sin and np.cos on [-0.5, 1.5], where
    t stays finite (about 1.6e16 at X = 1, where sin = 2 / t and cos = -1),
    at about a third of their time. The two results are the only arrays of
    X's size that it makes."""
    t = np.multiply(X, _PI / 2.0)
    np.tan(t, out=t)
    q = t * t
    q += 1.0
    np.divide(2.0, q, out=q)
    return np.multiply(t, q, out=t), np.subtract(q, 1.0, out=q)


def u_star(X):
    s, _ = _sin_cos(_pts(X))
    return s[:, 0] * s[:, 1]


def _jet(X):
    """(u*, Du*, d, o) at the points, d and o the diagonal and off-diagonal
    entries of the Hessian."""
    (sx, sy), (cx, cy) = (a.T for a in _sin_cos(_pts(X)))
    grad = _PI * np.column_stack([cx * sy, sx * cy])
    return sx * sy, grad, -_PI**2 * sx * sy, _PI**2 * cx * cy


def grad_u_star(X):
    return _jet(X)[1]


def hess_u_star(X):
    _, _, d, o = _jet(X)
    return np.column_stack([d, o, o, d]).reshape(-1, 2, 2)


# the density target of the coupled system reuses the same profile
m_star = u_star
grad_m_star = grad_u_star


def bump(X):
    """Nonnegative initial density 16 x (1-x) y (1-y), zero on the boundary."""
    X = _pts(X)
    x, y = X[:, 0], X[:, 1]
    return 16.0 * x * (1.0 - x) * y * (1.0 - y)


def hj_source(model: hm.HamiltonianModel, lam: float):
    """Source f with -Delta u* + H(Du*) + lam u* = f."""

    def f(X):
        u, grad, _, _ = _jet(X)
        return (2.0 * _PI**2 + lam) * u + hm.eval_many(model, grad)

    return f


def mfg_sources(model: hm.HamiltonianModel, coupling, lam: float):
    """Compensating sources (g_hjb, g_fp) for the pair u* = m* = sin.sin.

    g_hjb absorbs the coupling term; g_fp absorbs the transport term
    -div(m* H_p(Du*)) = -(Dm* . H_p + m* tr(xi Hess u*)), with xi the
    Jacobian selection of H_p (valid off the measure-zero kink curve). The
    lam m0 source cancels against lam m* up to the nodal-interpolation error
    in m0, which is of higher order than the rates being measured.
    """
    if model.hp_jacobian is None:
        raise ValueError(f"model {model.name!r} has no gradient map for the transport term")

    def g_hjb(X):
        u, grad, _, _ = _jet(X)
        return (2.0 * _PI**2 + lam) * u + hm.eval_many(model, grad) - coupling.f(u)

    def g_fp(X):
        # m* = u*; each array is dropped once its last term is formed
        m, Z, d, o = _jet(X)
        xi = hm.hp_selection_many(model, Z)
        # tr(xi Hess u*) summed as (t00 + t01) + (t10 + t11), t_ij = xi_ij H_ji
        div_hp = (xi[:, 0, 0] * d + xi[:, 0, 1] * o) + (xi[:, 1, 0] * o + xi[:, 1, 1] * d)
        del xi, d, o
        hp = hm.hp_many(model, Z)
        transport = (Z * hp).sum(axis=1) + m * div_hp
        del Z, hp, div_hp
        return 2.0 * _PI**2 * m - transport

    return g_hjb, g_fp
