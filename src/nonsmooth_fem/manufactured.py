"""Closed-form reference solutions with compensating sources.

The reference profile is u*(x, y) = sin(pi x) sin(pi y): it vanishes on the
boundary of the unit square, and its Laplacian, gradient, and Hessian are
elementary. Sources are built so that u* (or the pair u* = m*) solves the
continuous problem exactly; discretization error is then measured against
these fields directly.
"""

from __future__ import annotations

import numpy as np

from . import hamiltonian as hm

_PI = np.pi


def _pts(X):
    return np.atleast_2d(np.asarray(X, dtype=float))


def u_star(X):
    X = _pts(X)
    return np.sin(_PI * X[:, 0]) * np.sin(_PI * X[:, 1])


def grad_u_star(X):
    X = _pts(X)
    sx, cx = np.sin(_PI * X[:, 0]), np.cos(_PI * X[:, 0])
    sy, cy = np.sin(_PI * X[:, 1]), np.cos(_PI * X[:, 1])
    return _PI * np.column_stack([cx * sy, sx * cy])


def hess_u_star(X):
    X = _pts(X)
    sx, cx = np.sin(_PI * X[:, 0]), np.cos(_PI * X[:, 0])
    sy, cy = np.sin(_PI * X[:, 1]), np.cos(_PI * X[:, 1])
    H = np.empty((len(X), 2, 2))
    H[:, 0, 0] = -_PI**2 * sx * sy
    H[:, 1, 1] = -_PI**2 * sx * sy
    H[:, 0, 1] = _PI**2 * cx * cy
    H[:, 1, 0] = H[:, 0, 1]
    return H


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
        X = _pts(X)
        return (2.0 * _PI**2 + lam) * u_star(X) + hm.eval_many(model, grad_u_star(X))

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
        X = _pts(X)
        return (
            (2.0 * _PI**2 + lam) * u_star(X)
            + hm.eval_many(model, grad_u_star(X))
            - coupling.f(m_star(X))
        )

    def g_fp(X):
        X = _pts(X)
        Z = grad_u_star(X)
        hp = hm.hp_many(model, Z)
        xi = hm.hp_selection_many(model, Z)
        div_hp = np.einsum("nij,nji->n", xi, hess_u_star(X))
        transport = (grad_m_star(X) * hp).sum(axis=1) + m_star(X) * div_hp
        return 2.0 * _PI**2 * m_star(X) - transport

    return g_hjb, g_fp
