"""Hamiltonian models H(z) with Clarke-subgradient selections.

A model carries H(z), one deterministic selection from the Clarke
subdifferential of H, a global Lipschitz constant C_H, and (for models
whose gradient H_p exists everywhere and is itself Lipschitz, so that the
selection is H_p) a selection from its generalized Jacobian. H depends on
the gradient z only; every map is vectorized over gradient rows, and P1
gradients are constant per element, so solvers evaluate each map once per
element. The built-in maps work on the two (N,) columns of the rows (|z|
is sqrt(z0 z0 + z1 z1), bitwise np.linalg.norm), and Huber's Jacobian
selection is formed in place in its (N, 2, 2) result. Solvers only ever
need a single selection at the current iterate; the full set-valued
subdifferential is never materialized.

Tie-breaks on kink sets are fixed per model so that every run is
reproducible:

    eikonal     selection 0 at z = 0
    max_affine  the active piece of lowest index
    huber       the inner branch I/delta on the sphere |z| = delta

mean_value_matrix returns a vector A with A . (z1 - z2) = H(z1) - H(z2)
exactly: the average of the selection along the segment (the model's own
segment_mean, a closed-form piecewise integral for every built-in) plus a
rank-one correction along z1 - z2 that cancels the residual roundoff. It is
a test oracle, not a solver ingredient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class HamiltonianModel:
    """Immutable Hamiltonian description, vectorized over gradient rows.

    h(Z) -> (N,) and selection(Z) -> (N, 2) take Z of shape (N, 2) and are
    mandatory; hp_jacobian(Z) -> (N, 2, 2) is present only when H is C^1
    with Lipschitz gradient, and then selection is H_p. Callers go through
    eval_many, selection_many, hp_many and hp_selection_many, which also
    accept a single gradient z as one row.

    segment_mean(p, d) -> (m0, m1) is the mean of selection along p + t d,
    t in [0, 1], for (x, y) pairs p and d of floats; mean_value_matrix
    needs it, and every built-in sets its closed form. name is a label
    only and selects no behaviour.
    """

    name: str
    lipschitz_C_H: float
    h: Callable[[np.ndarray], np.ndarray]
    selection: Callable[[np.ndarray], np.ndarray]
    hp_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    segment_mean: Optional[Callable[[list, list], tuple]] = None
    params: dict = field(default_factory=dict)


# ------------------------------------------------------------ batch helpers


def _rows(Z) -> np.ndarray:
    """Gradient rows (N, 2); a single gradient z becomes one row."""
    return np.atleast_2d(np.asarray(Z, dtype=float))


def _radius(Z: np.ndarray) -> np.ndarray:
    """|z| per row, (N, 2) -> (N,): bitwise np.linalg.norm(Z, axis=1)."""
    return np.sqrt(Z[:, 0] * Z[:, 0] + Z[:, 1] * Z[:, 1])


def eval_many(model: HamiltonianModel, Z: np.ndarray) -> np.ndarray:
    """H at each gradient row: (N, 2) -> (N,)."""
    return model.h(_rows(Z))


def selection_many(model: HamiltonianModel, Z: np.ndarray) -> np.ndarray:
    """Clarke selection at each gradient row: (N, 2) -> (N, 2)."""
    return model.selection(_rows(Z))


def hp_many(model: HamiltonianModel, Z: np.ndarray) -> np.ndarray:
    """H_p, the selection of a C^{1,1} model (one with hp_jacobian): (N, 2) -> (N, 2)."""
    if model.hp_jacobian is None:
        raise ValueError(f"model {model.name!r} has no gradient map")
    return model.selection(_rows(Z))


def hp_selection_many(model: HamiltonianModel, Z: np.ndarray) -> np.ndarray:
    """Generalized-Jacobian selection of H_p per gradient row: (N, 2, 2)."""
    if model.hp_jacobian is None:
        raise ValueError(f"model {model.name!r} has no gradient Jacobian selection")
    return model.hp_jacobian(_rows(Z))


# ----------------------------------------------------------------- built-ins


def _zero_model() -> HamiltonianModel:
    return HamiltonianModel(
        name="zero",
        lipschitz_C_H=0.0,
        h=lambda Z: np.zeros(len(Z)),
        selection=np.zeros_like,
        hp_jacobian=lambda Z: np.zeros((len(Z), 2, 2)),
        segment_mean=lambda p, d: (0.0, 0.0),
    )


def _eikonal_model() -> HamiltonianModel:
    # z/|z| is scale-invariant; divide by the max component first so the
    # result stays unit-length even when |z| sits below the normal range
    def sel(Z):
        s = np.maximum(np.abs(Z[:, 0]), np.abs(Z[:, 1]))
        safe = np.where(s > 0.0, s, 1.0)
        W = Z / safe[:, None]
        r = _radius(W)
        r = np.where(r > 0.0, r, 1.0)
        return np.where((s > 0.0)[:, None], W / r[:, None], 0.0)

    return HamiltonianModel(
        name="eikonal",
        lipschitz_C_H=1.0,
        h=_radius,
        selection=sel,
        segment_mean=lambda p, d: _unit_direction_mean(p, d, 0.0, 1.0),
    )


def _huber_model(delta: float) -> HamiltonianModel:
    if not (np.isfinite(delta) and delta > 0.0):
        raise ValueError(f"huber parameter delta must be positive, got {delta!r}")
    delta = float(delta)

    def h(Z):
        r = _radius(Z)
        return np.where(r <= delta, r * r / (2 * delta), r - delta / 2)

    def hp(Z):
        r = _radius(Z)
        safe = np.where(r > 0.0, r, 1.0)
        return np.where((r <= delta)[:, None], Z / delta, Z / safe[:, None])

    def hp_jac(Z):
        # (I - z z^T / r^2) / r on every row, formed in place with r = 1 on
        # the inner rows, which then take I / delta (the tie r == delta too)
        r = _radius(Z)
        inner = r <= delta
        np.copyto(r, 1.0, where=inner)
        out = Z[:, :, None] * Z[:, None, :]
        out /= (r * r)[:, None, None]
        np.subtract(np.eye(2), out, out=out)
        out /= r[:, None, None]
        np.copyto(out, np.eye(2) / delta, where=inner[:, None, None])
        return out

    return HamiltonianModel(
        name="huber",
        lipschitz_C_H=max(1.0, 1.0 / delta),
        h=h,
        selection=hp,
        hp_jacobian=hp_jac,
        segment_mean=lambda p, d: _huber_segment_mean(p, d, delta),
        params={"delta": delta},
    )


def _max_affine_model(pieces) -> HamiltonianModel:
    if not pieces:
        raise ValueError("max_affine requires at least one (a, b) piece")
    A = np.array([np.asarray(p[0], dtype=float).reshape(2) for p in pieces])
    b = np.array([float(p[1]) for p in pieces])
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("max_affine pieces must be finite")
    norm_pieces = [((float(a[0]), float(a[1])), float(c)) for a, c in zip(A, b)]

    return HamiltonianModel(
        name="max_affine",
        lipschitz_C_H=float(np.linalg.norm(A, axis=1).max()),
        h=lambda Z: (Z @ A.T + b).max(axis=1),
        # argmax takes the lowest index on ties
        selection=lambda Z: A[np.argmax(Z @ A.T + b, axis=1)],
        segment_mean=lambda p, d: _max_affine_segment_mean(norm_pieces, p, d),
        params={"pieces": norm_pieces},
    )


def builtin_model(name: str, *, pieces=None, delta: float | None = None) -> HamiltonianModel:
    """Construct one of the built-in models: zero, eikonal,
    max_affine(pieces=[(a_i, b_i), ...]), huber(delta)."""
    if name == "zero":
        return _zero_model()
    if name == "eikonal":
        return _eikonal_model()
    if name == "huber":
        if delta is None:
            raise ValueError("huber requires delta")
        return _huber_model(delta)
    if name == "max_affine":
        if pieces is None:
            raise ValueError("max_affine requires pieces")
        return _max_affine_model(pieces)
    raise ValueError(
        f"unknown hamiltonian {name!r}; expected zero, eikonal, max_affine, or huber"
    )


def model_from_spec(text: str) -> HamiltonianModel:
    """Parse a command-line model string: 'zero', 'eikonal', 'huber:DELTA',
    or 'maxaffine:PATH.csv' (rows a1,a2,b)."""
    name, _, arg = text.partition(":")
    if name in ("zero", "eikonal"):
        if arg:
            raise ValueError(f"hamiltonian {name!r} takes no parameter, got {text!r}")
        return builtin_model(name)
    if name == "huber":
        try:
            delta = float(arg)
        except ValueError:
            raise ValueError(f"invalid huber parameter {arg!r} in {text!r}") from None
        return builtin_model("huber", delta=delta)
    if name in ("maxaffine", "max_affine"):
        try:
            rows = np.loadtxt(arg, delimiter=",", ndmin=2)
        except OSError as exc:
            raise ValueError(f"cannot read max_affine file {arg!r}: {exc}") from None
        if rows.shape[1] != 3:
            raise ValueError(f"max_affine file {arg!r} needs rows a1,a2,b")
        return builtin_model(
            "max_affine", pieces=[((r[0], r[1]), r[2]) for r in rows]
        )
    raise ValueError(f"unknown hamiltonian {name!r} in {text!r}")


# ------------------------------------------------------------ element fields


def selection_field(model: HamiltonianModel, space, u: np.ndarray) -> np.ndarray:
    """Clarke selection per element at Du_h|_T: (nt, 2).

    P1 gradients are constant per element, so a single selection per
    triangle is a measurable selection of the pointwise subdifferential,
    not an approximation.
    """
    from . import fem

    return selection_many(model, fem.element_gradients(space, u))


# ------------------------------------------------------- segment mean values


def _unit_direction_mean(p, d, lo, hi):
    """Integral of w/|w| over [lo, hi] for w(t) = p + t d (closed form).

    p and d are (x, y) pairs of floats; returns the pair of components. The
    integrand is scale-invariant, so p and d are rescaled first; this keeps
    the intermediate products away from under/overflow.
    """
    s = max(abs(p[0]), abs(p[1]), abs(d[0]), abs(d[1]))
    if s == 0.0:
        return 0.0, 0.0
    p0, p1, d0, d1 = p[0] / s, p[1] / s, d[0] / s, d[1] / s
    a = d0 * d0 + d1 * d1
    b = p0 * d0 + p1 * d1
    c = p0 * p0 + p1 * p1
    D = max(a * c - b * b, 0.0)
    if a == 0.0:
        r = math.sqrt(c)
        return ((hi - lo) * (p0 / r), (hi - lo) * (p1 / r)) if r > 0 else (0.0, 0.0)
    if c == 0.0 or D <= 1e-28 * (a * c):
        # segment collinear with the origin: direction flips at t0, and
        # sign(t - t0) integrates to |hi - t0| - |lo - t0|
        t0 = -b / a
        w = (abs(hi - t0) - abs(lo - t0)) / math.sqrt(a)
        return d0 * w, d1 * w
    sq = math.sqrt(D)
    sa = math.sqrt(a)

    def F0(t):
        return math.asinh((a * t + b) / sq) / sa

    def absw(t):
        return math.sqrt(a * t * t + 2 * b * t + c)

    I0 = F0(hi) - F0(lo)
    I1 = (absw(hi) - absw(lo)) / a - (b / a) * I0
    return p0 * I0 + d0 * I1, p1 * I0 + d1 * I1


def _huber_segment_mean(p, d, delta):
    a = d[0] * d[0] + d[1] * d[1]
    b = p[0] * d[0] + p[1] * d[1]
    c0 = p[0] * p[0] + p[1] * p[1] - delta * delta
    cuts = [0.0, 1.0]
    disc = b * b - a * c0
    if disc > 0.0 and a > 0.0:
        sq = math.sqrt(disc)
        for t in ((-b - sq) / a, (-b + sq) / a):
            if 0.0 < t < 1.0:
                cuts.append(t)
    cuts = sorted(set(cuts))
    m0 = m1 = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tm = 0.5 * (lo + hi)
        if a * tm * tm + 2 * b * tm + c0 <= 0.0:  # |w| <= delta: inner branch
            # integral of (p + t d)/delta over [lo, hi]
            half = (hi * hi - lo * lo) / 2.0
            m0 += (p[0] * (hi - lo) + d[0] * half) / delta
            m1 += (p[1] * (hi - lo) + d[1] * half) / delta
        else:
            u0, u1 = _unit_direction_mean(p, d, lo, hi)
            m0 += u0
            m1 += u1
    return m0, m1


def _max_affine_segment_mean(pieces, p, d):
    """Segment mean of the active slope; pieces are ((a0, a1), c) floats."""
    k = len(pieces)
    cuts = {0.0, 1.0}
    for i in range(k):
        (ai0, ai1), ci = pieces[i]
        for j in range(i + 1, k):
            (aj0, aj1), cj = pieces[j]
            da0, da1 = ai0 - aj0, ai1 - aj1
            den = da0 * d[0] + da1 * d[1]
            if den != 0.0:
                t = -(da0 * p[0] + da1 * p[1] + (ci - cj)) / den
                if 0.0 < t < 1.0:
                    cuts.add(t)
    cuts = sorted(cuts)
    m0 = m1 = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tm = 0.5 * (lo + hi)
        w0, w1 = p[0] + tm * d[0], p[1] + tm * d[1]
        vals = [a0 * w0 + a1 * w1 + c for (a0, a1), c in pieces]
        a0, a1 = pieces[vals.index(max(vals))][0]  # first maximum: lowest index
        m0 += (hi - lo) * a0
        m1 += (hi - lo) * a1
    return m0, m1


def mean_value_matrix(model: HamiltonianModel, z1, z2) -> np.ndarray:
    """Vector A with A . (z1 - z2) = H(z1) - H(z2) to roundoff.

    A is the model's segment_mean of the Clarke selection along [z2, z1]
    (hence inside the convex hull of the subdifferentials there) plus a
    correction parallel to z1 - z2 that makes the secant identity exact. A
    model without segment_mean raises ValueError.
    """
    if model.segment_mean is None:
        raise ValueError(f"model {model.name!r} has no segment_mean")
    z1 = np.asarray(z1, dtype=float)
    z2 = np.asarray(z2, dtype=float)
    dz = z1 - z2
    if not dz.any():
        return selection_many(model, z1)[0]
    # scalar arithmetic on (x, y) pairs: this oracle runs once per pair
    p = z2.tolist()
    d = dz.tolist()
    mean = model.segment_mean(p, d)
    h1, h2 = model.h(np.array([z1, z2])).tolist()
    # correction along d/|d|: its exact-arithmetic value is zero (the
    # segment mean telescopes), so it only sweeps up rounding residue; the
    # rescaled frame keeps subnormal segments usable
    s = max(abs(d[0]), abs(d[1]))
    e0, e1 = d[0] / s, d[1] / s
    nhat = math.hypot(e0, e1)
    k = ((h1 - h2) / s - (mean[0] * e0 + mean[1] * e1)) / nhat
    A0 = mean[0] + k * (e0 / nhat)
    A1 = mean[1] + k * (e1 / nhat)
    # the exact mean-value vector lies in the Lipschitz ball; rounding can
    # push the computed one out (by eps normally, by order one only where
    # the increment itself dissolves into rounding), so project it back
    nA = math.hypot(A0, A1)
    if nA > model.lipschitz_C_H:
        scale = model.lipschitz_C_H / nA
        A0, A1 = A0 * scale, A1 * scale
    return np.array([A0, A1])
