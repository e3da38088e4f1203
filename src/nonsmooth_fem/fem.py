"""P1 Lagrange finite element core on unit_square_mesh(n).

Provides dof management with homogeneous Dirichlet elimination (int32
connectivity), exact assembly of stiffness/mass forms on the free dofs or
on all vertices from the grid's two element shapes, summed as a 7-point
stencil onto a CSR pattern cached per space (whose read-only index arrays
every matrix on it shares), the assembler of every solver matrix,
operator = K + lam M (+ drift_matrix), load vectors, nodal interpolation,
discrete norms, the P1 prolongations of the grid hierarchy with their
restrictions, built once per space, the geometric V-cycle on it, the
sine-transform solve of K + lam M (sine_solver), and the one linear-solve
routine, krylov_solve: GMRES with a given preconditioner per iteration.
The operator picks it: a V-cycle for the matrices that carry a drift
(Newton steps, MFG Picard's transport), the sine solve for the constant
matrix K + lam M (HJ Picard's chord step, and the conjugate gradients of
the dual norm, ResidualNorm). No matrix is factored above the coarsest
grid. The geometry, hierarchy, point location and patterns come from grid
arithmetic on mesh.n, and every element's corner values from six slices
of the (n + 1, n + 1) vertex grid (_grid_corners): no index array is
gathered through mesh.triangles outside elem_dofs and point location.

Conventions:
    - A coefficient vector is a plain numpy array with one scalar per free
      (interior) dof.
    - Matrices are scipy CSR: compressed row layout (row offsets, column
      indices, values) with duplicate entries summed at finalization.
    - Scalar fields are callables taking an (N, 2) array of points and
      returning an (N,) array; vector fields return (N, 2). Any other
      result shape raises FemError.

Every integral over elements (loads, norms, errors, and the solvers'
coupling terms through rule_values and weighted_local_mass) uses one rule:
the symmetric positive 6-point rule of Dunavant (1985), exact through
total degree 4, hence exact for the L2 and H1 norms of a P1 function. Its
weights and barycentrics stay in this module, applied by one matmul with
a fixed reference tensor; the element coordinates of its points are never
cached: quad_points builds them one rule point at a time, from the grid's
coordinate lines, where a field callable is evaluated (loads, errors
against exact solutions). The norms
L2, H1, Lr and W1r (2 <= r <= 6) of a field, or of its error against an
exact solution, come from one pass over the rule points (_norms) that adds
each point's value and gradient errors into every requested norm.
Negative/fractional-order norms are never computed here; solvers report
residuals in the discrete dual norm induced by (K + M)^{-1} instead,
evaluated to a stated relative accuracy (ResidualNorm).

The inverse inequality between discrete norms on quasi-uniform P1 spaces
is relied upon implicitly and its constant is not verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import TriMesh


class FemError(RuntimeError):
    """Assembly or evaluation failure (bad data, a point off the mesh)."""


class NonconvergenceError(FemError):
    """A solve stopped before reaching its residual target."""


# dual norm: PCG stopping ratio and iteration cap (ResidualNorm)
_NORM_EPS = 1e-5
_NORM_MAX_ITER = 50

# V-cycles (_VCycle): V(2,2) with damped Jacobi w=0.7
_JACOBI_SWEEPS = 2
_JACOBI_OMEGA = 0.7

# krylov_solve: GMRES(20) to a fixed relative residual, tight enough that
# Newton's iterates are those of an exact solve. Every V-cycle-preconditioned
# solve of the HJ and MFG workloads (Newton steps, MFG transport) takes 9-14
# iterations, HJ Picard's sine-preconditioned one 1-3, inside one
# cycle, and scipy holds restart + 1 Krylov vectors (at n=256, 10 MiB for
# GMRES(20) against 25 MiB for GMRES(50)). At most 10 cycles: a budget of
# 200 iterations
_KRYLOV_RTOL = 1e-10
_GMRES_RESTART = 20
_GMRES_MAX_CYCLES = 10

# The quadrature rule: barycentric points and weights summing to one (scale
# by element area) of the positive 6-point rule, exact through degree 4
_QUAD_BARY = np.array(
    [
        [0.108103018168070, 0.445948490915965, 0.445948490915965],
        [0.445948490915965, 0.108103018168070, 0.445948490915965],
        [0.445948490915965, 0.445948490915965, 0.108103018168070],
        [0.816847572980459, 0.091576213509771, 0.091576213509771],
        [0.091576213509771, 0.816847572980459, 0.091576213509771],
        [0.091576213509771, 0.091576213509771, 0.816847572980459],
    ]
)
_QUAD_WEIGHTS = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_QUAD_BARY.flags.writeable = False
_QUAD_WEIGHTS.flags.writeable = False
# the rule as reference tensors for one matmul each: _QUAD_WB[q, k] =
# w_q lambda_k(x_q) (loads), _QUAD_WBB[q, 3 i + j] = w_q lambda_i lambda_j
# at x_q (weighted masses)
_QUAD_WB = _QUAD_WEIGHTS[:, None] * _QUAD_BARY
_QUAD_WBB = (_QUAD_WB[:, :, None] * _QUAD_BARY[:, None, :]).reshape(-1, 9)

_P1_MASS = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0


def _local_mass(areas) -> np.ndarray:
    """Exact P1 element mass matrices areas * [[2,1,1],[1,2,1],[1,1,2]] / 12:
    (3, 3) for one area, (nt, 3, 3) for an array of them."""
    return np.asarray(areas, dtype=float)[..., None, None] * _P1_MASS


# element t is half t % 2 of grid cell t // 2: the grid offsets of the corners
# of the even (v00, v10, v11) and odd (v00, v11, v01) half, and 1/n times
# their P1 basis gradients
_CORNER_OFFSET = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
_SHAPE_GRADS = np.array([[[-1.0, 0], [1, -1], [0, 1]], [[0, -1], [1, 0], [-1, 1]]])
_SHAPE_GRADS.flags.writeable = False


@dataclass(frozen=True)
class FeSpace:
    """P1 space with homogeneous Dirichlet elimination.

    free_dofs maps dof index -> vertex index; dof_of_vertex maps vertex ->
    dof index or -1 on the boundary; elem_dofs holds each triangle's dofs,
    -1 on the boundary. All three are int32, like mesh.triangles. The
    element geometry is the grid's two shapes, broadcast by parity:
    element t is half t % 2 of a cell, with basis gradients grads[t % 2]
    (grads is (2, 3, 2)) and area 0.5 / n^2, as every element.
    _cache holds the CSR patterns (_pattern) of the free dofs ("pattern")
    and of all vertices ("vertex_pattern"), whose read-only indices and
    indptr every matrix assembled on them shares, the grid hierarchy with
    its restrictions (prolongations), the dual norm (residual_norm) and,
    for a nonlocal MFG coupling, mfg_solver's mollifier ("smoother").
    """

    mesh: TriMesh
    free_dofs: np.ndarray = field(repr=False)
    n_free: int
    dof_of_vertex: np.ndarray = field(repr=False)
    elem_dofs: np.ndarray = field(repr=False)
    grads: np.ndarray = field(repr=False)
    area: float
    _cache: dict = field(default_factory=dict, repr=False, compare=False)


def make_space(mesh: TriMesh) -> FeSpace:
    free = np.flatnonzero(~mesh.boundary_vertex).astype(np.int32)
    dof_of_vertex = np.full(mesh.n_vertices, -1, dtype=np.int32)
    dof_of_vertex[free] = np.arange(free.size, dtype=np.int32)
    elem_dofs = np.take(dof_of_vertex, mesh.triangles)
    return FeSpace(
        mesh=mesh,
        free_dofs=free,
        n_free=int(free.size),
        dof_of_vertex=dof_of_vertex,
        elem_dofs=elem_dofs,
        grads=mesh.n * _SHAPE_GRADS,
        area=0.5 / (mesh.n * mesh.n),
    )


# ------------------------------------------------------------------ assembly


# the 7-point stencil of the unknown b m + a at position (a, b) of a
# row-major lattice of side m: its neighbours' (da, db) in ascending order
_STENCIL = ((-1, -1), (0, -1), (-1, 0), (0, 0), (1, 0), (0, 1), (1, 1))
# _ELEMENT_STENCIL[p, k, l]: the stencil entry that couples corner k of an
# element of half p with its corner l
_ELEMENT_STENCIL = np.array(
    [[[3, 4, 6], [2, 3, 5], [0, 1, 3]], [[3, 6, 5], [0, 3, 2], [1, 4, 3]]], dtype=np.int32
)
# the (half, corner) pairs in the order in which their elements ascend
# around the vertex at that corner: cell row, then cell column, then half
_SUM_ORDER = ((0, 2), (1, 1), (1, 2), (0, 1), (0, 0), (1, 0))
_ROW_BLOCK = 32  # cell rows per block of the stencil sum, which stays in cache


def _side(space: FeSpace, corners: np.ndarray) -> int:
    """Side m of the row-major lattice of the unknowns that corners numbers:
    n - 1 for space.elem_dofs (free dofs), n + 1 for space.mesh.triangles."""
    if corners is space.elem_dofs or corners is space.mesh.triangles:
        return space.mesh.n + (1 if corners is space.mesh.triangles else -1)
    raise FemError("corners must be the space's elem_dofs or its mesh's triangles")


def _inside(m: int) -> np.ndarray:
    """(m, m, 7) mask: the _STENCIL neighbours on a lattice of side m."""
    inside = np.ones((m, m, 7), dtype=bool)
    edge = {-1: slice(0, 1), 1: slice(m - 1, m)}  # both empty at m = 0
    for s, (da, db) in enumerate(_STENCIL):
        inside[:, edge.get(da, slice(0)), s] = inside[edge.get(db, slice(0)), :, s] = False
    return inside


def _pattern(space: FeSpace, corners: np.ndarray) -> tuple:
    """CSR pattern (indices, indptr) of the unknowns that corners numbers
    (_side), cached and read-only: row d holds d's _STENCIL neighbours on
    the lattice. Every matrix on it shares both arrays, so an in-place
    change (sort, prune) raises ValueError instead of corrupting others."""
    m = _side(space, corners)
    key = "pattern" if corners is space.elem_dofs else "vertex_pattern"
    if key not in space._cache:
        index = np.int32 if 7 * m * m <= np.iinfo(np.int32).max else np.int64
        inside = _inside(m).reshape(m * m, 7)
        da, db = np.array(_STENCIL, dtype=index).T
        indices = (np.arange(m * m, dtype=index)[:, None] + (db * m + da))[inside]
        indptr = np.zeros(m * m + 1, dtype=index)
        np.cumsum(inside.sum(axis=1), out=indptr[1:])
        indices.flags.writeable = indptr.flags.writeable = False
        space._cache[key] = (indices, indptr)
    return space._cache[key]


def _stencil_sum(n: int, local: np.ndarray, m: int) -> np.ndarray:
    """The (m, m, 7) stencil array of element matrices local[j, i, p] (half p
    of the cell in row j, column i; a view will do) on the lattice of side m:
    entry (k, l) adds into entry _ELEMENT_STENCIL[p, k, l] of the row of
    corner k, one shifted-slice add per (p, k, l). Row blocks ascend and
    (p, k) follow _SUM_ORDER: each entry sums in ascending element index."""
    shift = (n + 1 - m) // 2  # vertex (i, j) sits at lattice (i, j) - shift
    stencil = np.zeros((m, m, 7))

    def span(d, first, last):  # the cells first..last - 1 with their corner
        lo, hi = max(first, shift - d), min(last, m + shift - d)  # at offset d
        return slice(lo, hi), slice(lo + d - shift, hi + d - shift)  # on it

    for j in range(0, n, _ROW_BLOCK):
        for p, k in _SUM_ORDER:
            dx, dy = _CORNER_OFFSET[p][k]
            (cx, vx), (cy, vy) = span(dx, 0, n), span(dy, j, min(n, j + _ROW_BLOCK))
            for l in range(3):
                rows = stencil[vy, vx, _ELEMENT_STENCIL[p, k, l]]
                np.add(rows, local[cy, cx, p, k, l], out=rows)
    return stencil


def _csr(space: FeSpace, stencil: np.ndarray, corners: np.ndarray) -> sp.csr_matrix:
    """The matrix of an (m, m, 7) stencil array on the cached pattern."""
    indices, indptr = _pattern(space, corners)
    m = _side(space, corners)
    return sp.csr_matrix((stencil[_inside(m)], indices, indptr), shape=(m * m,) * 2)


def _assemble_p1_vector(space: "FeSpace", local: np.ndarray) -> np.ndarray:
    """Sum (nt, 3) element vectors into a free-dof vector, skipping dof -1:
    one bincount on dof + 1, whose bin 0 takes the boundary entries."""
    bins = (space.elem_dofs + 1).ravel()
    return np.bincount(bins, weights=local.ravel(), minlength=space.n_free + 1)[1:]


def assemble_from_local(space: "FeSpace", local: np.ndarray, corners: np.ndarray) -> sp.csr_matrix:
    """Sum per-element (nt, 3, 3) contributions into a CSR matrix on the
    free dofs (corners = space.elem_dofs) or all vertices (mesh.triangles)
    by _stencil_sum, which reads an (n, n, 2, 3, 3) view in place.

    Entry local[t, i, j] couples local test vertex i with trial vertex j of
    triangle t; boundary vertices (dof -1) are dropped on the free dofs.
    """
    n = space.mesh.n
    local = np.asarray(local, dtype=float).reshape(n, n, 2, 3, 3)
    return _csr(space, _stencil_sum(n, local, _side(space, corners)), corners)


def _free_values(shapes: np.ndarray) -> np.ndarray:
    """The seven stencil values of every free row for element matrices
    shapes[p] on half p: each free row has all six elements, so entry s sums
    the shapes[p, k, l] that _ELEMENT_STENCIL maps to s, in _stencil_sum's
    order."""
    shapes, values = np.broadcast_to(shapes, (2, 3, 3)).tolist(), [0.0] * 7
    for p, k in _SUM_ORDER:  # float by float: a few microseconds
        for s, term in zip(_ELEMENT_STENCIL[p, k].tolist(), shapes[p][k]):
            values[s] += term
    return np.array(values)


def _free_matrix(space: FeSpace, values: np.ndarray) -> sp.csr_matrix:
    m = space.mesh.n - 1
    return _csr(space, np.broadcast_to(values, (m, m, 7)), space.elem_dofs)


def _all_vertices(space: FeSpace, shapes: np.ndarray) -> sp.csr_matrix:
    n = space.mesh.n  # boundary rows lack elements: the full stencil sum
    return assemble_from_local(space, np.broadcast_to(shapes, (n, n, 2, 3, 3)), space.mesh.triangles)


def _shape_stiffness(space: FeSpace) -> np.ndarray:
    """The halves' P1 stiffness matrices (2, 3, 3): area (Dphi_i . Dphi_j)."""
    gx, gy = space.grads[:, :, 0], space.grads[:, :, 1]
    return (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]) * space.area


def full_stiffness(space: FeSpace) -> sp.csr_matrix:
    """Stiffness on ALL vertices (no Dirichlet elimination)."""
    return _all_vertices(space, _shape_stiffness(space))


def full_mass(space: FeSpace) -> sp.csr_matrix:
    """Mass on ALL vertices (no Dirichlet elimination)."""
    return _all_vertices(space, _local_mass(space.area))


def assemble_stiffness(space: FeSpace) -> sp.csr_matrix:
    """K[i][j] = integral of Dphi_j . Dphi_i, exact, on free dofs."""
    return _free_matrix(space, _free_values(_shape_stiffness(space)))


def assemble_mass(space: FeSpace) -> sp.csr_matrix:
    """M[i][j] = integral of phi_j phi_i via the exact element formula."""
    return _free_matrix(space, _free_values(_local_mass(space.area)))


def drift_matrix(space: FeSpace, field: np.ndarray) -> sp.csr_matrix:
    """B[i][j] = integral of (b_T . Dphi_j) phi_i for an elementwise-constant
    vector field b given as one row per element: (nt, 2)."""
    n = space.mesh.n
    bx, by = np.asarray(field, dtype=float).reshape(-1, 2, 2).T  # (half, cell)
    grads = space.grads[:, :, :, None]
    drift = bx[:, None] * grads[:, :, 0]  # b_T . Dphi_j: (half, j, cell)
    drift += by[:, None] * grads[:, :, 1]
    # integral of phi_i over T is |T|/3, independent of i: the three rows
    # of each element matrix are equal, one plane stands for all three
    drift *= space.area / 3.0
    rows = np.broadcast_to(drift.reshape(2, 1, 3, n, n).transpose(3, 4, 0, 1, 2), (n, n, 2, 3, 3))
    return assemble_from_local(space, rows, space.elem_dofs)


def operator(space: FeSpace, lam: float, drift=None) -> sp.csr_matrix:
    """K + lam M (+ drift_matrix(space, drift) for a drift (nt, 2)) on the
    free-dof pattern: every solver matrix, and K + M at lam = 1. The sum
    is formed per stencil value, (0 + K) + lam M, then the drift added per
    entry, and neither K nor M is formed."""
    stiffness, mass = _free_values(_shape_stiffness(space)), _free_values(_local_mass(space.area))
    A = _free_matrix(space, 0.0 + stiffness + lam * mass)
    if drift is not None:
        A.data += drift_matrix(space, drift).data
    return A


# ------------------------------------------------------------- field evaluation


def _eval_field(f, pts: np.ndarray, shape: tuple) -> np.ndarray:
    """Evaluate a vectorized field on (N, 2) points; the result must have
    shape (N,) + shape."""
    pts = np.ascontiguousarray(pts, dtype=float)
    vals = np.asarray(f(pts), dtype=float)
    expected = (pts.shape[0],) + shape
    if vals.shape != expected:
        raise FemError(
            f"field callable returned shape {vals.shape} on {pts.shape[0]} "
            f"points, expected {expected}"
        )
    return vals


def quad_points(space: FeSpace):
    """The rule on the space's elements: (bary, weights, points), bary (nq, 3)
    and weights (nq,) read-only, points a generator of the (nt, 2) element
    coordinates of one rule point at a time, in the order of bary. A rule
    point's x depends only on its element's cell column and half, and its
    y only on the cell row and half: each is summed as b_0 c_0 + b_1 c_1 +
    b_2 c_2 from three slices of the grid's x (bottom vertex row) or y
    (left vertex column), n values, then broadcast over the other axis.
    Nothing is cached, and neither the (nq, nt, 2) array of all the
    coordinates nor any array of the corners ever exists."""
    n = space.mesh.n
    grid = space.mesh.vertices.reshape(n + 1, n + 1, 2)
    lines = (grid[0, :, 0], grid[:, 0, 1])

    def point(b):
        X = np.empty((n, n, 2, 2))  # cell row, cell column, half, coordinate
        for p, offsets in enumerate(_CORNER_OFFSET):
            for d, line in enumerate(lines):
                c = line[offsets[0][d]:][:n] * b[0]
                for k in (1, 2):
                    c += line[offsets[k][d]:][:n] * b[k]
                X[:, :, p, d] = c if d == 0 else c[:, None]
        return X.reshape(-1, 2)

    return _QUAD_BARY, _QUAD_WEIGHTS, (point(b) for b in _QUAD_BARY)


def _load(space: FeSpace, vals: np.ndarray) -> np.ndarray:
    """b[i] = sum_T |T| * sum_q w_q vals[q, T] phi_i(x_q), for vals (nq, nt)
    or per-element values (nt,)."""
    if vals.ndim == 1:
        b_local = (vals * space.area)[:, None] * (_QUAD_WEIGHTS @ _QUAD_BARY)
    else:
        b_local = (vals.T @ _QUAD_WB) * space.area
    return _assemble_p1_vector(space, b_local)


def assemble_load(space: FeSpace, f) -> np.ndarray:
    """b[i] = integral of f phi_i by the rule: f evaluated at quad_points."""
    _, _, points = quad_points(space)
    vals = np.empty((len(_QUAD_WEIGHTS), space.mesh.n_triangles))
    for q, X in enumerate(points):
        vals[q] = _eval_field(f, X, ())
        if not np.isfinite(vals[q]).all():
            t = int(np.argmax(~np.isfinite(vals[q])))
            raise FemError(
                f"non-finite load value {vals[q, t]!r} at quadrature point "
                f"({X[t, 0]:.6g}, {X[t, 1]:.6g})"
            )
    return _load(space, vals)


def load_from_values(space: FeSpace, vals: np.ndarray) -> np.ndarray:
    """Like assemble_load but from precomputed values (nq, nt) at the rule's
    points (rule_values); per-element values (nt,) stand for a field
    constant on each element."""
    return _load(space, np.asarray(vals, dtype=float))


def interpolate_nodal(space: FeSpace, g) -> np.ndarray:
    """Nodal P1 interpolant: coefficient i = g(free vertex i); boundary values
    are dropped (homogeneous Dirichlet)."""
    pts = space.mesh.vertices[space.free_dofs]
    vals = _eval_field(g, pts, ())
    if not np.isfinite(vals).all():
        k = int(np.argwhere(~np.isfinite(vals))[0, 0])
        x, y = pts[k]
        raise FemError(f"non-finite nodal value at vertex ({x:.6g}, {y:.6g})")
    return vals


def extend_to_vertices(space: FeSpace, u: np.ndarray) -> np.ndarray:
    """Free-dof coefficients -> all-vertex nodal values (0 on the boundary)."""
    full = np.zeros(space.mesh.n_vertices)
    full[space.free_dofs] = u
    return full


def rule_values(space: FeSpace, nodal: np.ndarray) -> np.ndarray:
    """The P1 function with all-vertex values `nodal` at the rule's points:
    (nq, nt)."""
    return _QUAD_BARY @ _corner_values(space, nodal)


def weighted_local_mass(space: FeSpace, weight: np.ndarray) -> np.ndarray:
    """Element matrices (nt, 3, 3) of the weight-weighted P1 mass by the
    rule, weight given at the rule's points (nq, nt)."""
    local = (weight.T @ _QUAD_WBB).reshape(-1, 3, 3)
    local *= space.area
    return local


def _grid_corners(space: FeSpace, nodal: np.ndarray) -> np.ndarray:
    """(2, 3, n, n): entry [p, k, j, i] is the all-vertex field nodal at
    corner k of half p of the cell in row j, column i, which is element
    2 (j n + i) + p. Six slices of nodal's (n + 1, n + 1) grid, each copied
    into one contiguous plane; no index array is read."""
    n = space.mesh.n
    grid = np.reshape(nodal, (n + 1, n + 1))
    planes = [grid[dy:dy + n, dx:dx + n] for half in _CORNER_OFFSET for dx, dy in half]
    return np.stack(planes).reshape(2, 3, n, n)


def element_gradients(space: FeSpace, u: np.ndarray) -> np.ndarray:
    """Elementwise-constant gradient of u_h: (nt, 2)."""
    corners = _grid_corners(space, extend_to_vertices(space, u)).reshape(2, 3, -1)
    Du = np.empty((corners.shape[2], 2, 2))  # cell, half, component
    for p in (0, 1):  # one BLAS matmul per half, which sums the three
        # corner terms as it did on the (nt, 3) gather: the same bits
        np.matmul(corners[p].T, space.grads[p], out=Du[:, p])
    return Du.reshape(-1, 2)


def _locate(space: FeSpace, pts) -> tuple:
    """(elements, barycentric coordinates) of each point, (N,) and (N, 3):
    the lowest-index element whose barycentrics are all >= -1e-12. A point
    outside the mesh raises FemError.

    Candidates come from grid arithmetic: with c = floor(n x - 1e-9), the
    8 triangles of the cells c and c + 1 in x and in y (clipped to the
    grid), in ascending element index, each tested as in a search over all
    elements; the first hit is the lowest-index element that passes. On
    this grid the barycentrics are affine in (n x, n y) with unit
    coefficients, so an element of cell column i passes only if
    i - 2e-12 <= n x <= i + 1 + 2e-12, which puts i in {c, c + 1}: the
    1e-9 shift covers the slack and the rounding of n x. Likewise in y.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    mesh, n = space.mesh, space.mesh.n
    ci, cj = (np.clip(np.floor(n * pts[:, d] - 1e-9).astype(np.int64)[:, None] + (0, 1), 0, n - 1)
              for d in (0, 1))
    # cell rows j, then cell columns i, then the two halves of each cell
    cells = (cj[:, :, None] * n + ci[:, None, :]).reshape(-1, 4)
    cand = (2 * cells[:, :, None] + (0, 1)).ravel()
    # lambda_k(x) = Dphi_k . (x - p_0) for k = 1, 2; lambda_0 = 1 - both
    p0 = np.take(mesh.vertices, mesh.triangles[cand, 0], axis=0)
    lam12 = np.einsum("nkd,nd->nk", space.grads[cand % 2, 1:, :], np.repeat(pts, 8, axis=0) - p0)
    lam = np.column_stack([1.0 - lam12.sum(axis=1), lam12])
    hits = (lam >= -1e-12).all(axis=1).reshape(-1, 8)
    found = hits.any(axis=1)
    if not found.all():
        x = pts[np.argmin(found)]
        raise FemError(f"point ({x[0]:.6g}, {x[1]:.6g}) outside the mesh")
    pick = 8 * np.arange(len(pts)) + np.argmax(hits, axis=1)
    return cand[pick], lam[pick]


def evaluate(space: FeSpace, u: np.ndarray, pts) -> np.ndarray:
    """Point evaluation of u_h; the stability scan transfers eigenvectors
    between levels with it."""
    elems, lams = _locate(space, pts)
    corners = np.take(space.mesh.triangles, elems, axis=0)
    nodal = np.take(extend_to_vertices(space, u), corners)  # (N, 3)
    return np.einsum("nk,nk->n", nodal, lams)


# ---------------------------------------------------------- sine transforms


def _dst2(x: np.ndarray) -> np.ndarray:
    """The orthonormal 2-D DST-I of an (m, m) array, its own inverse. Per
    axis, the imaginary part of the rfft of each row zero-padded to length
    2 (m + 1) is -sum_j x_j sin(pi j k / (m + 1)), j, k = 1..m; each pass
    reads its input transposed, so the second restores the orientation."""
    n = len(x) + 1
    padded, spectrum = np.zeros((n - 1, 2 * n)), np.empty((n - 1, n + 1), dtype=complex)
    for _ in range(2):
        padded[:, 1:n] = x.T
        x = np.fft.rfft(padded, axis=1, out=spectrum)[:, 1:n].imag
    return x * (2.0 / n)


def sine_solver(space: FeSpace, lam: float):
    """b -> B b for free-dof vectors b, B = S diag(1 / mu) S with S the 2-D
    DST-I of the free lattice (_dst2) and, for c_k = cos(k pi / n),
    mu_kl = (4 - 2 c_k - 2 c_l) + lam (area / 6) (4 + 2 (1 + c_k)(1 + c_l)).
    K is the 5-point Laplacian, which S diagonalizes; M differs from the
    matrix of the second term only by the half of its diagonal couplings
    that is antisymmetric in x, (area / 12) (shift(1, 1) + shift(-1, -1) -
    shift(1, -1) - shift(-1, 1)), so B inverts K + lam M to O(h^2): the
    spectrum of B (K + M) lies in [1 - d, 1 + d], d = 1.6e-3 at n = 4,
    7.4e-5 at n = 32 and 3.4e-5 at n = 48 (B is exact at n = 2). B is
    symmetric positive definite for lam >= 0."""
    m = space.mesh.n - 1
    c = np.cos(np.arange(1, m + 1) * np.pi / space.mesh.n)
    mass = 4.0 + 2.0 * np.outer(1.0 + c, 1.0 + c)
    inverse = 1.0 / ((4.0 - 2.0 * c[:, None] - 2.0 * c) + lam * space.area / 6.0 * mass)
    return lambda b: _dst2(_dst2(b.reshape(m, m)) * inverse).ravel()


# ------------------------------------------------------------------ dual norm


class ResidualNorm:
    """Discrete dual norm ||r|| = sqrt(r^T W^{-1} r), W = K + M.

    The weight is lambda-independent and SPD; used as the mesh-robust
    surrogate for the continuous dual norm when reporting residuals. W^{-1} r
    is approximated by conjugate gradients from zero, preconditioned with
    the sine solve B of W (sine_solver at lam = 1); no matrix is factored.
    CG stops at the first iterate x_k with rho_k = s_k^T B s_k <=
    eps^2 r^T x_k, where s_k = r - W x_k and eps = _NORM_EPS = 1e-5. CG
    gives r^T x_k = ||x_k||_W^2 and r^T W^{-1} r - r^T x_k = s_k^T W^{-1} s_k
    <= rho_k / lambda_min(BW), so r^T x_k underestimates ||r||^2 by a
    relative error of at most eps^2 / lambda_min(BW). lambda(BW) lies in
    [1 - 1.6e-3, 1 + 1.6e-3] (sine_solver: measured at n = 2 to 48, and
    shrinking as h^2), which bounds that error by 1.0e-10; CG takes 2
    iterations for n <= 48 and 1 from n = 96 up, at odd n and even.

    Called with an (n_free,) vector it returns ||r||; with an (n_free, k)
    array, the hypot of the k column norms, one CG per column. A zero
    vector, and one with no entries (n = 1), has norm 0. CG not stopping
    within _NORM_MAX_ITER iterations raises NonconvergenceError.
    """

    def __init__(self, space: FeSpace):
        self._W = operator(space, 1.0)
        self._solve = sine_solver(space, 1.0)

    def __call__(self, r: np.ndarray) -> float:
        r = np.asarray(r, dtype=float)
        if not r.size:
            return 0.0
        columns = (np.ascontiguousarray(c) for c in r.reshape(len(r), -1).T)
        return float(np.sqrt(sum(c @ self._riesz(c)[0] for c in columns)))

    def _riesz(self, r: np.ndarray) -> tuple:
        """(x, iterations): x ~ W^{-1} r by the PCG of the class docstring."""
        x, s = np.zeros_like(r), r.copy()
        p = self._solve(s)
        rho = s @ p
        for iterations in range(_NORM_MAX_ITER + 1):
            if rho <= _NORM_EPS**2 * (r @ x):  # at once for r = 0
                return x, iterations
            if iterations == _NORM_MAX_ITER:
                break
            q = self._W @ p
            alpha = rho / (p @ q)
            x += alpha * p
            s -= alpha * q
            z = self._solve(s)
            rho, rho_old = s @ z, rho
            p = z + (rho / rho_old) * p
        raise NonconvergenceError(
            f"dual norm CG on {len(r)} unknowns stopped after {iterations} "
            f"iterations at ratio sqrt(s^T B s / r^T x) = "
            f"{np.sqrt(rho / (r @ x)):.3e}, above its target {_NORM_EPS:.0e}"
        )


def residual_norm(space: FeSpace) -> ResidualNorm:
    if "residual_norm" not in space._cache:
        space._cache["residual_norm"] = ResidualNorm(space)
    return space._cache["residual_norm"]


# ------------------------------------------------------------------ V-cycle


class _VCycle:
    """One V(2,2) cycle for A as a preconditioner: Galerkin coarse operators
    R A P down the hierarchy, damped Jacobi smoothing and a sparse LU at the
    coarsest level. hierarchy is a sequence of (P, R) pairs, finest first,
    with R = P^T in CSR built once by its owner (prolongations per space,
    mfg_solver's block hierarchy per solve) and shared by every cycle; the
    CSC view P.T makes each Galerkin product about 1.6 times slower. With
    an empty hierarchy the cycle is that LU, an exact solve. For symmetric
    A the cycle is symmetric. Each sweep x += w (b - A x) forms and scales
    b - A x in the buffer that A @ x returns, with no other temporary."""

    def __init__(self, A, hierarchy):
        self.hierarchy = hierarchy
        self.ops = [A.tocsr()]
        for P, R in hierarchy:
            self.ops.append((R @ self.ops[-1] @ P).tocsr())
        self.weights = [_JACOBI_OMEGA / op.diagonal() for op in self.ops[:-1]]
        coarse = self.ops[-1].tocsc()
        try:
            self.lu = spla.splu(coarse, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise FemError(
                f"linear system is singular: the coarsest of {len(self.ops)} "
                f"levels ({coarse.shape[0]} of {A.shape[0]} unknowns) has no "
                f"LU: {exc}"
            ) from exc

    def __call__(self, b: np.ndarray, level: int = 0) -> np.ndarray:
        if level == len(self.hierarchy):
            return self.lu.solve(b)
        A, w = self.ops[level], self.weights[level]
        P, R = self.hierarchy[level]

        def defect(x):  # b - A x, in the buffer that A @ x returns
            Ax = A @ x
            return np.subtract(b, Ax, out=Ax)

        x = w * b  # the first sweep, from x = 0
        for sweep in range(1, 2 * _JACOBI_SWEEPS):
            if sweep == _JACOBI_SWEEPS:  # pre-smoothing done
                x += P @ self(R @ defect(x), level + 1)
            d = defect(x)
            d *= w
            x += d
            del d  # not held through the coarse correction
        return x


def krylov_solve(A, b: np.ndarray, precondition) -> tuple:
    """Solve A y = b by restarted GMRES preconditioned with one application
    of the callable precondition per iteration, to relative residual
    _KRYLOV_RTOL; returns (y, GMRES iterations). precondition maps a vector
    to an approximation of A^{-1} times it: _VCycle(A, hierarchy) for a
    matrix with a drift, sine_solver for K + lam M. GMRES stopping above
    its tolerance raises FemError."""
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    n = A.shape[0]
    iterations = 0

    def count(_):
        nonlocal iterations
        iterations += 1

    y, _ = spla.gmres(
        A, b, rtol=_KRYLOV_RTOL, atol=0.0, restart=_GMRES_RESTART,
        maxiter=_GMRES_MAX_CYCLES, M=spla.LinearOperator((n, n), precondition),
        callback=count, callback_type="pr_norm",
    )
    rel = float(np.linalg.norm(b - A @ y) / bnorm)
    if not rel <= _KRYLOV_RTOL:
        raise FemError(
            f"GMRES on {n} unknowns stopped after {iterations} iterations "
            f"at relative residual {rel:.3e}, above its target {_KRYLOV_RTOL:.0e}"
        )
    return y, iterations


# ------------------------------------------------------------- grid hierarchy


_COARSEST_N = 8  # coarsening stops at n <= 8 and at odd n


def _grid_prolongation(n: int) -> sp.csr_matrix:
    """P1 prolongation from unit_square_mesh(n // 2) to unit_square_mesh(n)
    on all vertices, n even. Fine vertex (i, j) takes the mean of the coarse
    vertices (floor(i/2), floor(j/2)) and (ceil(i/2), ceil(j/2)): injection
    where i and j are both even, else the mean of the two ends of the coarse
    edge it bisects (horizontal, vertical or lower-left to upper-right)."""
    nc = n // 2
    fine = np.arange((n + 1) ** 2)
    j, i = np.divmod(fine, n + 1)
    lo = (j // 2) * (nc + 1) + i // 2
    hi = ((j + 1) // 2) * (nc + 1) + (i + 1) // 2
    return sp.csr_matrix(
        (np.full(2 * fine.size, 0.5), (np.tile(fine, 2), np.concatenate([lo, hi]))),
        shape=(fine.size, (nc + 1) ** 2),
    )


def _grid_levels(space: FeSpace) -> list:
    """The n of every level that has a coarsening below it, finest first:
    n is halved while it is even and above 8, so the list is empty for odd
    n and for n <= 8."""
    levels = []
    n = space.mesh.n
    while n % 2 == 0 and n > _COARSEST_N:
        levels.append(n)
        n //= 2
    return levels


def prolongations(space: FeSpace) -> tuple:
    """The grid hierarchy below the space (_grid_levels): one pair (P, R)
    per coarsening, finest first, with P the P1 prolongation between free
    dofs and R = P^T in CSR, the restriction every _VCycle on the space
    shares. Cached on the space."""
    if "prolongations" not in space._cache:
        levels = []
        for n in _grid_levels(space):
            P = _free_prolongation(n)
            levels.append((P, P.T.tocsr()))
        space._cache["prolongations"] = tuple(levels)
    return space._cache["prolongations"]


def _free_prolongation(n: int) -> sp.csr_matrix:
    """_grid_prolongation(n) on the free dofs of levels n and n // 2, in CSR
    by grid arithmetic on the free lattices. Fine dof (i, j), 1 <= i, j <=
    n - 1, takes 1/2 of each interior coarse end (floor(i/2), floor(j/2))
    and (ceil(i/2), ceil(j/2)), in that (ascending) order: the first lies
    on the coarse boundary when i or j is 1, the second when i or j is
    n - 1. Where i and j are both even the ends coincide: one entry 1.
    Each (m, m) array is written in place by an outer ufunc of the two
    axes' n - 1 values."""
    m, mc = n - 1, n // 2 - 1  # sides of the fine and coarse free lattices
    k = np.arange(1, n, dtype=np.int32)  # fine lattice coordinates
    # per axis, the coarse free coordinate of each end: -1 or mc off it
    lo, hi, even = k // 2 - 1, (k + 1) // 2 - 1, k % 2 == 0
    ends, keep = np.empty((m, m, 2), dtype=np.int32), np.empty((m, m, 2), dtype=bool)
    data = np.full((m, m, 2), 0.5)
    for e, (end, inside) in enumerate(((lo, lo >= 0), (hi, hi < mc))):
        np.add.outer(end * mc, end, out=ends[:, :, e])
        np.logical_and.outer(inside, inside, out=keep[:, :, e])
    inject = np.logical_and.outer(even, even)
    keep[:, :, 1] &= ~inject
    data[:, :, 0][inject] = 1.0
    indptr = np.zeros(m * m + 1, dtype=np.int32)
    np.add(keep[:, :, 0], keep[:, :, 1], out=indptr[1:].reshape(m, m), dtype=np.int32)
    np.cumsum(indptr, out=indptr)
    return sp.csr_matrix((data[keep], ends[keep], indptr), shape=(m * m, mc * mc))


def vertex_prolongations(space: FeSpace) -> list:
    """The P1 prolongations between all vertices, one per coarsening of
    prolongations(space), finest first; built on each call and not cached,
    since only the nonlocal MFG Newton step, whose auxiliary unknowns live
    on all vertices, reads them."""
    return [_grid_prolongation(n) for n in _grid_levels(space)]


# ---------------------------------------------------------------------- norms


_NORM_KINDS = ("L2", "H1", "Lr", "W1r")


def _check_norm_args(kind: str, r):
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}; expected one of {_NORM_KINDS}")
    if kind in ("Lr", "W1r"):
        if r is None:
            raise ValueError(f"norm kind {kind} requires the exponent r")
        if not 2.0 <= float(r) <= 6.0:
            raise ValueError(f"exponent r must lie in [2, 6], got {r}")


def _norms(space: FeSpace, u_h: np.ndarray, kinds, r, u_exact=None, grad_exact=None) -> list:
    """Norms of the given kinds, in their order, of e = u_exact - u_h, or of
    u_h itself without u_exact, by the rule in one pass over its points: at
    each point the value error, and the squared gradient error if a kind
    needs it, are formed once as (nt,) rows and added into every kind's sum.
    The gradient error uses the elementwise-constant discrete gradient. No
    (nq, nt) array is formed."""
    for kind in kinds:
        _check_norm_args(kind, r)
    exponents = [2.0 if kind in ("L2", "H1") else float(r) for kind in kinds]
    corners = _corner_values(space, extend_to_vertices(space, u_h))
    grads_h = grad_sq = None
    if {"H1", "W1r"} & set(kinds):
        grads_h = element_gradients(space, u_h)
        grad_sq = grads_h[:, 0] * grads_h[:, 0] + grads_h[:, 1] * grads_h[:, 1]
    points = quad_points(space)[2] if u_exact is not None else [None] * len(_QUAD_BARY)
    areas = np.full(space.mesh.n_triangles, space.area)  # the sum by one dot
    totals = [0.0] * len(kinds)
    for w, b, X in zip(_QUAD_WEIGHTS, _QUAD_BARY, points):
        if X is None:
            vals = b @ corners
        else:  # the gradient first: its temporaries die before u's
            if grads_h is not None:
                diff = _eval_field(grad_exact, X, (2,)) - grads_h
                grad_sq = diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]
                del diff
            vals = _eval_field(u_exact, X, ()) - b @ corners
        for i, (kind, p) in enumerate(zip(kinds, exponents)):
            density = np.abs(vals) ** p
            if kind in ("H1", "W1r"):
                density += grad_sq ** (p / 2.0)
            totals[i] += float(w * (areas @ density))
    return [total ** (1.0 / p) for total, p in zip(totals, exponents)]


def _corner_values(space: FeSpace, nodal: np.ndarray) -> np.ndarray:
    """(3, nt) values of the all-vertex field nodal at each element's
    corners, from _grid_corners."""
    # in the layout of the gather nodal[triangles.T], the transpose of a
    # C-ordered (nt, 3) array, so the matmuls on it (rule_values, _norms)
    # sum in the gather's order
    return _grid_corners(space, nodal).transpose(2, 3, 0, 1).reshape(-1, 3).T


def norm(space: FeSpace, u: np.ndarray, kind: str, r: float | None = None) -> float:
    """Discrete norm of a coefficient vector by the rule (_norms); exact for
    L2 and H1, since u_h^2 is a polynomial of degree 2 per element."""
    return _norms(space, u, (kind,), r)[0]


def error_vs_exact(
    space: FeSpace, u_h: np.ndarray, u_exact, grad_exact, kind, r: float | None = None
) -> float | tuple:
    """Norm of (u_exact - u_h) by the rule (_norms), each field evaluated once
    per rule point. kind is one kind, giving a float, or a tuple of kinds,
    giving the tuple of their norms, in that order, from the same pass."""
    if isinstance(kind, str):
        return _norms(space, u_h, (kind,), r, u_exact, grad_exact)[0]
    return tuple(_norms(space, u_h, kind, r, u_exact, grad_exact))
